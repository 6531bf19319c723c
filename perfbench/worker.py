"""One process of an in-process workload (dp_mixed, dp_plain).

    python perfbench/worker.py <workload> <seed> <seconds> <mode>

The process imports matchain, parses the workload's generated problem
text, and prints ``ready``: set-up ends there. Mode ``setup`` exits at
that point. Mode ``timed`` then makes whole passes over the chains, one
``solve`` per operation and a pace reference after each (see
:func:`timed`), reads its peak RSS, and only then checks the plans. Mode ``traced`` runs an untraced
and a traced pass over every chain and reports the traced pass layer by
layer (see :func:`traced`). The result is one JSON line on standard
output.
"""

from __future__ import annotations

import json
import math
import resource
import sys
from time import perf_counter

import check
import gen
import pace
from spans import DP_HOOKS, Tracer, layer_metrics

PROBLEMS = {"dp_mixed": gen.mixed_problem, "dp_plain": gen.plain_problem}


def solve_one(mc, chain):
    """Solve, turning any exception into a failed operation."""
    try:
        return mc.solve(chain), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def check_chains(workload, seed, mc, chains, plans, errors):
    """Indices of chains whose plan is wrong, with the reasons."""
    bad = {}
    for at, chain in enumerate(chains):
        if errors.get(at):
            bad[at] = errors[at]
            continue
        plan = plans[at]
        reason = check.plan_problems(plan, mc)
        if reason is None and workload == "dp_plain":
            want = check.plain_reference(chain)
            if not check.close(plan.total_cost, want):
                reason = f"total {plan.total_cost!r} != textbook DP {want!r}"
        if reason is None and workload == "dp_mixed":
            for sub in check.subchains(chain, seed, at):
                got, err = solve_one(mc, sub)
                reason = err or check.oracle_problem(sub, got.total_cost, mc, mc.FLOPS)
                if reason:
                    break
        if reason:
            bad[at] = reason
    return bad


def timed(mc, chains, seconds):
    """Whole passes over the chains, so that every run weighs every chain
    the same: as many as fit in ``seconds`` at the speed of the first
    pass, and at least one. The pace reference is timed before the first
    solve and after every solve."""
    lat, op_chain, totals = [], [], []
    plans, errors = {}, {}
    refs = [pace.reference()]
    start = perf_counter()
    passes = done = 1
    while done <= passes:
        for c, chain in enumerate(chains):
            t0 = perf_counter()
            plan, err = solve_one(mc, chain)
            lat.append(perf_counter() - t0)
            refs.append(pace.reference())
            op_chain.append(c)
            totals.append(plan.total_cost if plan else None)
            if c not in plans:
                plans[c], errors[c] = plan, err
        if done == 1:
            passes = max(1, round(seconds / (perf_counter() - start)))
        done += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "latencies": lat,
        "refs": refs,
        "rss_mb": rss_mb,
        "op_chain": op_chain,
        "totals": totals,
    }, plans, errors


def one_pass(mc, chains, tracer=None):
    """Solve every chain once; returns seconds and (plan, error) pairs."""
    results = []
    t0 = perf_counter()
    for c, chain in enumerate(chains):
        if tracer is None:
            results.append(solve_one(mc, chain))
        else:
            tracer.stmt = c
            with tracer.span("solver.solve"):
                results.append(solve_one(mc, chain))
    return perf_counter() - t0, results


def _totals(results):
    return [plan.total_cost if plan else None for plan, _ in results]


def traced(mc, chains, seconds):
    """One untraced and one traced pass over every chain; the traced pass
    gives the per-layer figures. Until ``seconds`` have passed, single
    chains are then solved untraced and traced in turn, for the overhead
    ratio only. Returns the pass's tracer and results, the ratio, the
    number of traced totals that differ, and the solves per chain."""
    start = perf_counter()
    plain_s, want = one_pass(mc, chains)
    tracer = Tracer()
    tracer.install(DP_HOOKS)
    try:
        traced_s, got = one_pass(mc, chains, tracer)
    finally:
        tracer.uninstall()
    mismatch = sum(a != b for a, b in zip(_totals(want), _totals(got)))
    solves = [2] * len(chains)
    at = 0
    while perf_counter() - start < seconds:
        c = at % len(chains)
        t0 = perf_counter()
        plain = solve_one(mc, chains[c])
        plain_s += perf_counter() - t0
        extra = Tracer()
        extra.install(DP_HOOKS)
        try:
            t0 = perf_counter()
            again = solve_one(mc, chains[c])
            traced_s += perf_counter() - t0
        finally:
            extra.uninstall()
        mismatch += _totals([plain]) != _totals([again])
        solves[c] += 2
        at += 1
    return tracer, want, traced_s / plain_s, mismatch, solves


def main(argv) -> int:
    workload, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    t0 = perf_counter()
    import matchain as mc

    import_s = perf_counter() - t0
    numpy_loaded = "numpy" in sys.modules
    text = PROBLEMS[workload](seed)
    if mode == "traced":
        tracer0 = Tracer()
        with tracer0.span("expr.load_problem"):
            problem = mc.load_problem(text)
    else:
        problem = mc.load_problem(text)
    chains = [stmt.chain for stmt in problem.computes]
    print("ready", flush=True)
    if mode == "setup":
        return 0

    out = {"import_s": import_s, "numpy_loaded": numpy_loaded, "chains": len(chains)}
    if mode == "timed":
        res, plans, errors = timed(mc, chains, seconds)
        out.update(res)
    else:
        tracer, results, overhead, mismatch, solves = traced(mc, chains, seconds)
        plans = {c: plan for c, (plan, _) in enumerate(results)}
        errors = {c: err for c, (_, err) in enumerate(results)}
        summary = tracer.summary()
        load = tracer0.layer("expr.load_problem")
        summary["layers"]["expr.load_problem"] = dict(zip(("calls", "s", "self_s"), load))
        summary["counts"]["expr.load_problem.stmts"] = len(chains)
        metrics = layer_metrics(summary)
        metrics.update(
            {
                "import.s": import_s,
                "import.numpy_loaded": int(numpy_loaded),
                "trace.overhead": overhead,
            }
        )
        out.update(
            metrics=metrics,
            absent=summary["absent"],
            spans=summary["spans"],
            trace_mismatch=mismatch,
            solves=solves,
        )
        if len(argv) > 4:
            tracer.write(argv[4], {"workload": workload, "seed": seed})

    out["bad"] = check_chains(workload, seed, mc, chains, plans, errors)
    out["plan_totals"] = [plans[c].total_cost if plans[c] else None for c in range(len(chains))]
    logs = [math.log(max(t, 1.0)) for t in out["plan_totals"] if t is not None]
    out["plan_cost_geomean"] = math.exp(sum(logs) / len(logs)) if logs else None
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
