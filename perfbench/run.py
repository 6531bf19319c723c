"""matchain benchmark: seeded workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload dp_mixed --seed 1 --seconds 20 --trace 0

Workloads (names and reasons are also in BENCHMARK.json):

- dp_mixed: ``solve`` in one process on long chains with random tags and
  property menus. The sequence memo misses often, so ``find_sequence``,
  ``match`` and ``infer_properties`` do most of the work.
- dp_plain: ``solve`` in one process on long untagged chains over four
  dimensions. Nearly every ``find_sequence`` call hits the memo, so the
  DP loop dominates and a kernel-matching change should not move it.
- cli_mix: one ``python -m matchain <file> --format records`` process at
  a time. Small files make start-up dominate the median; one large file
  carries most statements and so the throughput.

With ``--trace 0`` the run measures the end-to-end metrics with nothing
installed in the program. With ``--trace 1`` it runs an untraced and a
traced pass over the same inputs, reports the traced pass layer by
layer, and keeps alternating the two until the time is up, for the
traced/untraced time ratio.

Inputs come only from ``perfbench/gen.py`` and the seed. Every output is
checked outside the timed region (see ``check.py``). The line before the
last records the environment; the last line is the result object.
Working files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Fresh interpreters timed per run for ``setup_s``; the median is reported.
SETUP_PROBES = 11

#: Percentile reported as ``latency_s_tail``: the highest one with at
#: least ten samples beyond it at the usual sample count of a run.
TAIL_PERCENTILE = {"dp_mixed": 72, "dp_plain": 83, "cli_mix": 72}

#: In the large cli_mix file the oracle checks every statement of up to
#: this many factors and every ORACLE_STRIDE-th statement; brute force on
#: all of them would take longer than the timed run. Files of fewer than
#: ORACLE_ALL_BELOW statements are checked in full.
ORACLE_FULL_FACTORS = 6
ORACLE_STRIDE = 8
ORACLE_ALL_BELOW = 100


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def geomean(values) -> float:
    logs = [math.log(max(v, 1.0)) for v in values]
    return math.exp(sum(logs) / len(logs))


# --------------------------------------------------------------------------
# In-process workloads: the work runs in perfbench/worker.py processes.


def _start_worker(workload, seed, seconds, mode, *extra):
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds), mode]
    t0 = perf_counter()
    proc = subprocess.Popen(
        cmd + list(extra), cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    line = proc.stdout.readline()
    ready_s = perf_counter() - t0
    return proc, line.strip() == "ready", ready_s


def _finish_worker(proc):
    out = proc.stdout.read()
    proc.stdout.close()
    code = proc.wait()
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise RuntimeError(f"worker exited with code {code}")
    return json.loads(lines[-1])


def paced_probes(probe):
    """Time SETUP_PROBES calls of ``probe`` (which returns its seconds)
    with the pace reference around each; returns (paced, raw) seconds."""
    refs, raw = [pace.reference()], []
    for _ in range(SETUP_PROBES):
        raw.append(probe())
        refs.append(pace.reference())
    return pace.paced(raw, refs), raw


def dp_setup_probe(workload, seed) -> float:
    proc, ok, ready_s = _start_worker(workload, seed, 0, "setup")
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or not ok:
        raise RuntimeError("set-up probe failed")
    return ready_s


def timing_metrics(workload, lat, raw_lat, setup, raw_setup, stmts):
    """The time metrics of a run, in paced seconds, and the raw medians."""
    metrics = {
        "latency_s_p50": statistics.median(lat),
        "latency_s_tail": percentile(lat, TAIL_PERCENTILE[workload]),
        "throughput_stmts_per_s": stmts / sum(lat),
        "setup_s": statistics.median(setup),
    }
    raw = {"raw_latency_s_p50": statistics.median(raw_lat), "raw_setup_s": statistics.median(raw_setup)}
    return metrics, raw


def run_dp(workload, seed, seconds, trace):
    mode = "traced" if trace else "timed"
    extra = [str((OUT / f"trace-{workload}.json.gz").relative_to(ROOT))] if trace else []
    proc, ok, _ = _start_worker(workload, seed, seconds, mode, *extra)
    res = _finish_worker(proc)
    if not ok:
        raise RuntimeError("worker did not report ready")
    bad = {int(k): v for k, v in res["bad"].items()}
    failures = [f"chain {c}: {why}" for c, why in sorted(bad.items())]
    if trace:
        attempted = sum(res["solves"])
        failed = sum(res["solves"][c] for c in bad) + res["trace_mismatch"]
        if res["trace_mismatch"]:
            failures.append(f"{res['trace_mismatch']} traced totals differ from untraced")
        info = {"absent": res["absent"], "spans": res["spans"], "trace_file": extra[0]}
        return attempted, failed, failures, res["metrics"], info

    first = res["plan_totals"]
    failed = 0
    for c, total in zip(res["op_chain"], res["totals"]):
        if c in bad or total is None or total != first[c]:
            failed += 1
    if failed > len([c for c in res["op_chain"] if c in bad]):
        failures.append("repeated solves of one chain gave different totals")
    raw_lat = res["latencies"]
    lat = pace.paced(raw_lat, res["refs"])
    setup, raw_setup = paced_probes(lambda: dp_setup_probe(workload, seed))
    metrics, raw = timing_metrics(workload, lat, raw_lat, setup, raw_setup, len(lat))
    metrics.update(peak_rss_mb=res["rss_mb"], plan_cost_geomean=res["plan_cost_geomean"])
    return len(lat), failed, failures, metrics, {"samples": len(lat), **raw}


# --------------------------------------------------------------------------
# cli_mix: one matchain process per operation.


def _cli_cmd(path, metric):
    cmd = [sys.executable, "-m", "matchain", str(path), "--format", "records"]
    return cmd + (["--metric", "memory"] if metric == "memory" else [])


def _cli_pass(files, traced_dir=None, refs=None):
    """Run every file once; returns [(seconds, returncode, stdout, stderr)].
    With a list ``refs``, the pace reference is timed after each run and
    appended to it."""
    out = []
    for at, (path, metric, _) in enumerate(files):
        cmd = _cli_cmd(path, metric)
        if traced_dir is not None:
            cmd[1:3] = [str(HERE / "traced_cli.py"), str(traced_dir / f"{at}.json.gz")]
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True)
        out.append((perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr))
        if refs is not None:
            refs.append(pace.reference())
    return out


def _write_cli_files(seed):
    import gen

    folder = OUT / "cli-files"
    folder.mkdir(parents=True, exist_ok=True)
    files = []
    for stem, text, metric in gen.cli_files(seed):
        path = folder / f"{stem}.mc"
        path.write_text(text, encoding="utf-8")
        files.append((path, metric, text))
    return files


def _check_cli_output(mc, check, text, metric_name, stdout):
    """Check one file's records output; returns (plan totals, reasons)."""
    problem = mc.load_problem(text)
    metric = mc.metric_by_name(metric_name)
    by_line = {stmt.lineno: stmt.chain for stmt in problem.computes}
    blocks = [b for b in stdout.strip("\n").split("\n\n") if b]
    reasons, totals = [], []
    if len(blocks) != len(problem.computes):
        reasons.append(f"{len(blocks)} plans for {len(problem.computes)} statements")
    many = len(problem.computes) >= ORACLE_ALL_BELOW
    for at, block in enumerate(blocks):
        head, _, records = block.partition("\n")
        lineno = int(head.split()[1].removeprefix("lineno="))
        plan, why = check.records_problems(records + "\n", mc)
        if why is None:
            totals.append(plan.total_cost)
            chain = by_line[lineno]
            if not many or len(chain.factors) <= ORACLE_FULL_FACTORS or at % ORACLE_STRIDE == 0:
                why = check.oracle_problem(chain, plan.total_cost, mc, metric)
        if why:
            reasons.append(f"line {lineno}: {why}")
    return totals, reasons


def _check_cli(files, first):
    """Reasons per file index, and every statement's plan total."""
    sys.path.insert(0, str(ROOT / "src"))
    import check
    import matchain as mc

    bad, totals = {}, []
    for at, ((_, metric, text), (_, code, stdout, stderr)) in enumerate(zip(files, first)):
        if code != 0:
            bad[at] = [f"exit code {code}: {stderr.strip()[-300:]}"]
            continue
        file_totals, reasons = _check_cli_output(mc, check, text, metric, stdout)
        totals += file_totals
        if reasons:
            bad[at] = reasons
    return bad, totals


def run_cli(seed, seconds, trace):
    files = _write_cli_files(seed)
    stmts = [text.count("\ncompute ") for _, _, text in files]
    start = perf_counter()
    if trace:
        # One untraced and one traced pass; then single files untraced
        # and traced in turn until the time is up, for the overhead ratio.
        folder, scratch = OUT / "cli-trace", OUT / "cli-trace-extra"
        folder.mkdir(exist_ok=True)
        scratch.mkdir(exist_ok=True)
        first = _cli_pass(files)
        ops = [(at, False, op) for at, op in enumerate(first)]
        ops += [(at, True, op) for at, op in enumerate(_cli_pass(files, folder))]
        at = 0
        while perf_counter() - start < seconds:
            k = at % len(files)
            ops.append((k, False, _cli_pass(files[k : k + 1])[0]))
            ops.append((k, True, _cli_pass(files[k : k + 1], scratch)[0]))
            at += 1
    else:
        # Whole passes only, so that every run has the same mix of files:
        # as many as fit in the time at the speed of the first, at least one.
        refs = [pace.reference()]
        ops = [(at, False, op) for at, op in enumerate(_cli_pass(files, refs=refs))]
        passes = max(1, round(seconds / (perf_counter() - start)))
        for _ in range(passes - 1):
            ops += [(at, False, op) for at, op in enumerate(_cli_pass(files, refs=refs))]
        first = [op for _, _, op in ops[: len(files)]]
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    bad, totals = _check_cli(files, first)
    failures = [f"file {files[at][0].name}: {r}" for at, rs in sorted(bad.items()) for r in rs[:3]]
    failed = 0
    for at, _, (_, code, stdout, _) in ops:
        failed += at in bad or code != 0 or stdout != first[at][2]
    if failed > sum(at in bad for at, _, _ in ops):
        failures.append("a repeated or traced run printed different output")

    if trace:
        from spans import layer_metrics, merge, read_trace

        heads = [read_trace(folder / f"{at}.json.gz") for at in range(len(files))]
        summary = merge(heads)
        metrics = layer_metrics(summary)
        plain = sum(op[0] for _, traced, op in ops if not traced)
        traced = sum(op[0] for _, traced, op in ops if traced)
        metrics.update(
            {
                "import.s": statistics.median(h["import_s"] for h in heads),
                "import.numpy_loaded": int(any(h["numpy_loaded"] for h in heads)),
                "trace.overhead": traced / plain,
            }
        )
        info = {
            "absent": summary["absent"],
            "spans": summary["spans"],
            "trace_dir": str(folder.relative_to(ROOT)),
        }
        return len(ops), failed, failures, metrics, info

    raw_lat = [op[0] for _, _, op in ops]
    lat = pace.paced(raw_lat, refs)
    setup, raw_setup = paced_probes(cli_setup_probe)
    done = sum(stmts[at] for at, _, _ in ops)
    metrics, raw = timing_metrics("cli_mix", lat, raw_lat, setup, raw_setup, done)
    metrics.update(peak_rss_mb=rss_mb, plan_cost_geomean=geomean(totals) if totals else 0.0)
    return len(ops), failed, failures, metrics, {"samples": len(lat), **raw}


def cli_setup_probe() -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import matchain"], cwd=ROOT, env=child_env(), check=True)
    return perf_counter() - t0


# --------------------------------------------------------------------------


def environment(args) -> dict:
    from importlib import metadata

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "matchain" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no matchain sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(whys))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    # One CPU for this process and every process it starts, so that an
    # operation and the pace references around it run on the same CPU:
    # on a shared host two CPUs of one machine can differ in speed.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if args.workload == "cli_mix":
        attempted, failed, failures, values, info = run_cli(args.seed, args.seconds, args.trace)
    else:
        attempted, failed, failures, values, info = run_dp(
            args.workload, args.seed, args.seconds, args.trace
        )
    if not args.trace:
        values["success_rate"] = 1 - failed / attempted
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    env = environment(args)
    env.update(info, why=whys[args.workload], error_rate=failed / attempted, failures=failures[:20])
    if not args.trace:
        pct = TAIL_PERCENTILE[args.workload]
        n = info["samples"]
        env.update(tail_percentile=pct, tail_samples_beyond=n - math.ceil(pct / 100 * n))
    result = {"correct": failed == 0 and not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"environment": env, "result": result}, indent=1))
    print(json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
