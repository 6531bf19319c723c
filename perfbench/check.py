"""Correctness references, applied outside every timed region.

Each check returns None when the plan is right, else a one-line reason.
The references do not share the code path under test: dp_plain plans
are compared with the textbook matrix-chain DP written below, the other
workloads with matchain's brute-force oracle, which enumerates every
parenthesization and kernel sequence on its own.
"""

from __future__ import annotations

import random


def close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def textbook_cost(dims) -> int:
    """Classic matrix-chain DP: cheapest product of A_i (dims[i] x dims[i+1])
    with a multiply costing 2*p*q*r."""
    n = len(dims) - 1
    best = [[0] * n for _ in range(n)]
    for length in range(1, n):
        for i in range(n - length):
            j = i + length
            best[i][j] = min(
                best[i][k] + best[k + 1][j] + 2 * dims[i] * dims[k + 1] * dims[j + 1]
                for k in range(i, j)
            )
    return best[0][n - 1]


def plan_problems(plan, mc) -> str | None:
    """Internal consistency: the total equals the multiplicity-weighted sum
    of the calls, and the records form parses back to an equal plan."""
    summed = sum(call.cost * call.multiplicity for call in plan.calls)
    if not close(plan.total_cost, summed):
        return f"total {plan.total_cost!r} != sum of calls {summed!r}"
    text = mc.emit_records(plan)
    back = mc.parse_records(text)
    if back != plan:
        return "emit_records -> parse_records does not rebuild the plan"
    return None


def records_problems(records: str, mc) -> tuple[object, str | None]:
    """The same checks on a plan the CLI printed as records."""
    try:
        plan = mc.parse_records(records)
    except (ValueError, KeyError) as exc:
        return None, f"unparsable records: {exc}"
    if mc.emit_records(plan) != records:
        return plan, "parse_records -> emit_records does not reproduce the output"
    return plan, plan_problems(plan, mc)


def plain_reference(chain) -> float:
    """Textbook DP cost of an untagged, property-free chain."""
    factors = chain.factors
    dims = [f.operand.rows for f in factors] + [factors[-1].operand.cols]
    return float(textbook_cost(dims))


#: Contiguous sub-chains checked against the oracle per dp_mixed chain.
SUBCHAINS = 2
SUBCHAIN_LEN = 8


def subchains(chain, seed: int, at: int):
    """A few contiguous windows of the chain, as chains of their own."""
    from matchain import Chain

    rng = random.Random(f"subchains:{seed}:{at}")
    factors = chain.factors
    out = []
    for k in range(SUBCHAINS):
        start = rng.randrange(len(factors) - SUBCHAIN_LEN + 1)
        out.append(Chain(f"W{k}", (), factors[start : start + SUBCHAIN_LEN]))
    return out


def oracle_problem(chain, total: float, mc, metric) -> str | None:
    """Compare a plan total with the brute-force minimum."""
    try:
        want, _ = mc.brute_force_min(chain, None, metric)
    except mc.errors.NoKernelApplicableError:
        return "oracle finds no route but the solver returned a plan"
    if not close(total, want):
        return f"total {total!r} != oracle {want!r} for {mc.unparse(chain)}"
    return None
