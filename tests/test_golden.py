"""Golden digest of the planner's output over a fixed set of random chains.

The digest covers ``emit_records`` of every plan and the ``naive_cost`` of
every chain drawn by ``helpers.random_chain`` from fixed seeds: tagged and
propertied chains with and without indices, under the default database
and one without ``getri``/``trtri``, and under both metrics. Those chains
have at most 8 factors, where the DP's bound on a split's sub-costs skips
few splits, so ``LONG_DIGEST`` covers ``emit_records`` of 20 chains of 20
to 30 factors, with tags, properties and indices, under the default
database and both metrics, and ``LONG_NAIVE_DIGEST`` their ``naive_cost``,
pinned from the left-to-right loop that ``naive_cost`` ran before it
became the DP fill restricted to the left-deep tree. The oracle, exact at
any length, certifies each long chain's plan, its tree included, under
both databases and both metrics. Speed-ups and
refactorings must leave the digests unchanged. They change only when
plans or costs change on purpose, as they did when discharge steps came
to be charged their own input's loops; such a change updates the digests
here and says so in CHANGES.md, as they did when costs became exact
ints and a float's rounding stopped deciding ties. ``LONG_STATS`` pins the fill's summed
work counters (``DPStats``) over the long chains, under both databases
and both metrics, so that a change in how many pairs the fill prices, or
splits it tries, shows in review; it changes only with the fill's work.
``EXTREME_DIGEST`` pins the outcomes of ``solve`` and ``naive_cost`` on
1,000 short chains whose costs leave the float range: each total, exact
beyond it, or each error's class, message and segment, so that a change
in how an error is found or worded shows too; the oracle certifies each
of their plans. ``GEN_DIGEST`` covers the
benchmark's own statements, read from ``perfbench/gen.py`` (which is not
changed here): the dp_mixed problem and the 12 cli_mix files of seed 1,
each statement's ``emit_records`` and ``naive_cost`` under both metrics,
or each error's text.
"""

import hashlib
import random
import sys
from pathlib import Path

import pytest

from matchain import (
    FLOPS,
    MEMORY,
    DPStats,
    IndexDecl,
    brute_force_min,
    build_tables,
    default_db,
    emit_records,
    load_problem,
    naive_cost,
    solve,
)
from matchain.errors import MatchainError, NoKernelApplicableError
from matchain.oracle import _min_units

from helpers import random_chain

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

DIGEST = "8ce21580a6365fc72608a82adacac2d63df25d9031f94efffcfd8d02e1ac52f2"
LONG_DIGEST = "ded081bbdc4a97d40d090d824b6c4be9b49eca2f0ac2d0598607de7a5eb2e8e5"
LONG_NAIVE_DIGEST = "18194c7023c893d0baf9da30ce176f6c2bc4a6b4e60cc5a86dbb7caf7bd0fbf6"
LONG_STATS = DPStats(splits=202_352, charges=54_748, no_route=94, pricing="inline")
EXTREME_DIGEST = "db1f5eabc41d1118e45758f37f641c4b662d03a0547cf03278878e54435f24c3"
GEN_DIGEST = "a02f1f39a949928e62d08e5f9d8fe8dca928b3b27e08545bf7694edd963c32bf"

DATABASES = (
    default_db(),
    [k for k in default_db() if k.id not in ("getri", "trtri")],
)
INDEX_POOL = (IndexDecl("i", 3), IndexDecl("j", 4), IndexDecl("k", 2))


def chains():
    rng = random.Random(20240601)
    for at in range(300):
        pool = INDEX_POOL if at % 2 else ()
        yield random_chain(rng, n_min=1, n_max=8, dim_max=12, index_pool=pool)


def long_chains():
    rng = random.Random(20261018)
    for _ in range(20):
        yield random_chain(rng, n_min=20, n_max=30, dim_max=40, index_pool=INDEX_POOL)


def outcome(run) -> str:
    try:
        return run()
    except MatchainError as exc:
        # The error class only: its message is not part of the plan.
        return f"error {type(exc).__name__}\n"


def test_plans_match_golden_digest():
    digest = hashlib.sha256()
    for chain in chains():
        for db in DATABASES:
            for metric in (FLOPS, MEMORY):
                plan = outcome(lambda: emit_records(solve(chain, db, metric)))
                naive = outcome(lambda: f"naive {naive_cost(chain, db, metric)!r}\n")
                digest.update((plan + naive).encode())
    assert digest.hexdigest() == DIGEST


def test_long_plans_match_golden_digest():
    digest = hashlib.sha256()
    for chain in long_chains():
        for metric in (FLOPS, MEMORY):
            plan = outcome(lambda: emit_records(solve(chain, None, metric)))
            digest.update(plan.encode())
    assert digest.hexdigest() == LONG_DIGEST


def test_long_naive_costs_match_golden_digest():
    digest = hashlib.sha256()
    for chain in long_chains():
        for metric in (FLOPS, MEMORY):
            naive = outcome(lambda: f"naive {naive_cost(chain, None, metric)!r}\n")
            digest.update(naive.encode())
    assert digest.hexdigest() == LONG_NAIVE_DIGEST


def test_long_fill_work_counts_match_golden():
    total = [0, 0, 0]
    for chain in long_chains():
        for db in DATABASES:
            for metric in (FLOPS, MEMORY):
                *counts, pricing = build_tables(chain, db, metric).stats
                assert pricing == LONG_STATS.pricing
                total = [a + b for a, b in zip(total, counts)]
    assert DPStats(*total, LONG_STATS.pricing) == LONG_STATS


def test_oracle_certifies_long_chains():
    # The oracle's exact minimum and the first tree attaining it are the
    # plan's, on chains far beyond what an enumeration of every tree visits.
    for chain in long_chains():
        for db in DATABASES:
            for metric in (FLOPS, MEMORY):
                plan = solve(chain, db, metric)
                assert _min_units(chain, db, metric) == (plan.units, plan.parenthesization)


def extreme_chains():
    """Seeded chains whose dims, all but 1, are scaled by 10^50 to 10^200,
    each distinct dim by its own power, over index ranges up to 10^160, so
    that call costs, charges and totals leave the float range."""
    rng = random.Random(20261025)
    pool = (IndexDecl("i", 3), IndexDecl("j", 10 ** 80), IndexDecl("k", 10 ** 160))
    for _ in range(1000):
        chain = random_chain(rng, n_min=1, n_max=5, dim_max=9, index_pool=pool)
        powers = {}

        def scale(d):
            if d == 1:
                return d
            return d * 10 ** powers.setdefault(d, rng.randint(50, 200))

        yield chain._replace(
            factors=tuple(
                f._replace(
                    operand=f.operand._replace(
                        rows=scale(f.operand.rows), cols=scale(f.operand.cols)
                    )
                )
                for f in chain.factors
            )
        )


def test_extreme_outcomes_match_golden_digest():
    # Pins the error texts, which the plan digests leave out: each error's
    # class, message and segment, and each plan's total.
    digest = hashlib.sha256()
    for chain in extreme_chains():
        for db in DATABASES:
            for metric in (FLOPS, MEMORY):
                for run in (solve, naive_cost):
                    try:
                        got = run(chain, db, metric)
                        line = repr(getattr(got, "total_cost", got))
                    except MatchainError as exc:
                        segment = getattr(exc, "segment", None)
                        line = f"{type(exc).__name__}|{exc}|{segment}"
                    digest.update(f"{line}\n".encode())
    assert digest.hexdigest() == EXTREME_DIGEST


def test_oracle_certifies_extreme_chains():
    # Every cost is an exact int, so the solver's total is the oracle's
    # minimum to the last digit, and the left-to-right order never beats it.
    checked = 0
    for chain in extreme_chains():
        for db in DATABASES:
            for metric in (FLOPS, MEMORY):
                try:
                    plan = solve(chain, db, metric)
                except MatchainError:
                    with pytest.raises(MatchainError):
                        brute_force_min(chain, db, metric)
                    continue
                assert plan.total_cost == brute_force_min(chain, db, metric)[0]
                checked += 1
                try:
                    naive = naive_cost(chain, db, metric)
                except NoKernelApplicableError:  # a gap the plan avoids
                    continue
                assert naive >= plan.total_cost
    assert checked > 3000


def benchmark_chains():
    """The statements of the benchmark's dp_mixed problem and cli_mix files
    for seed 1, in file order, as ``perfbench/gen.py`` writes them."""
    texts = [gen.mixed_problem(1)] + [text for _, text, _ in gen.cli_files(1)]
    for text in texts:
        for stmt in load_problem(text).computes:
            yield stmt.chain


def text_of(run) -> str:
    try:
        return run()
    except MatchainError as exc:
        return str(exc)


def test_benchmark_statements_match_golden_digest():
    digest = hashlib.sha256()
    for chain in benchmark_chains():
        for metric in (FLOPS, MEMORY):
            digest.update(text_of(lambda: emit_records(solve(chain, None, metric))).encode())
            digest.update(text_of(lambda: repr(naive_cost(chain, None, metric))).encode())
    assert digest.hexdigest() == GEN_DIGEST
