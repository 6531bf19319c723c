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
became the DP fill restricted to the left-deep tree. Speed-ups and
refactorings must leave the digests unchanged. They change only when
plans or costs change on purpose, as they did when discharge steps came
to be charged their own input's loops; such a change updates the digests
here and says so in CHANGES.md. ``LONG_STATS`` pins the fill's summed
work counters (``DPStats``) over the long chains, under both databases
and both metrics, so that a change in how many pairs the fill prices, or
splits it tries, shows in review; it changes only with the fill's work.
``EXTREME_DIGEST`` pins the outcomes of ``solve`` and ``naive_cost`` on
1,000 short chains whose dims and index ranges leave the float range:
each total, or each error's class, message and segment, so that a change
in how an error is found or worded shows too.
"""

import hashlib
import random

from matchain import (
    FLOPS,
    MEMORY,
    DPStats,
    IndexDecl,
    build_tables,
    default_db,
    emit_records,
    naive_cost,
    solve,
)
from matchain.errors import MatchainError

from helpers import random_chain

DIGEST = "951541061b8bbbfa61cc29c72dd74147458f37833d1eb49467bcc51c62552aff"
LONG_DIGEST = "ded081bbdc4a97d40d090d824b6c4be9b49eca2f0ac2d0598607de7a5eb2e8e5"
LONG_NAIVE_DIGEST = "18194c7023c893d0baf9da30ce176f6c2bc4a6b4e60cc5a86dbb7caf7bd0fbf6"
LONG_STATS = DPStats(splits=202_352, signatures=22_258, pairs=80_007, no_route=92)
EXTREME_DIGEST = "fad98be04a17083609ecf336475c512c51b6115197040937b7650e46a519d709"

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
    total = [0, 0, 0, 0]
    for chain in long_chains():
        for db in DATABASES:
            for metric in (FLOPS, MEMORY):
                stats = build_tables(chain, db, metric).stats
                total = [a + b for a, b in zip(total, stats)]
    assert DPStats(*total) == LONG_STATS


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
