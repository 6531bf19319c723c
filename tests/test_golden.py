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
here and says so in CHANGES.md.
"""

import hashlib
import random

from matchain import (
    FLOPS,
    MEMORY,
    IndexDecl,
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
