"""The fill's two pricings (see ``matchain.solver``) and the choice between
them.

Inline and memo pricing charge every split alike, so each is run directly
(``solver._fill``) on every chain, whichever the chain would get, and they
must give equal cost and split tables and, through ``solve`` and
``naive_cost``, equal plans and left-to-right costs. The benchmark's own
statements, read from ``perfbench/gen.py`` (which is not changed here), pin
which pricing each workload gets.
"""

import math
import random
import sys
from pathlib import Path

from matchain import FLOPS, MEMORY, IndexDecl, build_tables, default_db, naive_cost, solve
from matchain import load_problem, solver
from matchain.errors import MatchainError
from matchain.sequence import Structures

from helpers import random_chain, scaled_chain

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

INDEX_POOL = (IndexDecl("i", 3), IndexDecl("j", 4), IndexDecl("k", 2))

#: The choice, kept before any test replaces it.
INLINE_PAYS = solver._inline_pays

DATABASES = {
    "default": default_db(),
    "no getri/trtri": [k for k in default_db() if k.id not in ("getri", "trtri")],
    # No general solve or inversion either: a general inverse has no route
    # at all, and a chain that needs one is left uncovered.
    "gap": [k for k in default_db() if k.id not in ("getri", "trtri", "gesv")],
}


def outcome(run):
    """``run()``'s result, or its error's class, message and segment."""
    try:
        return run()
    except MatchainError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "segment", None)


def pricing_outcomes(chain, db, metric, inline, monkeypatch):
    """The fill's tables and counters, the plan with its exact total, and
    the left-to-right cost, all under the given pricing."""
    tables = solver._fill(chain.factors, Structures.of(db), metric, None, None, inline)
    monkeypatch.setattr(solver, "_inline_pays", lambda factors: inline)
    plan = outcome(lambda: solve(chain, db, metric))
    units = getattr(plan, "units", None)
    naive = outcome(lambda: naive_cost(chain, db, metric))
    return tables, (tables.costs, tables.solution, plan, units, naive)


def test_both_pricings_agree_split_for_split(monkeypatch):
    # Chains of 2 to 30 factors, with tags, properties and indices, over
    # few dims and many, and some at 10^200, under three databases and
    # both metrics. The fill runs both pricings on every chain, whichever
    # the choice would give it.
    rng = random.Random(20261022)
    seen = {"uncovered": 0, "no route": 0, "beyond float": 0, "memo": 0, "inline": 0}
    for at in range(36):
        pool = INDEX_POOL if at % 2 else ()
        n_max = (4, 12, 30)[at % 3]
        chain = random_chain(rng, n_max=n_max, dim_max=rng.choice((3, 12)), index_pool=pool)
        if at % 4 == 3:
            chain = scaled_chain(chain, 10 ** 200)
        seen["inline" if INLINE_PAYS(chain.factors) else "memo"] += 1
        for db in DATABASES.values():
            for metric in (FLOPS, MEMORY):
                inline, got = pricing_outcomes(chain, db, metric, True, monkeypatch)
                memo, want = pricing_outcomes(chain, db, metric, False, monkeypatch)
                assert got == want
                assert inline.stats.splits == memo.stats.splits
                assert (inline.stats.pricing, memo.stats.pricing) == ("inline", "memo")
                costs = [cost for row in inline.costs for cost in row]
                seen["uncovered"] += math.inf in costs
                seen["no route"] += inline.stats.no_route > 0
                seen["beyond float"] += any(10 ** 309 < cost < math.inf for cost in costs)
    assert min(seen.values()) > 3, seen


def benchmark_pricings(problems):
    """The pricing the choice gives each multi-factor statement of
    ``problems``, in order."""
    return [
        "inline" if INLINE_PAYS(stmt.chain.factors) else "memo"
        for text in problems
        for stmt in load_problem(text).computes
        if len(stmt.chain.factors) > 1
    ]


def test_each_benchmark_workload_gets_its_pricing():
    # dp_mixed's chains meet few repeated cell keys and dp_plain's many;
    # cli_mix's short statements over many dims get inline pricing.
    mixed, plain = gen.mixed_problem(1), gen.plain_problem(1)
    assert benchmark_pricings([mixed]) == ["inline"] * 36
    assert benchmark_pricings([plain]) == ["memo"] * 60
    cli = benchmark_pricings(text for _, text, _ in gen.cli_files(1))
    assert cli.count("inline") >= 0.99 * len(cli)
    # build_tables asks the choice.
    for text, pricing in ((mixed, "inline"), (plain, "memo")):
        chain = load_problem(text).computes[0].chain
        assert build_tables(chain).stats.pricing == pricing
