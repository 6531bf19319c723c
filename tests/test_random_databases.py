"""The planner is exact under any kernel database the config accepts.

The solver prunes on claims about its database: the floor while the
structures met share one ending kernel, the dominance rule over preps, at
most two peels before a product, and no ``copy`` before a product. Its fill
also picks a pricing from the chain. Hypothesis draws valid kernel-config
texts over the built-ins or an empty base, and chains on each side of that
choice, and ``solve`` must find the oracle's exact minimum and first tree,
or both must raise as documented.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from matchain import FLOPS, MEMORY, IndexDecl, load_kernel_config, solve
from matchain import solver
from matchain.errors import NoKernelApplicableError, UnsatisfiableError
from matchain.oracle import _min_units
from matchain.properties import PROPERTY_NAMES

from helpers import random_chain

INDEX_POOL = (IndexDecl("i", 3), IndexDecl("j", 2))

#: Every property name a ``req`` group may use.
REQ_NAMES = sorted({*PROPERTY_NAMES, "square"})

#: The tag groups ``_unary_peel`` accepts: a copy, or a peel of t or inv.
UNARY_TAGS = ("id", "", "t", "t,invt", "inv", "inv,invt")
TAGS = ("id", "t", "inv", "invt")

#: Ids of built-in kernels, which a line replaces, and new ones.
IDS = ("gemm", "gesv", "trsm", "getri", "transp", "copy", "x0", "x1", "x2")


def cost_poly(rng: random.Random) -> str:
    """A sum of products of m, k, n and integer literals, each term
    possibly divided by a positive literal."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        atoms = [rng.choice(("m", "k", "n", str(rng.randint(0, 4)))) for _ in range(rng.randint(1, 3))]
        divisor = rng.randint(1, 4)
        terms.append("*".join(atoms) + (f"/{divisor}" if divisor > 1 else ""))
    return "+".join(terms)


def kernel_line(seed: int) -> str:
    """One valid config line, drawn from ``seed``: unary or binary, with
    tag groups ``_unary_peel`` accepts, one or two ``req`` alternatives
    over every property name, and a cost polynomial."""
    rng = random.Random(seed)
    arity = rng.choice((1, 2))
    if arity == 1:
        tags = rng.choice(UNARY_TAGS)
    else:
        tags = ";".join(",".join(rng.sample(TAGS, rng.randint(1, 2))) for _ in range(2))
    alternatives = [
        ";".join(",".join(rng.sample(REQ_NAMES, rng.randint(0, 2))) for _ in range(arity))
        for _ in range(rng.randint(1, 2))
    ]
    kid = rng.choice(IDS)
    return f"kernel {kid} arity={arity} tags={tags} req={'|'.join(alternatives)} cost={cost_poly(rng)}"


def databases():
    """A valid config of 1-6 lines over the built-ins or an empty base.
    Each line is drawn whole from its own seed, which keeps the examples
    cheap enough to run hundreds of them in seconds."""
    lines = st.lists(st.integers(0, 2 ** 32).map(kernel_line), min_size=1, max_size=6)
    return st.builds(
        lambda lines, base: load_kernel_config("\n".join(lines), base),
        lines,
        st.sampled_from((None, ())),
    )


def chains(seed: int, kind: str):
    """A seeded chain. A plain one over at most two dims meets many equal
    cell keys, and the fill prices it by memo; the others mostly inline."""
    rng = random.Random(seed)
    if kind == "plain":
        return random_chain(
            rng, n_min=6, n_max=8, dim_max=2, with_tags=False, with_props=False
        )
    pool = INDEX_POOL if kind == "indexed" else ()
    return random_chain(rng, n_min=1, n_max=6, dim_max=6, index_pool=pool)


@settings(max_examples=500, deadline=None)
@given(
    db=databases(),
    seed=st.integers(0, 2 ** 32),
    kind=st.sampled_from(("tagged", "indexed", "plain")),
    metric=st.sampled_from((FLOPS, MEMORY)),
)
def test_solve_matches_the_oracle_under_random_databases(db, seed, kind, metric):
    chain = chains(seed, kind)
    if kind == "plain":
        assert not solver._inline_pays(chain.factors)
    try:
        want = _min_units(chain, db, metric)
    except NoKernelApplicableError:
        # A single factor's gap is its own error class in the solver.
        error = UnsatisfiableError if len(chain.factors) == 1 else NoKernelApplicableError
        with pytest.raises(error):
            solve(chain, db, metric)
        return
    plan = solve(chain, db, metric)
    assert (plan.units, plan.parenthesization) == want
