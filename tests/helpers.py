"""Shared test utilities: seeded random chains with consistent properties,
the environment of a child Python process, and a reference oracle that
enumerates every parenthesization tree."""

from __future__ import annotations

import os
import random
from math import inf
from pathlib import Path

import matchain
from matchain import Chain, Factor, IndexDecl, Operand, TaggedOperand, UnaryTag, sequence
from matchain.errors import NoKernelApplicableError
from matchain.oracle import _SEQ_LEN, _unary_chains, best_pair_cost
from matchain.properties import Property, infer_properties

#: The directory that holds the ``matchain`` package under test.
SRC = str(Path(matchain.__file__).resolve().parents[1])


def child_env(**extra: str) -> dict[str, str]:
    """This process's environment with ``SRC`` first on ``PYTHONPATH``, so
    that a child ``python -m matchain`` imports the same package without an
    install; ``extra`` sets further variables."""
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    path = os.pathsep.join([SRC] + [p for p in inherited if p])
    return dict(os.environ, PYTHONPATH=path, **extra)


def fresh_structures(monkeypatch, db=()) -> sequence.Structures:
    """A new, empty :class:`~matchain.sequence.Structures` for ``db``, kept
    as the latest for the test's duration: the next call on ``db`` fills
    it, and a call on another database replaces it."""
    facts = sequence.Structures(db)
    monkeypatch.setattr(sequence, "_latest", facts)
    return facts


def pair_sids(facts, op1, op2) -> tuple[int, int]:
    """The structure ids of ``op1`` and ``op2`` in ``facts``."""
    return facts.sid[op1.props, op1.tag], facts.sid[op2.props, op2.tag]


#: Property menus compatible with the stored dimensions they are drawn for.
#: Each lists the empty set twice, because a seeded draw depends on a menu's
#: length and order, and the golden digests pin those draws.
SQUARE_MENU = [
    frozenset(),
    frozenset(),
    frozenset({Property.LOWER_TRIANGULAR}),
    frozenset({Property.UPPER_TRIANGULAR}),
    frozenset({Property.LOWER_TRIANGULAR, Property.NONSINGULAR}),
    frozenset({Property.UPPER_TRIANGULAR, Property.NONSINGULAR}),
    frozenset({Property.DIAGONAL}),
    frozenset({Property.SYMMETRIC}),
    frozenset({Property.SPD}),
    frozenset({Property.ORTHOGONAL}),
    frozenset({Property.NONSINGULAR}),
    frozenset({Property.IDENTITY}),
]

RECT_MENU = [
    frozenset(),
    frozenset(),
    frozenset({Property.LOWER_TRIANGULAR}),
    frozenset({Property.UPPER_TRIANGULAR}),
]

_SWAPPING = (UnaryTag.T, UnaryTag.INVT)


def random_chain(
    rng: random.Random,
    n_min: int = 2,
    n_max: int = 5,
    dim_max: int = 20,
    with_tags: bool = True,
    with_props: bool = True,
    index_pool: tuple[IndexDecl, ...] = (),
) -> Chain:
    """A random valid chain: conforming effective dims, consistent props.

    Inverse tags only appear on square factors, so the result always
    passes validation. When ``index_pool`` is nonempty, each factor may
    pick up one index from the pool; the target collects the union.
    """
    n = rng.randint(n_min, n_max)
    dims = [rng.randint(1, dim_max) for _ in range(n + 1)]
    factors = []
    used_indices: list[IndexDecl] = []
    for t in range(n):
        eff = (dims[t], dims[t + 1])
        tag = UnaryTag.ID
        if with_tags:
            options = [UnaryTag.ID, UnaryTag.T]
            if eff[0] == eff[1]:
                options += [UnaryTag.INV, UnaryTag.INVT]
            tag = rng.choice(options)
        stored = (eff[1], eff[0]) if tag in _SWAPPING else eff

        props: frozenset[Property] = frozenset()
        if with_props:
            if stored[1] == 1 and stored[0] > 1 and rng.random() < 0.5:
                props = frozenset({Property.VECTOR})
            elif stored[0] == stored[1]:
                props = rng.choice(SQUARE_MENU)
            else:
                props = rng.choice(RECT_MENU)

        indices: tuple[IndexDecl, ...] = ()
        if index_pool and rng.random() < 0.5:
            pick = rng.choice(index_pool)
            indices = (pick,)
            if pick not in used_indices:
                used_indices.append(pick)

        operand = Operand(f"M{t}", stored[0], stored[1], props, indices)
        factors.append(Factor(operand, tag))
    return Chain("Y", tuple(used_indices), tuple(factors))


def rescaled_chain(chain: Chain, scale) -> Chain:
    """``chain`` with every stored dim d replaced by ``scale(d)``."""
    factors = tuple(
        f._replace(operand=f.operand._replace(rows=scale(f.operand.rows), cols=scale(f.operand.cols)))
        for f in chain.factors
    )
    return chain._replace(factors=factors)


def scaled_chain(chain: Chain, factor: int) -> Chain:
    """``chain`` with every stored dim but 1 times ``factor``, so each
    operand keeps its structural key."""
    return rescaled_chain(chain, lambda d: d if d == 1 else d * factor)


def random_operand_pair(
    rng: random.Random, dim_max: int = 20
) -> tuple[TaggedOperand, TaggedOperand]:
    """A conforming pair of tagged operands, as the DP would present them."""
    chain = random_chain(rng, n_min=2, n_max=2, dim_max=dim_max)
    out = []
    for factor in chain.factors:
        op = factor.operand
        out.append(TaggedOperand(op.rows, op.cols, op.properties, factor.tag))
    return out[0], out[1]


def tree_splits(tree) -> dict[tuple[int, int], tuple[int]]:
    """The ``build_tables(splits=)`` map that restricts the DP fill to
    ``tree``, a parenthesization over factor positions (a bare int for a
    leaf): each inner node's cell tries only the node's own split."""
    out: dict[tuple[int, int], tuple[int]] = {}

    def span(node) -> tuple[int, int]:
        if isinstance(node, int):
            return node, node
        (i, k), (_, j) = span(node[0]), span(node[1])
        out[i, j] = (k,)
        return i, j

    span(tree)
    return out


#: Parenthesization trees grow as Catalan numbers; 8 factors is 429 trees.
MAX_FACTORS = 8


def _trees(i: int, j: int):
    if i == j:
        yield i
        return
    for k in range(i, j):
        for left in _trees(i, k):
            for right in _trees(k + 1, j):
                yield (left, right)


def _span(tree) -> tuple[int, int]:
    if isinstance(tree, int):
        return tree, tree
    return _span(tree[0])[0], _span(tree[1])[1]


def enumerated_min_units(chain: Chain, db, metric) -> tuple[int, object]:
    """The least cost over every parenthesization tree, in ``db``'s units,
    and the first tree attaining it (split index ascending, recursively),
    found by evaluating each tree in turn: a reference for
    ``oracle._min_units`` on chains of at most ``MAX_FACTORS`` factors.
    Exponential in the factor count."""
    factors = chain.factors
    n = len(factors)
    if n > MAX_FACTORS:
        raise ValueError(f"the enumeration is limited to {MAX_FACTORS} factors, got {n}")

    def seg_range(i: int, j: int) -> int:
        seen = set()
        r = 1
        for f in factors[i : j + 1]:
            for ix in f.operand.indices:
                if ix not in seen:
                    seen.add(ix)
                    r *= ix.range
        return r

    pair_memo: dict = {}

    def pair_cost(a: TaggedOperand, b: TaggedOperand, mults) -> int | float:
        key = (a, b, mults)
        if key not in pair_memo:
            pair_memo[key] = best_pair_cost(a, b, db, metric, mults)
        return pair_memo[key]

    def leaf(i: int) -> TaggedOperand:
        op = factors[i].operand
        return TaggedOperand(op.rows, op.cols, op.properties, factors[i].tag)

    def evaluate(tree) -> tuple[int | float, TaggedOperand | None]:
        # A combination runs its binary call once per value of the indices
        # of its whole span, and each operand's unary calls once per value
        # of the indices of that operand's span.
        if isinstance(tree, int):
            return 0, leaf(tree)
        lcost, lop = evaluate(tree[0])
        rcost, rop = evaluate(tree[1])
        if lcost == inf or rcost == inf:
            return inf, None
        (i, k), (_, j) = _span(tree[0]), _span(tree[1])
        mults = (seg_range(i, k), seg_range(k + 1, j), seg_range(i, j))
        step = pair_cost(lop, rop, mults)
        if step == inf:
            return inf, None
        ldims, rdims = lop.eff_dims, rop.eff_dims
        props = infer_properties(lop.eff_props, ldims, rop.eff_props, rdims)
        out = TaggedOperand(ldims[0], rdims[1], props, UnaryTag.ID)
        return lcost + rcost + step, out

    if n == 1:
        # Exhaustive unary search (copy included, unlike discharge before a
        # product): the cheapest chain of 1..3 calls ending tag-free.
        best = inf
        op = leaf(0)
        for cost, length, cur in _unary_chains(op, db, metric, _SEQ_LEN, True):
            if length >= 1 and cur.tag is UnaryTag.ID and cost < best:
                best = cost
        if best == inf:
            props = ",".join(sorted(p.value for p in op.props)) or "none"
            raise NoKernelApplicableError(
                f"no unary sequence materializes a {op.rows}x{op.cols} operand "
                f"tagged {op.tag.name} with props {props}"
            )
        return best * seg_range(0, 0), 0

    best, best_tree = inf, None
    for tree in _trees(0, n - 1):
        cost, _ = evaluate(tree)
        if cost < best:
            best = cost
            best_tree = tree
    if best_tree is None:
        raise NoKernelApplicableError("no parenthesization is computable")
    return best, best_tree
