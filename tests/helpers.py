"""Shared test utilities: seeded random chains with consistent properties,
and the environment of a child Python process."""

from __future__ import annotations

import os
import random
from pathlib import Path

import matchain
from matchain import Chain, Factor, IndexDecl, Operand, TaggedOperand, UnaryTag
from matchain.properties import Property

#: The directory that holds the ``matchain`` package under test.
SRC = str(Path(matchain.__file__).resolve().parents[1])


def child_env(**extra: str) -> dict[str, str]:
    """This process's environment with ``SRC`` first on ``PYTHONPATH``, so
    that a child ``python -m matchain`` imports the same package without an
    install; ``extra`` sets further variables."""
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    path = os.pathsep.join([SRC] + [p for p in inherited if p])
    return dict(os.environ, PYTHONPATH=path, **extra)

#: Property menus compatible with the stored dimensions they are drawn for.
SQUARE_MENU = [
    frozenset(),
    frozenset({Property.FULL}),
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
    frozenset({Property.FULL}),
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


def random_operand_pair(
    rng: random.Random, dim_max: int = 20
) -> tuple[TaggedOperand, TaggedOperand]:
    """A conforming pair of tagged operands, as the DP would present them."""
    chain = random_chain(rng, n_min=2, n_max=2, dim_max=dim_max)
    out = []
    for factor in chain.factors:
        op = factor.operand
        out.append(TaggedOperand(op.rows, op.cols, op.properties, factor.tag, op.name))
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
