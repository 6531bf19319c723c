"""Matrix property vocabulary, consistency closure, and inference maps.

Property sets are always stored *closed*: every implied property is made
explicit at construction time (``close``), so downstream code can test
membership with plain subset checks. A set holds only what is known: an
operand without structure has none. ``transpose_props``, ``inverse_props``
and ``infer_properties`` (for products) map closed sets to closed sets.

Each distinct closed set is one shared object: ``close``,
``transpose_props`` and ``inverse_props`` return it (``infer_properties``
through ``close``), so operands and products of equal structure hold the
same frozenset, and keys made of such sets compare by identity.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable

from .errors import (
    DimensionPropertyMismatchError,
    InconsistentPropertiesError,
    NonSquareError,
)


class Property(enum.Enum):
    DIAGONAL = "diagonal"
    LOWER_TRIANGULAR = "lower_triangular"
    UPPER_TRIANGULAR = "upper_triangular"
    SYMMETRIC = "symmetric"
    SPD = "spd"
    IDENTITY = "identity"
    ORTHOGONAL = "orthogonal"
    NONSINGULAR = "nonsingular"
    VECTOR = "vector"
    SQUARE = "square"

    # Members are singletons compared by identity, so the C-level identity
    # hash is consistent with equality and skips Enum's Python-level one.
    __hash__ = object.__hash__

    def __repr__(self):  # keeps frozensets of properties readable in test output
        return self.value


#: Pairwise implications applied transitively by ``close``.
IMPLICATIONS: dict[Property, frozenset[Property]] = {
    Property.IDENTITY: frozenset(
        {
            Property.DIAGONAL,
            Property.SYMMETRIC,
            Property.SPD,
            Property.ORTHOGONAL,
            Property.NONSINGULAR,
        }
    ),
    Property.DIAGONAL: frozenset(
        {Property.LOWER_TRIANGULAR, Property.UPPER_TRIANGULAR}
    ),
    Property.SPD: frozenset({Property.SYMMETRIC, Property.NONSINGULAR}),
}

#: Properties that only make sense for square operands.
SQUARE_ONLY: frozenset[Property] = frozenset(
    {
        Property.SYMMETRIC,
        Property.SPD,
        Property.ORTHOGONAL,
        Property.IDENTITY,
        Property.SQUARE,
    }
)


#: The shared object of each distinct set, keyed by itself: at most 2**10.
_SHARED: dict[frozenset[Property], frozenset[Property]] = {}

#: ``close``'s result by (given props, square, single column): nothing else
#: in it reads the dims. At most 4 * 2**10 keys, so nothing is evicted.
_CLOSED: dict[tuple[frozenset[Property], bool, bool], frozenset[Property]] = {}


def _shared(props: frozenset[Property]) -> frozenset[Property]:
    return _SHARED.setdefault(props, props)


def close(props: Iterable[Property], rows: int, cols: int) -> frozenset[Property]:
    """Return the implication closure of ``props`` for a rows x cols operand.

    ``SQUARE`` is derived from the dimensions for non-vector operands.
    Raises :class:`InconsistentPropertiesError` on contradictions and
    :class:`DimensionPropertyMismatchError` when a square-only property is
    claimed for non-square dimensions (or ``VECTOR`` for a multi-column one).
    The result is the set's shared object. A raise is never kept, so its
    message names the dims of the call that raised.
    """
    props = frozenset(props)
    key = (props, rows == cols, cols == 1)
    closed = _CLOSED.get(key)
    if closed is not None:
        return closed
    out = set(props)
    pending = list(out)
    while pending:
        implied = IMPLICATIONS.get(pending.pop())
        if implied:
            new = implied - out
            out |= new
            pending.extend(new)

    if Property.VECTOR in out:
        if cols != 1:
            raise DimensionPropertyMismatchError(
                f"vector property requires a single column, got {rows}x{cols}"
            )
        clash = out & SQUARE_ONLY
        if clash:
            names = ", ".join(sorted(p.value for p in clash))
            raise InconsistentPropertiesError(
                f"vector excludes square-only properties: {names}"
            )
    else:
        if out & SQUARE_ONLY and rows != cols:
            names = ", ".join(sorted(p.value for p in out & SQUARE_ONLY))
            raise DimensionPropertyMismatchError(
                f"properties [{names}] require square dimensions, got {rows}x{cols}"
            )
        if rows == cols:
            out.add(Property.SQUARE)
    closed = _CLOSED[key] = _shared(frozenset(out))
    return closed


def transpose_props(props: frozenset[Property]) -> frozenset[Property]:
    """Property set of the transpose of an operand with closed ``props``.

    Triangularity flips orientation; symmetric, SPD, diagonal, identity,
    orthogonal, nonsingular and square are invariant. ``VECTOR`` is
    dropped: the transpose of a column vector is an ordinary 1 x n matrix.
    """
    out = set(props)
    lower = Property.LOWER_TRIANGULAR in out
    upper = Property.UPPER_TRIANGULAR in out
    out.discard(Property.LOWER_TRIANGULAR)
    out.discard(Property.UPPER_TRIANGULAR)
    if lower:
        out.add(Property.UPPER_TRIANGULAR)
    if upper:
        out.add(Property.LOWER_TRIANGULAR)
    out.discard(Property.VECTOR)
    return _shared(frozenset(out))


def inverse_props(props: frozenset[Property]) -> frozenset[Property]:
    """Property set of the inverse of a square operand with closed ``props``.

    Each structural class here is closed under inversion (the inverse of a
    lower-triangular matrix is lower triangular, of an SPD matrix SPD, and
    so on), so the set is preserved; since the inverse of any invertible
    matrix is itself invertible, ``NONSINGULAR`` is always added.
    """
    if Property.SQUARE not in props:
        raise NonSquareError("inverse requires a square operand")
    return _shared(frozenset(props | {Property.NONSINGULAR}))


def infer_properties(
    lprops: frozenset[Property],
    ldims: tuple[int, int],
    rprops: frozenset[Property],
    rdims: tuple[int, int],
) -> frozenset[Property]:
    """Closed property set of the product of two effective operands.

    Both inputs must already have their unary tags applied (props via
    ``transpose_props``/``inverse_props``, dims swapped for transposes).
    Structure propagates per class: triangularity of matching orientation,
    diagonality, orthogonality, and (for square factors) nonsingularity;
    an identity factor is neutral; a vector right factor yields a vector.
    Symmetry does not survive multiplication. A product that no rule
    covers has no structural property, like an undeclared operand.
    """
    if Property.IDENTITY in lprops:
        return rprops
    if Property.IDENTITY in rprops:
        return lprops

    out: set[Property] = set()
    if Property.VECTOR in rprops:
        out.add(Property.VECTOR)
    else:
        if Property.LOWER_TRIANGULAR in lprops and Property.LOWER_TRIANGULAR in rprops:
            out.add(Property.LOWER_TRIANGULAR)
        if Property.UPPER_TRIANGULAR in lprops and Property.UPPER_TRIANGULAR in rprops:
            out.add(Property.UPPER_TRIANGULAR)
        if Property.DIAGONAL in lprops and Property.DIAGONAL in rprops:
            out.add(Property.DIAGONAL)
        if Property.ORTHOGONAL in lprops and Property.ORTHOGONAL in rprops:
            out.add(Property.ORTHOGONAL)
        if (
            Property.NONSINGULAR in lprops
            and Property.NONSINGULAR in rprops
            and Property.SQUARE in lprops
            and Property.SQUARE in rprops
        ):
            out.add(Property.NONSINGULAR)
    return close(out, ldims[0], rdims[1])


#: Mapping used by the problem-file reader; SQUARE is derived, never declared.
PROPERTY_NAMES: dict[str, Property] = {
    p.value: p for p in Property if p is not Property.SQUARE
}
