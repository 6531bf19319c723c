"""Independent references for certifying the optimizer.

``best_pair_cost`` re-enumerates every kernel sequence for one product,
and ``brute_force_min`` finds the cheapest parenthesization with it:
for each run of factors it keeps, per output operand that some tree of
the run computes, the least cost of such a tree. That is exact over all
trees, because a product's cost and result depend only on its two
operands and the loop multiplicities, and it is polynomial in the factor
count, so it certifies a chain of any length. Both are deliberately
written from scratch against the kernel database and property engine
only, sharing no code with the DP solver or the sequence finder they
certify: no bound, no seed, no structural table and no pruning. They sum
the metric's int costs, in the database's units (see ``kernels.py``),
and ``brute_force_min`` reports its minimum as ``kernels.cost_value``
does.

``random_instance`` and ``structural_residual`` ground the symbolic
property claims numerically: an inferred property is sound when a random
instance of the inputs yields a product whose off-pattern entries vanish.
They are the only numpy users in the package and import it when called,
so importing matchain (or running its CLI) does not load numpy.
"""

from __future__ import annotations

from math import inf
from collections.abc import Sequence

from .errors import NoKernelApplicableError
from .expr import Chain, UnaryTag
from .kernels import (
    FLOPS,
    Kernel,
    TaggedOperand,
    call_mkn,
    cost_value,
    default_db,
    match,
    unit_of,
)
from .properties import Property, infer_properties

_SEQ_LEN = 3


def _unary_chains(op: TaggedOperand, db, metric, budget: int, with_copy: bool):
    """Every way to apply at most ``budget`` unary kernels to ``op``, as
    (cost, length, result) triples; ``copy`` (no peel) only ``with_copy``."""
    yield 0, 0, op
    if budget == 0:
        return
    for kernel in match(op, None, db):
        if kernel.peel is None and not with_copy:
            continue
        out = kernel.apply_unary(op)
        cost = metric.call_cost(kernel, call_mkn((op,)))
        for tail_cost, tail_len, tail_op in _unary_chains(
            out, db, metric, budget - 1, with_copy
        ):
            yield cost + tail_cost, 1 + tail_len, tail_op


def best_pair_cost(
    op1: TaggedOperand,
    op2: TaggedOperand,
    db: Sequence[Kernel] | None = None,
    metric=FLOPS,
    mults: tuple[int, int, int] = (1, 1, 1),
) -> int | float:
    """Minimum cost over all kernel sequences of length <= 3 for op1 * op2,
    in the database's units.

    ``mults`` holds how many times the unary calls on op1, those on op2 and
    the binary call run: ``(r1, r2, r)``, each paid that many times.
    Returns ``inf`` when no sequence exists.
    """
    r1, r2, r = mults
    if db is None:
        db = default_db()
    best = inf
    for cost1, len1, cur1 in _unary_chains(op1, db, metric, _SEQ_LEN - 1, False):
        for cost2, _, cur2 in _unary_chains(
            op2, db, metric, _SEQ_LEN - 1 - len1, False
        ):
            for kernel in match(cur1, cur2, db):
                call = metric.call_cost(kernel, call_mkn((cur1, cur2)))
                total = cost1 * r1 + cost2 * r2 + call * r
                if total < best:
                    best = total
    return best


def brute_force_min(
    chain: Chain,
    db: Sequence[Kernel] | None = None,
    metric=FLOPS,
) -> tuple[float | int, object]:
    """Global minimum cost over all parenthesizations and kernel sequences.

    Returns the cost, as ``kernels.cost_value`` reports it, and the first
    tree attaining it (enumeration order: split index ascending, then
    the left part's order, then the right part's). Takes a chain of any
    length; raises :class:`NoKernelApplicableError` when no tree is
    computable at all.
    """
    if db is None:
        db = default_db()
    units, tree = _min_units(chain, db, metric)
    return cost_value(units, unit_of(db)), tree


def _min_units(chain: Chain, db: Sequence[Kernel], metric) -> tuple[int, object]:
    """``brute_force_min``'s minimum, exact, in ``db``'s units, and its
    tree."""
    factors = chain.factors
    n = len(factors)

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

    # For each run i..j of factors, a map from every operand that some tree
    # of the run computes to (least cost, rank, first tree of that cost).
    # A tree's rank is its place in the enumeration order: the trees that
    # split at k come after those that split earlier, and among them the
    # left part's rank counts before the right part's. ``trees[m]`` counts
    # the trees over m + 1 factors. A combination runs its binary call once
    # per value of the indices of its whole run, and each operand's unary
    # calls once per value of the indices of that operand's run.
    trees = [1]
    for m in range(1, n):
        trees.append(sum(trees[a] * trees[m - 1 - a] for a in range(m)))
    maps = {(i, i): {leaf(i): (0, 0, i)} for i in range(n)}
    for length in range(1, n):
        for i in range(n - length):
            j = i + length
            found: dict = {}
            first = 0  # the rank of the first tree that splits at k
            for k in range(i, j):
                mults = (seg_range(i, k), seg_range(k + 1, j), seg_range(i, j))
                right_trees = trees[j - k - 1]
                for lop, (lcost, lrank, ltree) in maps[i, k].items():
                    for rop, (rcost, rrank, rtree) in maps[k + 1, j].items():
                        step = pair_cost(lop, rop, mults)
                        if step == inf:
                            continue
                        ldims, rdims = lop.eff_dims, rop.eff_dims
                        props = infer_properties(lop.eff_props, ldims, rop.eff_props, rdims)
                        out = TaggedOperand(ldims[0], rdims[1], props, UnaryTag.ID)
                        entry = (
                            lcost + rcost + step,
                            first + lrank * right_trees + rrank,
                            (ltree, rtree),
                        )
                        if out not in found or entry[:2] < found[out][:2]:
                            found[out] = entry
                first += trees[k - i] * right_trees
            maps[i, j] = found
    if not maps[0, n - 1]:
        raise NoKernelApplicableError("no parenthesization is computable")
    cost, _, tree = min(maps[0, n - 1].values(), key=lambda entry: entry[:2])
    return cost, tree


# --------------------------------------------------------------------------
# Numeric grounding of symbolic properties

def random_instance(
    props: frozenset[Property], rows: int, cols: int, rng: np.random.Generator
) -> np.ndarray:
    """A random dense matrix actually having the claimed properties."""
    import numpy as np

    a = rng.uniform(-1.0, 1.0, size=(rows, cols))
    if Property.IDENTITY in props:
        return np.eye(rows)
    if Property.SPD in props:
        if Property.DIAGONAL in props:
            return np.diag(rng.uniform(1.0, 2.0, size=rows))
        g = rng.uniform(-1.0, 1.0, size=(rows, rows))
        return g.T @ g + rows * np.eye(rows)
    if Property.ORTHOGONAL in props:
        if Property.DIAGONAL in props:
            return np.diag(rng.choice([-1.0, 1.0], size=rows))
        q, _ = np.linalg.qr(rng.uniform(-1.0, 1.0, size=(rows, rows)))
        return q
    if Property.DIAGONAL in props:
        d = np.zeros((rows, cols))
        for at in range(min(rows, cols)):
            d[at, at] = a[at, at]
        if Property.NONSINGULAR in props:
            for at in range(min(rows, cols)):
                d[at, at] += np.sign(d[at, at]) or 1.0
        return d
    if Property.LOWER_TRIANGULAR in props:
        a = np.tril(a)
    elif Property.UPPER_TRIANGULAR in props:
        a = np.triu(a)
    if Property.SYMMETRIC in props:
        a = (a + a.T) / 2.0
    if Property.NONSINGULAR in props and rows == cols:
        a = a + rows * np.eye(rows)
    return a


def structural_residual(m: np.ndarray, props: frozenset[Property]) -> float:
    """Largest relative off-pattern magnitude of ``m`` for ``props``.

    Zero means the matrix conforms exactly; the denominator is the
    largest magnitude in the matrix (or 1 for a zero matrix).
    """
    import numpy as np

    scale = float(np.max(np.abs(m))) or 1.0
    worst = 0.0

    def check(residual: float):
        nonlocal worst
        worst = max(worst, residual / scale)

    rows, cols = m.shape
    if Property.DIAGONAL in props:
        off = m - np.diag(np.diag(m)) if rows == cols else m - _rect_diag(m)
        check(float(np.max(np.abs(off))))
    else:
        if Property.LOWER_TRIANGULAR in props:
            check(float(np.max(np.abs(m - np.tril(m)))))
        if Property.UPPER_TRIANGULAR in props:
            check(float(np.max(np.abs(m - np.triu(m)))))
    if Property.SYMMETRIC in props:
        check(float(np.max(np.abs(m - m.T))))
    if Property.IDENTITY in props:
        check(float(np.max(np.abs(m - np.eye(rows)))))
    if Property.ORTHOGONAL in props:
        check(float(np.max(np.abs(m.T @ m - np.eye(cols)))))
    if Property.VECTOR in props and cols != 1:
        raise ValueError("vector instance must have one column")
    return worst


def _rect_diag(m: np.ndarray) -> np.ndarray:
    import numpy as np

    out = np.zeros_like(m)
    for at in range(min(m.shape)):
        out[at, at] = m[at, at]
    return out
