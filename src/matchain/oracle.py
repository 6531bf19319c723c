"""Brute-force references for certifying the optimizer on small inputs.

``best_pair_cost`` re-enumerates every kernel sequence for one product,
and ``brute_force_min`` evaluates every parenthesization tree with it.
Both are deliberately written from scratch against the kernel database
and property engine only, sharing no code with the DP solver or the
sequence finder they certify. Exponential in the factor count; capped at
``MAX_FACTORS``.

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
    default_db,
    match,
)
from .properties import Property, infer_properties

#: Parenthesization trees grow as Catalan numbers; 8 factors is 429 trees.
MAX_FACTORS = 8

_SEQ_LEN = 3


def _discharge_chains(op: TaggedOperand, db, metric, budget: int):
    """Every way to apply at most ``budget`` unary kernels to ``op``."""
    results = [(0.0, 0, (), op)]
    if budget == 0:
        return results
    for kernel, _ in match(op, None, db):
        if kernel.peel is None:
            continue
        out = kernel.apply_unary(op, "")
        cost = metric.call_cost(kernel, call_mkn((op,)), (out.rows, out.cols))
        for tail_cost, tail_len, tail_ids, tail_op in _discharge_chains(
            out, db, metric, budget - 1
        ):
            results.append(
                (cost + tail_cost, 1 + tail_len, (kernel.id,) + tail_ids, tail_op)
            )
    return results


def best_pair_cost(
    op1: TaggedOperand,
    op2: TaggedOperand,
    db: Sequence[Kernel] | None = None,
    metric=FLOPS,
) -> float:
    """Minimum cost over all kernel sequences of length <= 3 for op1 * op2.

    Returns ``inf`` when no sequence exists.
    """
    if db is None:
        db = default_db()
    best = inf
    for cost1, len1, _, cur1 in _discharge_chains(op1, db, metric, _SEQ_LEN - 1):
        for cost2, len2, _, cur2 in _discharge_chains(
            op2, db, metric, _SEQ_LEN - 1 - len1
        ):
            for kernel, _ in match(cur1, cur2, db):
                out = kernel.apply_binary(cur1, cur2, "")
                total = cost1 + cost2 + metric.call_cost(
                    kernel, call_mkn((cur1, cur2)), (out.rows, out.cols)
                )
                if total < best:
                    best = total
    return best


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


def brute_force_min(
    chain: Chain,
    db: Sequence[Kernel] | None = None,
    metric=FLOPS,
) -> tuple[float, object]:
    """Global minimum cost over all parenthesizations and kernel sequences.

    Returns the cost and the first tree attaining it (enumeration order:
    split index ascending, recursively). Raises ``ValueError`` beyond
    ``MAX_FACTORS`` factors and :class:`NoKernelApplicableError` when no
    tree is computable at all.
    """
    if db is None:
        db = default_db()
    factors = chain.factors
    n = len(factors)
    if n > MAX_FACTORS:
        raise ValueError(f"oracle is limited to {MAX_FACTORS} factors, got {n}")

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

    def pair_cost(a: TaggedOperand, b: TaggedOperand) -> float:
        key = (a.signature(), b.signature())
        if key not in pair_memo:
            pair_memo[key] = best_pair_cost(a, b, db, metric)
        return pair_memo[key]

    def leaf(i: int) -> TaggedOperand:
        op = factors[i].operand
        return TaggedOperand(op.rows, op.cols, op.properties, factors[i].tag)

    def evaluate(tree) -> tuple[float, TaggedOperand]:
        if isinstance(tree, int):
            return 0.0, leaf(tree)
        lcost, lop = evaluate(tree[0])
        rcost, rop = evaluate(tree[1])
        if lcost == inf or rcost == inf:
            return inf, None
        step = pair_cost(lop, rop)
        if step == inf:
            return inf, None
        i, j = _span(tree)
        ldims, rdims = lop.eff_dims, rop.eff_dims
        props = infer_properties(lop.eff_props, ldims, rop.eff_props, rdims)
        out = TaggedOperand(ldims[0], rdims[1], props, UnaryTag.ID)
        return lcost + rcost + step * seg_range(i, j), out

    if n == 1:
        # Exhaustive unary search (copy included, unlike discharge chains):
        # the cheapest chain of 1..3 calls ending tag-free.
        def unary_chains(op: TaggedOperand, budget: int):
            yield 0.0, 0, op
            if budget == 0:
                return
            for kernel, _ in match(op, None, db):
                out = kernel.apply_unary(op, "")
                cost = metric.call_cost(kernel, call_mkn((op,)), (out.rows, out.cols))
                for tail_cost, tail_len, tail_op in unary_chains(out, budget - 1):
                    yield cost + tail_cost, 1 + tail_len, tail_op

        best = inf
        op = leaf(0)
        for cost, length, cur in unary_chains(op, _SEQ_LEN):
            if length >= 1 and cur.tag is UnaryTag.ID and cost < best:
                best = cost
        if best == inf:
            raise NoKernelApplicableError(f"no unary sequence materializes {op}")
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
