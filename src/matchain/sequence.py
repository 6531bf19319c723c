"""Cheapest kernel sequence for one product of two tagged operands.

``find_sequence`` exhaustively searches call sequences of length at most
L = 3: either a single binary kernel that consumes both pending tags, or
up to two unary discharge kernels (transp, getri, trtri) followed by a
binary kernel. Unary preps for op1 precede those for op2. The result is
the minimum-cost sequence under the metric, with ties broken by sequence
length and then by the tuple of kernel ids.

The search has a structural step and a cost step. Which sequences apply
depends only on the key ``(op1.props, op1.tag, op2.props, op2.tag)``:
unary matching never looks at dimensions, and binary matching only checks
that the effective dims conform. So the candidates are enumerated once
per key and kept in a table, where an empty list records a gap in the
database. Every prep keeps its operand's effective dims (peeling a
pending transpose stores the transposed shape; an inverse is square) and
effective properties. So for op1 of effective shape m x k and op2 of
k x n, the cost step prices op1's preps at (m, k, k), op2's at (k, n, n)
and the binary kernel at (m, k, n), and every candidate yields the same
output properties, which depend only on the key and on whether m == n.

``copy`` never appears as a prep: it leaves its input unchanged, so any
sequence containing it is dominated by the same sequence without it
(cost no higher under any additive metric, and shorter).

Sequences carry kernels and targets only; operand names are bound later
by :func:`render_calls`, so memoized results are shared across operands
with equal signatures.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Sequence

from .errors import NoKernelApplicableError, UnsatisfiableError
from .expr import UnaryTag
from .kernels import (
    FLOPS,
    Kernel,
    KernelCall,
    TaggedOperand,
    call_mkn,
    default_db,
    match,
)

#: Maximum number of kernel calls per combination step.
L = 3

#: How a unary call's comment writes the tag component it peels.
_PEEL_MATH = {"t": "^T", "inv": "^-1"}


@dataclass(frozen=True, eq=False)
class SeqStep:
    """One call in a sequence: the kernel and which operand it applies to.

    ``target`` is ``"op1"`` or ``"op2"`` for unary discharge steps and
    ``"both"`` for the final binary kernel. Steps are made only by
    :func:`_step`, one per (kernel, target), so identity is equality.
    """

    kernel: Kernel
    target: str


#: Every step made so far, keyed by (id(kernel), target). A step holds its
#: kernel, so the id cannot be reused by another kernel while it is here.
_STEPS: dict[tuple[int, str], SeqStep] = {}

#: Every candidate made so far, ``steps -> (steps, kernel ids)``, shared by
#: the candidate lists of every structural table.
_CANDIDATES: dict[tuple[SeqStep, ...], tuple] = {}


def _step(kernel: Kernel, target: str) -> SeqStep:
    key = (id(kernel), target)
    step = _STEPS.get(key)
    if step is None:
        step = _STEPS[key] = SeqStep(kernel, target)
    return step


def _candidate(steps: tuple[SeqStep, ...]) -> tuple:
    """The shared ``(steps, kernel ids)`` pair for ``steps``."""
    cand = _CANDIDATES.get(steps)
    if cand is None:
        cand = _CANDIDATES[steps] = (steps, tuple(s.kernel.id for s in steps))
    return cand


@dataclass(frozen=True)
class SequenceResult:
    steps: tuple[SeqStep, ...]
    total_cost: float
    output: TaggedOperand

    @property
    def kernel_ids(self) -> tuple[str, ...]:
        return tuple(step.kernel.id for step in self.steps)


def _unary_chains(op: TaggedOperand, db, max_len: int, target: str, with_copy: bool):
    """Every chain of at most ``max_len`` unary kernels applicable to ``op``.

    Returns (steps, result) pairs in breadth-first order, starting with the
    empty chain; each step applies to ``target``. ``copy`` (no peel) is
    left out unless ``with_copy``.
    """
    frontier = out = [((), op)]
    for _ in range(max_len):
        frontier = [
            (steps + (_step(kernel, target),), kernel.apply_unary(cur, ""))
            for steps, cur in frontier
            for kernel, _ in match(cur, None, db)
            if with_copy or kernel.peel is not None
        ]
        out.extend(frontier)
    return out


def _candidates(op1: TaggedOperand, op2: TaggedOperand, db) -> list:
    """Structural step: (steps, kernel ids) of every sequence computing
    ``op1 * op2``, in search order."""
    chains2 = _unary_chains(op2, db, L - 1, "op2", False)
    out = []
    for pre1, cur1 in _unary_chains(op1, db, L - 1, "op1", False):
        for pre2, cur2 in chains2:
            if len(pre1) + len(pre2) < L:
                for kernel, _ in match(cur1, cur2, db):
                    out.append(_candidate(pre1 + pre2 + (_step(kernel, "both"),)))
    return out


def _cheapest(candidates, m: int, k: int, n: int, metric):
    """Cost step: steps and total of the cheapest candidate for op1 of
    effective shape m x k times op2 of k x n. Ties go to fewer steps, then
    to the smaller id tuple, then to the earlier candidate."""
    args = {
        "op1": ((m, k, k), (m, k)),
        "op2": ((k, n, n), (k, n)),
        "both": ((m, k, n), (m, n)),
    }
    best = None
    best_key = None
    for steps, ids in candidates:
        total = 0.0
        for step in steps:
            total += metric.call_cost(step.kernel, *args[step.target])
        cand_key = (total, len(steps), ids)
        if best_key is None or cand_key < best_key:
            best_key = cand_key
            best = steps
    return best, best_key[0]


def find_sequence(
    op1: TaggedOperand,
    op2: TaggedOperand,
    db: Sequence[Kernel] | None = None,
    metric=FLOPS,
    memo: dict | None = None,
    table: dict | None = None,
) -> SequenceResult:
    """Cheapest sequence of at most L calls computing ``op1 * op2``.

    ``memo`` maps signature pairs (dims included) to results; share one
    dict only across calls with the same db and metric. ``table`` maps
    structural keys to candidate lists, failures included; share one only
    across calls with the same db. Without it the structural step runs
    afresh. Raises :class:`NoKernelApplicableError` when the database has
    no route.
    """
    if db is None:
        db = default_db()
    (m, k), (k2, n) = op1.eff_dims, op2.eff_dims
    if k != k2:
        raise ValueError(
            f"nonconforming product: {op1.eff_dims} times {op2.eff_dims}"
        )
    key = (op1.signature(), op2.signature())
    if memo is not None:
        hit = memo.get(key)
        if hit is not None:
            return hit

    if table is None:
        table = {}
    skey = (op1.props, op1.tag, op2.props, op2.tag)
    entry = table.get(skey)
    if entry is None:
        entry = table[skey] = (_candidates(op1, op2, db), {})
    candidates, out_props = entry
    if not candidates:
        raise NoKernelApplicableError(
            f"no kernel sequence of length <= {L} computes "
            f"{_describe(op1)} * {_describe(op2)}"
        )
    steps, total = _cheapest(candidates, m, k, n, metric)
    square = m == n
    if square not in out_props:
        out_props[square] = steps[-1].kernel.apply_binary(op1, op2, "").props
    result = SequenceResult(steps, total, TaggedOperand(m, n, out_props[square]))
    if memo is not None:
        memo[key] = result
    return result


def materialize(
    op: TaggedOperand,
    db: Sequence[Kernel] | None = None,
    metric=FLOPS,
) -> SequenceResult:
    """Cheapest unary sequence that discharges ``op``'s tag completely.

    Used for single-factor chains, where the pending tag cannot be
    deferred into a combination. A tag-free operand still costs one
    ``copy`` call, since a plan must produce its target. Raises
    :class:`UnsatisfiableError` when no unary route reaches a plain
    operand.
    """
    if db is None:
        db = default_db()
    candidates = [
        _candidate(steps)
        for steps, cur in _unary_chains(op, db, L, "op1", True)
        if steps and cur.tag is UnaryTag.ID
    ]
    if not candidates:
        raise UnsatisfiableError(
            f"no unary kernel sequence materializes {_describe(op)}"
        )
    m, n = op.eff_dims
    steps, total = _cheapest(candidates, m, n, n, metric)
    return SequenceResult(steps, total, TaggedOperand(m, n, op.eff_props))


def render_calls(
    seq: SequenceResult,
    op1: TaggedOperand,
    op2: TaggedOperand | None,
    out_name: str,
    alloc_temp: Callable[[], str],
    metric=FLOPS,
) -> tuple[list[KernelCall], TaggedOperand]:
    """Bind operand names to a sequence, producing concrete calls.

    ``op1``/``op2`` are the named operands the sequence was found for;
    intermediate outputs draw names from ``alloc_temp`` (called with the
    step's input operand, or None for a binary step) and the final call
    writes ``out_name``. Returns the calls and the named final operand.
    """
    cur = {"op1": op1, "op2": op2}
    calls = []
    for at, step in enumerate(seq.steps):
        is_last = at == len(seq.steps) - 1
        kernel = step.kernel
        if step.target == "both":
            inputs = (cur["op1"], cur["op2"])
            name = out_name if is_last else alloc_temp(None)
            result = kernel.apply_binary(*inputs, name)
            math = f"{inputs[0].display} * {inputs[1].display}"
        else:
            inputs = (cur[step.target],)
            name = out_name if is_last else alloc_temp(inputs[0])
            result = cur[step.target] = kernel.apply_unary(inputs[0], name)
            math = inputs[0].name + _PEEL_MATH.get(kernel.peel, "")
        cost = metric.call_cost(kernel, call_mkn(inputs), (result.rows, result.cols))
        names = tuple(op.name for op in inputs)
        calls.append(KernelCall(kernel.id, names, name, cost, f"{name} := {math}"))
    return calls, result


def _describe(op: TaggedOperand) -> str:
    props = ",".join(sorted(p.value for p in op.props)) or "none"
    label = op.name or "operand"
    return f"{label}{op.tag.value} ({op.rows}x{op.cols}, props: {props})"
