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
and the binary kernel at (m, k, n). Every route yields one result,
``kernels.product``, whose properties ``_output`` keeps in the table per
key and squareness. ``find_sequence`` is the two steps, ``_entry`` and
``_cheapest``, then ``_output``; the DP fill prices with the two steps
alone (a lone one-call route without the cost step) and asks ``_output``
for a winner's operand.

A key's entry keeps only the undominated candidates. Candidate A is
dominated by candidate B when both end in the same binary kernel and B's
preps are a proper subsequence of A's. Dropping A never changes the
result, under any metric, dims and multiplicities:

- each call is priced at its target's fixed (m, k, n), so A's total sums
  B's terms in the same order with further terms between them. Every
  term is non-negative, and float addition is monotone, so A's total is
  never below B's; A has more steps, so it also loses a tie;
- every call of B is a call of A at the same (m, k, n), so when one of
  B's costs leaves the float range, one of A's does too: A is never
  kept where B is skipped;
- candidates come in breadth-first order of op1's preps, then of op2's.
  B's preps are no longer than A's on either operand and shorter on
  one, so B precedes A. The first candidate is never dropped, and when
  every candidate overflows, the first one's error is unchanged.

``copy`` never appears as a prep. That is the rule's special case,
applied at enumeration: ``copy`` leaves its input unchanged, so a
candidate with it is dominated by the same candidate without it.
``_candidates`` lists every candidate, and the oracle enumerates its
own, so both still check the pruned entries.

Each database has one structural table (``_structural_table``), kept
across calls while the database is unchanged. It also holds the two
parts of the structural step, so a new key only joins lists made before:
each operand's discharge chains, once per ``(props, tag, target)``, and
the binary kernels accepting two end states, once per
``((props, tag), (props, tag))``. Those are matched on structure alone:
the caller checks that the dims conform, and preps keep effective dims,
so a cached end state may carry the dims of whichever operand first
reached it.

A candidate, like a result's route, is a tuple of :class:`SeqStep`
values: kernels and targets only. The solver binds operand names when it
renders the plan, so one result serves every operand pair with equal
signatures.
"""

from __future__ import annotations

from math import inf
from collections.abc import Sequence
from typing import NamedTuple

from .errors import CostOverflowError, NoKernelApplicableError, UnsatisfiableError
from .expr import UnaryTag
from .kernels import FLOPS, Kernel, TaggedOperand, default_db, match, product

#: Maximum number of kernel calls per combination step.
L = 3


class SeqStep(NamedTuple):
    """One call in a sequence: the kernel and which operand it applies to.

    ``target`` is ``"op1"`` or ``"op2"`` for unary discharge steps and
    ``"both"`` for the final binary kernel. A route is a tuple of steps.
    """

    kernel: Kernel
    target: str


class SequenceResult(NamedTuple):
    steps: tuple[SeqStep, ...]
    total_cost: float
    output: TaggedOperand

    @property
    def kernel_ids(self) -> tuple[str, ...]:
        return _kernel_ids(self.steps)


def _kernel_ids(steps: tuple[SeqStep, ...]) -> tuple[str, ...]:
    return tuple(step.kernel.id for step in steps)


def _unary_chains(op: TaggedOperand, db, max_len: int, target: str, with_copy: bool):
    """Every chain of at most ``max_len`` unary kernels applicable to ``op``.

    Returns (steps, result) pairs in breadth-first order, starting with the
    empty chain; every step applies to ``target``. ``copy`` (no peel) is
    left out unless ``with_copy``.
    """
    frontier = out = [((), op)]
    for _ in range(max_len):
        frontier = [
            (steps + (SeqStep(kernel, target),), kernel.apply_unary(cur, ""))
            for steps, cur in frontier
            for kernel in match(cur, None, db)
            if with_copy or kernel.peel is not None
        ]
        out.extend(frontier)
    return out


def _preps(op: TaggedOperand, db, target: str, table: dict) -> list:
    """``op``'s discharge chains as preps for ``target``, enumerated once
    per ``(props, tag, target)`` key of ``table``."""
    key = (op.props, op.tag, target)
    chains = table.get(key)
    if chains is None:
        chains = table[key] = _unary_chains(op, db, L - 1, target, False)
    return chains


def _binary(cur1: TaggedOperand, cur2: TaggedOperand, db, table: dict) -> list:
    """The binary kernels accepting the end states ``cur1`` and ``cur2``,
    in database order, matched once per ``((props, tag), (props, tag))``
    key of ``table``. Structure only: ``find_sequence`` checks that the
    dims conform, and preps keep effective dims."""
    key = ((cur1.props, cur1.tag), (cur2.props, cur2.tag))
    kernels = table.get(key)
    if kernels is None:
        pair = (cur1, cur2)
        kernels = table[key] = [kernel for kernel in db if kernel.accepts(pair)]
    return kernels


def _candidates(op1: TaggedOperand, op2: TaggedOperand, db, table: dict) -> list:
    """Structural step: the steps of every sequence computing ``op1 * op2``,
    in search order."""
    chains2 = _preps(op2, db, "op2", table)
    out = []
    for pre1, cur1 in _preps(op1, db, "op1", table):
        for pre2, cur2 in chains2:
            if len(pre1) + len(pre2) < L:
                for kernel in _binary(cur1, cur2, db, table):
                    out.append(pre1 + pre2 + (SeqStep(kernel, "both"),))
    return out


def _as_float(r: int) -> float:
    """A multiplicity as a float, ``inf`` beyond the float range (which a
    product of index ranges can reach, and ``float * int`` would raise on)."""
    try:
        return float(r)
    except OverflowError:
        return inf


def _charged(cost: float, r: int) -> float:
    """``cost`` charged ``r`` times. A 0 cost stays 0 at any multiplicity,
    where ``0.0 * inf`` would be nan."""
    return cost * _as_float(r) if cost else 0.0


def _cheapest(candidates, m: int, k: int, n: int, metric, mults=None):
    """Cost step: steps and total of the cheapest candidate for op1 of
    effective shape m x k times op2 of k x n. With ``mults``, an
    ``(r1, r2, r)`` triple, op1's preps are charged ``r1`` times, op2's
    ``r2`` times and the binary call ``r`` times (a 0 cost stays 0), and the
    total is the charged one; when the three are equal, the cheapest
    candidate is the cheapest uncharged one, and its total is charged ``r``
    times as a whole. Ties go to fewer steps, then to the smaller id tuple,
    then to the earlier candidate. A candidate with a call whose cost leaves
    the float range is skipped; when every one has such a call, the first
    candidate's :class:`CostOverflowError` is raised."""
    args = {"op1": (m, k, k), "op2": (k, n, n), "both": (m, k, n)}
    r1, r2, r = mults or (1, 1, 1)
    scales = None
    if not r1 == r2 == r:
        scales = dict(zip(args, map(_as_float, mults)))
    call_cost = metric.call_cost
    best = best_key = overflow = None
    for steps in candidates:
        total = 0.0
        try:
            if scales is None:
                for kernel, target in steps:
                    total += call_cost(kernel, args[target])
            else:
                for kernel, target in steps:
                    cost = call_cost(kernel, args[target])
                    total += cost * scales[target] if cost else 0.0
        except CostOverflowError as exc:
            overflow = overflow or exc
            continue
        # The id tuples are built only to break a tie.
        cand_key = (total, len(steps))
        if best_key is None or cand_key < best_key or (
            cand_key == best_key and _kernel_ids(steps) < _kernel_ids(best)
        ):
            best_key = cand_key
            best = steps
    if best is None:
        raise overflow
    if scales is not None or r == 1:  # charged already, or run once
        return best, best_key[0]
    return best, _charged(best_key[0], r)


def _dominates(b: tuple, a: tuple) -> bool:
    """Whether candidate ``b`` dominates candidate ``a``: both end in the
    same binary call, and ``b``'s preps are a proper subsequence of
    ``a``'s."""
    *pre_b, last_b = b
    *pre_a, last_a = a
    if last_b.kernel is not last_a.kernel or len(pre_b) >= len(pre_a):
        return False
    rest = iter(pre_a)
    return all(
        any(p.kernel is q.kernel and p.target == q.target for q in rest) for p in pre_b
    )


def _entry(op1: TaggedOperand, op2: TaggedOperand, db, table: dict) -> tuple:
    """Structural step: ``table``'s entry ``(candidates, lone)`` for
    ``op1 * op2``, made on first use. ``candidates`` are the undominated
    ones (see the module docstring), in search order. ``lone`` is the
    binary kernel when the one candidate left is that single call, else
    None: such a pair costs the call at (m, k, n) charged r times, under
    any multiplicities, and the fill prices it so without
    :func:`_cheapest`."""
    skey = (op1.props, op1.tag, op2.props, op2.tag)
    entry = table.get(skey)
    if entry is None:
        # A dominator precedes what it dominates, and dominance is
        # transitive, so the candidates kept so far are enough to test.
        candidates = []
        for a in _candidates(op1, op2, db, table):
            if not any(_dominates(b, a) for b in candidates):
                candidates.append(a)
        lone = None
        if len(candidates) == 1 and len(candidates[0]) == 1:
            lone = candidates[0][0].kernel
        entry = table[skey] = (candidates, lone)
    return entry


def _output(op1, op2, m: int, n: int, table: dict) -> TaggedOperand:
    """The m x n operand ``op1 * op2`` computes, whichever route computes
    it. Its properties depend only on the operands' properties and tags and
    on whether it is square, so ``table`` keeps them once per such key."""
    key = (op1.props, op1.tag, op2.props, op2.tag, m == n)
    props = table.get(key)
    if props is None:
        props = table[key] = product(op1, op2).props
    return TaggedOperand(m, n, props)


#: The structural table of the most recent database: (its kernels, table).
_structural: tuple[tuple[Kernel, ...] | None, dict] = (None, {})


def _structural_table(db: Sequence[Kernel]) -> dict:
    """The structural table for ``db``, kept while the database is unchanged.

    Candidates depend only on the kernels, so one table serves every call
    on an equal database. The built-in kernels are shared objects, so the
    comparison of two default databases is one identity test per kernel.
    Any other database gets a fresh table.
    """
    global _structural
    kernels = tuple(db)
    if kernels != _structural[0]:
        _structural = (kernels, {})
    return _structural[1]


def find_sequence(
    op1: TaggedOperand,
    op2: TaggedOperand,
    db: Sequence[Kernel] | None = None,
    metric=FLOPS,
    *,
    mults: tuple[int, int, int] | None = None,
) -> SequenceResult:
    """Cheapest sequence of at most L calls computing ``op1 * op2``.

    The structural step uses ``db``'s structural table (see
    ``_structural_table``), so a key met by an earlier call on an equal
    database is not enumerated again. ``mults`` gives the multiplicities
    ``(r1, r2, r)`` at which op1's preps, op2's preps and the binary call
    run; then the search minimizes, and ``total_cost`` is, the charged
    cost (see ``_cheapest``). Raises :class:`NoKernelApplicableError` when
    the database has no route, and :class:`CostOverflowError` when every
    route has a call whose cost leaves the float range.
    """
    if db is None:
        db = default_db()
    (m, k), (k2, n) = op1.eff_dims, op2.eff_dims
    if k != k2:
        raise ValueError(
            f"nonconforming product: {op1.eff_dims} times {op2.eff_dims}"
        )
    table = _structural_table(db)
    candidates, _ = _entry(op1, op2, db, table)
    if not candidates:
        raise NoKernelApplicableError(
            f"no kernel sequence of length <= {L} computes "
            f"{_describe(op1)} * {_describe(op2)}"
        )
    steps, total = _cheapest(candidates, m, k, n, metric, mults)
    return SequenceResult(steps, total, _output(op1, op2, m, n, table))


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
        steps
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


def _describe(op: TaggedOperand) -> str:
    props = ",".join(sorted(p.value for p in op.props)) or "none"
    label = op.name or "operand"
    return f"{label}{op.tag.value} ({op.rows}x{op.cols}, props: {props})"
