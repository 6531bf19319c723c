"""Cheapest kernel sequence for one product of two tagged operands.

``find_sequence`` exhaustively searches call sequences of length at most
L = 3: either a single binary kernel that consumes both pending tags, or
up to two unary discharge kernels (transp, getri, trtri) followed by a
binary kernel. Unary preps for op1 precede those for op2. The result is
the minimum-cost sequence under the metric, with ties broken by sequence
length and then by the tuple of kernel ids.

The search has a structural step and a cost step. Which sequences apply
depends only on the operands' structures, ``(props, tag)`` each: unary
matching never looks at dimensions, and binary matching only checks that
the effective dims conform. So the table numbers each distinct structure
with a small int (``_sid``), and enumerates the candidates once per pair
of structure ids ``(sa, sb)``; an empty list records a gap in the
database. Every prep keeps its operand's effective dims (peeling a
pending transpose stores the transposed shape; an inverse is square) and
effective properties. So for op1 of effective shape m x k and op2 of
k x n, the cost step prices op1's preps at (m, k, k), op2's at (k, n, n)
and the binary kernel at (m, k, n). Every route yields one result,
``kernels.product``, whose structure id and properties ``_output`` keeps
per ``(sa, sb, square)``. ``find_sequence`` is the two steps, ``_entry``
and ``_cheapest``, then ``_output``. The DP fill reads the same entries
by the structure ids it keeps per operand, so dims reach only its cost
step (a lone one-call route is that call's cost, without ``_cheapest``).

A key's entry keeps only the undominated candidates. Candidate A is
dominated by candidate B when both end in the same binary kernel and B's
preps are a proper subsequence of A's. Dropping A never changes the
result, under any metric, dims and multiplicities:

- each call is priced at its target's fixed (m, k, n), so A's total is
  B's plus further terms. Every term is a non-negative int, and integer
  addition is exact, so A's total is never below B's; A has more steps,
  so it also loses a tie;
- candidates come in breadth-first order of op1's preps, then of op2's.
  B's preps are no longer than A's on either operand and shorter on
  one, so B precedes A, and the first candidate is never dropped.

``copy`` never appears as a prep. That is the rule's special case,
applied at enumeration: ``copy`` leaves its input unchanged, so a
candidate with it is dominated by the same candidate without it.
``_candidates`` lists every candidate, and the oracle enumerates its
own, so both still check the pruned entries.

Each database has one structural table (``_structural_table``), kept
across calls while the database is unchanged, so its structure ids last
across solves and never reach another database's table. Its keys are:

- ``(props, tag)``: the structure's id, ``_sid``;
- ``(props, tag, target)``: the operand's discharge chains for
  ``"op1"`` or ``"op2"``, ``_preps``;
- ``((props, tag), (props, tag))``: the binary kernels accepting two end
  states, ``_binary``;
- ``(sa, sb)``: a pair's entry, ``_entry``;
- ``(sa, sb, square)``: the product's structure id and properties,
  ``_output``;
- ``(sid, "ends")``: the binary kernels that can end a route from the
  structure as op1 and as op2, ``_ends``, which the solver's floor reads;
- ``"patterns"``: each side's patterns of the binary kernels, ``_ends``.

So a new pair only joins lists made before. The chains and kernels are
matched on structure alone: the caller checks that the dims conform, and
preps keep effective dims, so a cached end state may carry the dims of
whichever operand first reached it.

The same chains plan a single-factor chain (``materialize``): the
cheapest that ends tag-free, or one ``copy`` for a tag-free operand.
That is exact. Every unary kernel is a copy (``tags=id`` alone) or a
peel (tags from t, inv and invt), so a copy applies only once the tag is
gone, and at most two peels remove it; dropping a route's copies leaves
a shorter route that costs no more, in the same breadth-first order.

A candidate, like a result's route, is a tuple of :class:`SeqStep`
values: kernels and targets only, and an operand is structure only. The
solver names operands when it renders the plan, so one result serves
every operand pair of equal structure.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from .errors import NoKernelApplicableError
from .expr import UnaryTag
from .kernels import FLOPS, Kernel, TaggedOperand, default_db, match, product, unit_of

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
    """A cheapest route, its cost in the database's units (see
    ``kernels.py``) and the operand it computes."""

    steps: tuple[SeqStep, ...]
    total_cost: int
    output: TaggedOperand

    @property
    def kernel_ids(self) -> tuple[str, ...]:
        return _kernel_ids(self.steps)


def _kernel_ids(steps: tuple[SeqStep, ...]) -> tuple[str, ...]:
    return tuple(step.kernel.id for step in steps)


def _preps(op: TaggedOperand, db, target: str, table: dict) -> list:
    """``op``'s discharge chains as preps for ``target``: every chain of at
    most L - 1 peeling kernels, as (steps, result) pairs in breadth-first
    order, starting with the empty chain. Enumerated once per
    ``(props, tag, target)`` key of ``table``."""
    key = (op.props, op.tag, target)
    chains = table.get(key)
    if chains is None:
        frontier = chains = table[key] = [((), op)]
        for _ in range(L - 1):
            frontier = [
                (steps + (SeqStep(kernel, target),), kernel.apply_unary(cur))
                for steps, cur in frontier
                for kernel in match(cur, None, db)
                if kernel.peel is not None
            ]
            chains.extend(frontier)
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


def _cheapest(candidates, m: int, k: int, n: int, metric, mults: tuple[int, int, int]):
    """Cost step: steps and total of the cheapest of the (non-empty)
    ``candidates`` for op1 of effective shape m x k times op2 of k x n.
    ``mults``, an ``(r1, r2, r)`` triple, charges op1's preps ``r1``
    times, op2's ``r2`` times and the binary call ``r`` times, and the
    total is the charged one. Ties go to fewer steps, then to the smaller
    id tuple, then to the earlier candidate."""
    r1, r2, r = mults
    args = {"op1": ((m, k, k), r1), "op2": ((k, n, n), r2), "both": ((m, k, n), r)}
    kernel_cost = metric.kernel_cost
    best = best_key = None
    for steps in candidates:
        total = 0
        for kernel, target in steps:
            mkn, times = args[target]
            total += kernel_cost(kernel)(*mkn) * times
        # The id tuples are built only to break a tie.
        cand_key = (total, len(steps))
        if best_key is None or cand_key < best_key or (
            cand_key == best_key and _kernel_ids(steps) < _kernel_ids(best)
        ):
            best_key = cand_key
            best = steps
    return best, best_key[0]


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


def _sid(props, tag, table: dict) -> int:
    """The structure id of ``(props, tag)`` in ``table``: the table's size
    when first met, so no two structures share one."""
    key = (props, tag)
    sid = table.get(key)
    if sid is None:
        sid = table[key] = len(table)
    return sid


def _entry(op1: TaggedOperand, op2: TaggedOperand, db, table: dict) -> tuple:
    """Structural step: ``table``'s entry ``(candidates, lone)`` for
    ``op1 * op2``, made on first use and kept by the operands' structure
    ids ``(sa, sb)``. ``candidates`` are the undominated ones (see the
    module docstring), in search order. ``lone`` is the binary kernel when
    the one candidate left is that single call, else None: such a pair
    costs the call at (m, k, n) charged r times, under any
    multiplicities, and the fill prices it so without :func:`_cheapest`."""
    skey = (_sid(op1.props, op1.tag, table), _sid(op2.props, op2.tag, table))
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


def _ends(sid: int, op: TaggedOperand, db, table: dict) -> tuple[int, int]:
    """The binary kernels that can end a route with ``op``, of structure
    ``sid``, as op1, and those with it as op2: two sets of ``db``'s
    positions, as int bitmasks. Position p is in a side's set when
    ``db[p]``'s pattern for that side accepts an end state of ``op``'s
    discharge chains for it. ``table`` keeps them by ``(sid, "ends")``, so
    a structure is matched once per database, and keeps each side's
    ``(bit, pattern)`` pairs of the binary kernels under ``"patterns"``,
    listed once per database."""
    ends = table.get((sid, "ends"))
    if ends is None:
        patterns = table.get("patterns")
        if patterns is None:
            patterns = table["patterns"] = [
                [(1 << at, variant[side]) for at, kernel in enumerate(db)
                 if kernel.arity == 2 for variant in kernel.variants]
                for side in (0, 1)
            ]
        masks = []
        for side, target in enumerate(("op1", "op2")):
            mask = 0
            for _, cur in _preps(op, db, target, table):
                for bit, pattern in patterns[side]:
                    if pattern.matches(cur):
                        mask |= bit
            masks.append(mask)
        ends = table[sid, "ends"] = tuple(masks)
    return ends


def _output(op1, op2, square: bool, table: dict) -> tuple[int, frozenset]:
    """The structure id and properties of the product ``op1 * op2``,
    whichever route computes it. They depend only on the operands'
    structures and on whether the product is ``square``, so ``table``
    keeps them once per ``(sa, sb, square)`` key."""
    sa, sb = _sid(op1.props, op1.tag, table), _sid(op2.props, op2.tag, table)
    out = table.get((sa, sb, square))
    if out is None:
        props = product(op1, op2).props
        out = table[sa, sb, square] = (_sid(props, UnaryTag.ID, table), props)
    return out


#: The structural table of the most recent database: (its kernels, table).
_structural: tuple[tuple[Kernel, ...] | None, dict] = (None, {})


def _structural_table(db: Sequence[Kernel]) -> dict:
    """The structural table for ``db``, kept while the database is unchanged.

    Candidates depend only on the kernels, so one table serves every call
    on an equal database. The built-in kernels are shared objects, so the
    comparison of two default databases is one identity test per kernel.
    Any other database gets a fresh table, once ``unit_of`` accepts it.
    """
    global _structural
    kernels = tuple(db)
    if kernels != _structural[0]:
        unit_of(kernels)
        _structural = (kernels, {})
    return _structural[1]


def find_sequence(
    op1: TaggedOperand,
    op2: TaggedOperand,
    db: Sequence[Kernel] | None = None,
    metric=FLOPS,
    *,
    mults: tuple[int, int, int] = (1, 1, 1),
) -> SequenceResult:
    """Cheapest sequence of at most L calls computing ``op1 * op2``.

    The structural step uses ``db``'s structural table (see
    ``_structural_table``), so a key met by an earlier call on an equal
    database is not enumerated again. ``mults`` gives the multiplicities
    ``(r1, r2, r)`` at which op1's preps, op2's preps and the binary call
    run; then the search minimizes, and ``total_cost`` is, the charged
    cost (see ``_cheapest``). Raises :class:`NoKernelApplicableError` when
    the database has no route.
    """
    if db is None:
        db = default_db()
    (m, k), (k2, n) = op1.eff_dims, op2.eff_dims
    if k != k2:
        raise ValueError(
            f"nonconforming product: {op1.eff_dims} times {op2.eff_dims}"
        )
    table = _structural_table(db)
    sa, sb = _sid(op1.props, op1.tag, table), _sid(op2.props, op2.tag, table)
    candidates, _ = table.get((sa, sb)) or _entry(op1, op2, db, table)
    if not candidates:
        raise NoKernelApplicableError(
            f"no kernel sequence of length <= {L} computes "
            f"{_describe(op1)} * {_describe(op2)}"
        )
    steps, total = _cheapest(candidates, m, k, n, metric, mults)
    _, props = table.get((sa, sb, m == n)) or _output(op1, op2, m == n, table)
    return SequenceResult(steps, total, TaggedOperand(m, n, props))


def materialize(
    op: TaggedOperand,
    db: Sequence[Kernel] | None = None,
    metric=FLOPS,
) -> SequenceResult | None:
    """Cheapest unary sequence that discharges ``op``'s tag completely,
    for a single-factor chain, whose tag has no combination to defer into:
    one of ``op``'s cached discharge chains ending tag-free or, for a
    tag-free operand, one ``copy`` call, since a plan must produce its
    target. None when there is no such route; the solver, which knows the
    operand's name, reports it.
    """
    if db is None:
        db = default_db()
    table = _structural_table(db)
    if op.tag is UnaryTag.ID:
        candidates = [(SeqStep(kernel, "op1"),) for kernel in match(op, None, db)]
    else:
        chains = _preps(op, db, "op1", table)
        candidates = [steps for steps, cur in chains if cur.tag is UnaryTag.ID]
    if not candidates:
        return None
    m, n = op.eff_dims
    steps, total = _cheapest(candidates, m, n, n, metric, (1, 1, 1))
    return SequenceResult(steps, total, TaggedOperand(m, n, op.eff_props))


def _describe(op: TaggedOperand, name: str = "operand") -> str:
    """``op`` for an error message, under ``name``."""
    props = ",".join(sorted(p.value for p in op.props)) or "none"
    return f"{name}{op.tag.value} ({op.rows}x{op.cols}, props: {props})"
