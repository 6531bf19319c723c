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
the effective dims conform. So :class:`Structures` numbers each distinct
structure with a small int, its structure id, and enumerates the
candidates once per pair of structure ids ``(sa, sb)``; an empty list
records a gap in the database. Every prep keeps its operand's effective
dims (peeling a pending transpose stores the transposed shape; an inverse
is square) and effective properties. So for op1 of effective shape m x k
and op2 of k x n, the cost step prices op1's preps at (m, k, k), op2's at
(k, n, n) and the binary kernel at (m, k, n). Every route yields one
result, ``kernels.product``, whose structure id and properties
``Structures.output`` keeps per ``(sa, sb, square)``. ``find_sequence``
is the two steps, ``Structures.entry`` and ``_cheapest``, then
``Structures.output``. The DP fill reads the same maps by the structure
ids it keeps per operand, so dims reach only its cost step (a lone
one-call route is that call's cost, without ``_cheapest``).

A pair's entry keeps only the undominated candidates. Candidate A is
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
``Structures.candidates`` lists every candidate, and the oracle
enumerates its own, so both still check the pruned entries.

Each database has one :class:`Structures`, kept across calls while the
database is unchanged (``Structures.of``), so its structure ids last
across solves and never reach another database's maps. A new pair only
joins lists made before. The chains and kernels are matched on structure
alone: the caller checks that the dims conform, and preps keep effective
dims, so one structure id stands for its operands at every shape.

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

from . import kernels
from .errors import NoKernelApplicableError
from .expr import UnaryTag
from .kernels import FLOPS, Kernel, TaggedOperand, default_db, match, unit_of

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


class _Facts(dict):
    """A map that makes a missing key's value with ``make(key)`` and keeps
    it, so a hit is a plain dict subscript."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class Structures:
    """The structural facts of one database, one map per fact, each keyed
    by structure ids and filled on a miss:

    - ``sid[props, tag]``: the structure's id, its position in
      ``structure``, which holds an operand of that structure whose dims
      nothing reads;
    - ``chains[sid, target]``: the structure's discharge chains as preps
      for ``"op1"`` or ``"op2"``: every chain of at most L - 1 peeling
      kernels, as ``(steps, end sid)`` pairs in breadth-first order,
      starting with the empty chain;
    - ``binary[s1, s2]``: the binary kernels accepting the end states
      ``s1`` and ``s2``, in database order;
    - ``entry[sa, sb]``: the pair's entry ``(candidates, lone)``.
      ``candidates`` are the undominated ones (see the module docstring),
      in search order. ``lone`` is the binary kernel when the one
      candidate left is that single call, else None: such a pair costs
      the call at (m, k, n) charged r times, under any multiplicities, and
      the fill prices it so without :func:`_cheapest`;
    - ``output[sa, sb, square]``: the structure id and properties of the
      product, whichever route computes it, by whether it is square;
    - ``ends[sid]``: the binary kernels that can end a route from the
      structure as op1, and those as op2: two sets of the database's
      positions, as int bitmasks, which the solver's floor reads.
    """

    def __init__(self, db: Sequence[Kernel]):
        self.kernels = tuple(db)
        unit_of(self.kernels)
        self.structure: list[TaggedOperand] = []
        self.sid = _Facts(self._new_sid)
        self.chains = _Facts(self._chains)
        self.binary = _Facts(self._binary)
        self.entry = _Facts(self._entry)
        self.output = _Facts(self._output)
        self.ends = _Facts(self._ends)

    @classmethod
    def of(cls, db: Sequence[Kernel]) -> Structures:
        """The structures of ``db``, kept while the database is unchanged.

        They depend only on the kernels, so one object serves every call
        on an equal database. The built-in kernels are shared objects, so
        the comparison of two default databases is one identity test per
        kernel. Any other database gets a new object, once ``unit_of``
        accepts it.
        """
        global _latest
        kept = tuple(db)
        if kept != _latest.kernels:
            _latest = cls(kept)
        return _latest

    def _new_sid(self, key) -> int:
        self.structure.append(TaggedOperand(1, 1, *key))
        return len(self.structure) - 1

    def _chains(self, key) -> list:
        sid, target = key
        frontier = chains = [((), sid)]
        for _ in range(L - 1):
            grown = []
            for steps, end in frontier:
                cur = self.structure[end]
                for kernel in match(cur, None, self.kernels):
                    if kernel.peel is not None:
                        out = kernel.apply_unary(cur)
                        step = SeqStep(kernel, target)
                        grown.append((steps + (step,), self.sid[out.props, out.tag]))
            chains.extend(grown)
            frontier = grown
        return chains

    def _binary(self, key) -> list:
        pair = (self.structure[key[0]], self.structure[key[1]])
        return [kernel for kernel in self.kernels if kernel.accepts(pair)]

    def candidates(self, sa: int, sb: int) -> list:
        """Structural step: the steps of every sequence computing a product
        of structures ``sa`` and ``sb``, in search order."""
        chains2 = self.chains[sb, "op2"]
        out = []
        for pre1, end1 in self.chains[sa, "op1"]:
            for pre2, end2 in chains2:
                if len(pre1) + len(pre2) < L:
                    for kernel in self.binary[end1, end2]:
                        out.append(pre1 + pre2 + (SeqStep(kernel, "both"),))
        return out

    def _entry(self, key) -> tuple:
        # A dominator precedes what it dominates, and dominance is
        # transitive, so the candidates kept so far are enough to test.
        candidates = []
        for a in self.candidates(*key):
            if not any(_dominates(b, a) for b in candidates):
                candidates.append(a)
        lone = None
        if len(candidates) == 1 and len(candidates[0]) == 1:
            lone = candidates[0][0].kernel
        return candidates, lone

    def _output(self, key) -> tuple[int, frozenset]:
        # Inference reads the dims only through ``close``, which reads only
        # whether the product is square and whether it is one column; it is
        # one column whenever op2 is a vector, so an m x 1 times 1 x 1
        # product, m = 1 exactly when square, gives every product's props.
        # infer_properties is read from its module at each call, so a
        # wrapper installed there (perfbench's tracer, a test's) sees it.
        sa, sb, square = key
        m = 1 if square else 2
        props = kernels.infer_properties(
            self.structure[sa].eff_props, (m, 1), self.structure[sb].eff_props, (1, 1)
        )
        return self.sid[props, UnaryTag.ID], props

    def _ends(self, sid: int) -> tuple[int, int]:
        masks = []
        for side, target in enumerate(("op1", "op2")):
            ends = [self.structure[end] for _, end in self.chains[sid, target]]
            mask = 0
            for at, kernel in enumerate(self.kernels):
                if kernel.arity == 2 and any(
                    variant[side].matches(cur) for variant in kernel.variants for cur in ends
                ):
                    mask |= 1 << at
            masks.append(mask)
        return tuple(masks)


#: The structures of the most recent database.
_latest = Structures(())


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


def find_sequence(
    op1: TaggedOperand,
    op2: TaggedOperand,
    db: Sequence[Kernel] | None = None,
    metric=FLOPS,
    *,
    mults: tuple[int, int, int] = (1, 1, 1),
) -> SequenceResult:
    """Cheapest sequence of at most L calls computing ``op1 * op2``.

    The structural step reads ``db``'s :class:`Structures`, so a pair of
    structures met by an earlier call on an equal database is not
    enumerated again. ``mults`` gives the multiplicities ``(r1, r2, r)``
    at which op1's preps, op2's preps and the binary call run; then the
    search minimizes, and ``total_cost`` is, the charged cost (see
    ``_cheapest``). Raises :class:`NoKernelApplicableError` when the
    database has no route.
    """
    if db is None:
        db = default_db()
    (m, k), (k2, n) = op1.eff_dims, op2.eff_dims
    if k != k2:
        raise ValueError(
            f"nonconforming product: {op1.eff_dims} times {op2.eff_dims}"
        )
    facts = Structures.of(db)
    sa, sb = facts.sid[op1.props, op1.tag], facts.sid[op2.props, op2.tag]
    candidates, _ = facts.entry[sa, sb]
    if not candidates:
        raise NoKernelApplicableError(
            f"no kernel sequence of length <= {L} computes "
            f"{_describe(op1)} * {_describe(op2)}"
        )
    steps, total = _cheapest(candidates, m, k, n, metric, mults)
    _, props = facts.output[sa, sb, m == n]
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
    facts = Structures.of(db)
    if op.tag is UnaryTag.ID:
        candidates = [(SeqStep(kernel, "op1"),) for kernel in match(op, None, db)]
    else:
        chains = facts.chains[facts.sid[op.props, op.tag], "op1"]
        candidates = [steps for steps, end in chains if facts.structure[end].tag is UnaryTag.ID]
    if not candidates:
        return None
    m, n = op.eff_dims
    steps, total = _cheapest(candidates, m, n, n, metric, (1, 1, 1))
    return SequenceResult(steps, total, TaggedOperand(m, n, op.eff_props))


def _describe(op: TaggedOperand, name: str = "operand") -> str:
    """``op`` for an error message, under ``name``."""
    props = ",".join(sorted(p.value for p in op.props)) or "none"
    return f"{name}{op.tag.value} ({op.rows}x{op.cols}, props: {props})"
