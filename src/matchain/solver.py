"""The generalized matrix-chain dynamic program and plan extraction.

The DP fills four tables over subchains [i, j]: the temp descriptor, the
accumulated cost, the winning kernel sequence, and the split index. Each
combination step queries the sequence finder on the two sub-results and
scales the sequence cost by the index multiplicity r, the product of the
ranges of the segment's free indices. The update keeps the strict
less-than comparison of the recurrence, so the smallest split index wins
exact ties.

The DP asks for a sequence at every split (i, k, j), O(n^3) times, but
meets few distinct operand pairs. So each filled cell gets a small int
id per distinct operand signature, and a split looks up the pair of its
two cells' ids in a dict that the fill owns: ``find_sequence`` runs once
per distinct pair, and a pair the database cannot cover is recorded as
such and skipped at every later split. The structural candidate table
that ``find_sequence`` fills depends only on the kernels, so the solver
keeps the one of the most recent database across ``build_tables`` and
``naive_cost`` calls, and starts a fresh one for any other database.

Base case: a single factor costs 0 and keeps its unary tag pending; tags
are discharged inside the sequence finder when the factor is combined,
which is what lets an inverse become a solve instead of an explicit
inversion. The one exception is a chain of length 1, whose tag has no
combination to defer into and is materialized by the cheapest unary
sequence. Both choices live in ``_base_operand`` / ``solve`` so an eager
materialization strategy could be swapped in and compared.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import inf
from collections.abc import Iterable, Sequence

from .errors import (
    CostOverflowError,
    InvalidChainError,
    MatchainError,
    NoKernelApplicableError,
)
from .expr import Chain, Factor, IndexDecl, validate
from .kernels import FLOPS, Kernel, KernelCall, TaggedOperand, call_mkn, default_db
from .sequence import SequenceResult, find_sequence, materialize, render_calls


def index_range(
    left: Iterable[IndexDecl], right: Iterable[IndexDecl] = ()
) -> int:
    """Multiplicity of a combination: product of ranges of the free indices."""
    r = 1
    for ix in {d for d in left} | {d for d in right}:
        r *= ix.range
    return r


def _as_float(r: int) -> float:
    """A multiplicity as a float, ``inf`` beyond the float range (which a
    product of index ranges can reach, and ``float * int`` would raise on)."""
    try:
        return float(r)
    except OverflowError:
        return inf


def _free_indices(factors: Sequence[Factor], i: int, j: int) -> tuple[IndexDecl, ...]:
    """Free indices of segment [i, j], in chain-appearance order."""
    out = []
    for factor in factors[i : j + 1]:
        for ix in factor.operand.indices:
            if ix not in out:
                out.append(ix)
    return tuple(out)


def _base_operand(factor: Factor) -> TaggedOperand:
    """DP base descriptor: stored dims and props with the tag kept pending."""
    op = factor.operand
    return TaggedOperand(op.rows, op.cols, op.properties, factor.tag, op.display)


@dataclass(frozen=True)
class DPStats:
    """Work counters of one DP fill.

    ``splits`` counts the splits (i, k, j) whose two parts were both
    covered, ``signatures`` the distinct operand signatures among the
    filled cells, ``pairs`` the distinct signature pairs looked up (one
    ``find_sequence`` call each) and ``no_route`` the pairs among them
    that the database cannot cover.
    """

    splits: int
    signatures: int
    pairs: int
    no_route: int


@dataclass
class DPTables:
    """Filled DP state for one chain; indices run over factor positions."""

    n: int
    tmps: list[list[TaggedOperand | None]]
    costs: list[list[float]]
    sequences: list[list[SequenceResult | None]]
    solution: list[list[int | None]]
    free: list[list[tuple[IndexDecl, ...]]]
    ranges: list[list[int]]
    stats: DPStats


@dataclass(frozen=True)
class Plan:
    """An executable kernel-call program with its accumulated cost.

    ``parenthesization`` is a nested tuple over factor positions (a bare
    int for a leaf); ``total_cost`` already includes index multiplicities.
    """

    target: str
    calls: tuple[KernelCall, ...]
    total_cost: float
    parenthesization: object
    metric_name: str


#: The structural table of the most recent database: (its kernels, table).
_structural: tuple[tuple[Kernel, ...] | None, dict] = (None, {})


def _structural_table(db: Sequence[Kernel]) -> dict:
    """The structural table for ``db``, kept while the database is unchanged.

    Candidates depend only on the kernels, so one table serves every solve
    on an equal database. The built-in kernels are shared objects, so the
    comparison of two default databases is one identity test per kernel.
    Any other database gets a fresh table.
    """
    global _structural
    kernels = tuple(db)
    if kernels != _structural[0]:
        _structural = (kernels, {})
    return _structural[1]


def build_tables(
    chain: Chain,
    db: Sequence[Kernel] | None = None,
    metric=FLOPS,
    memo: dict | None = None,
) -> DPTables:
    """Run the DP for ``chain``; the chain must already validate cleanly.

    Splits for which no kernel sequence exists, or whose cost leaves the
    float range, are skipped; if a whole segment has no solution the error
    surfaces in ``solve``, naming the smallest offending segment.
    """
    if db is None:
        db = default_db()
    if memo is None:
        memo = {}
    table = _structural_table(db)
    factors = chain.factors
    n = len(factors)

    tmps: list[list[TaggedOperand | None]] = [[None] * n for _ in range(n)]
    costs = [[inf] * n for _ in range(n)]
    sequences: list[list[SequenceResult | None]] = [[None] * n for _ in range(n)]
    solution: list[list[int | None]] = [[None] * n for _ in range(n)]
    free = [[()] * n for _ in range(n)]
    ranges = [[1] * n for _ in range(n)]
    # ids[i][j] numbers the signature of tmps[i][j]; 0 marks an uncovered
    # cell. pairs maps a pair of ids to its sequence, or to None when the
    # database has no route, so find_sequence runs once per distinct pair.
    ids = [[0] * n for _ in range(n)]
    interned: dict = {}
    pairs: dict = {}
    unseen = object()
    uncovered_splits = no_route = 0

    for i in range(n):
        tmps[i][i] = op = _base_operand(factors[i])
        ids[i][i] = interned.setdefault(op.signature(), len(interned) + 1)
        costs[i][i] = 0.0
        free[i][i] = _free_indices(factors, i, i)
        ranges[i][i] = index_range(free[i][i])

    for l in range(1, n):
        for i in range(n - l):
            j = i + l
            seg_free = free[i][j - 1]
            for ix in factors[j].operand.indices:
                if ix not in seg_free:
                    seg_free += (ix,)
            free[i][j] = seg_free
            r = ranges[i][j] = index_range(seg_free)
            scale = _as_float(r)
            costs_i, ids_i = costs[i], ids[i]
            best, best_k, best_seq = inf, None, None
            for k in range(i, j):
                key = (ids_i[k], ids[k + 1][j])
                seq = pairs.get(key, unseen)
                if seq is unseen:
                    if not (key[0] and key[1]):  # an uncovered part
                        uncovered_splits += 1
                        continue
                    try:
                        seq = find_sequence(
                            tmps[i][k], tmps[k + 1][j], db, metric, memo, table
                        )
                    except NoKernelApplicableError:
                        seq = None
                        no_route += 1
                    pairs[key] = seq
                if seq is None:
                    continue
                cost = costs_i[k] + costs[k + 1][j] + seq.total_cost * scale
                if cost < best:
                    best, best_k, best_seq = cost, k, seq
            if best_seq is not None:
                costs_i[j] = best
                solution[i][j] = best_k
                sequences[i][j] = best_seq
                tmps[i][j] = out = best_seq.output
                ids_i[j] = interned.setdefault(out.signature(), len(interned) + 1)

    stats = DPStats(
        (n ** 3 - n) // 6 - uncovered_splits, len(interned), len(pairs), no_route
    )
    return DPTables(n, tmps, costs, sequences, solution, free, ranges, stats)


class _TempNames:
    def __init__(self):
        self.counter = 0
        self.indices: dict[str, tuple[IndexDecl, ...]] = {}

    def declare(self, name: str, indices: tuple[IndexDecl, ...]):
        self.indices[name] = indices

    def fresh(self, indices: tuple[IndexDecl, ...]) -> str:
        base = f"T{self.counter}"
        self.counter += 1
        name = base if not indices else f"{base}[{','.join(ix.name for ix in indices)}]"
        self.indices[name] = indices
        return name


def _extract(
    tables: DPTables,
    i: int,
    j: int,
    out_name: str | None,
    names: _TempNames,
    calls: list[KernelCall],
    metric,
) -> tuple[TaggedOperand, object]:
    """Post-order walk of the split table, appending rendered calls.

    Returns the named operand for segment [i, j] and its parenthesization
    subtree. ``out_name`` is None except at the root, which writes the
    chain's target.
    """
    if i == j:
        op = tables.tmps[i][i]
        names.declare(op.name, tables.free[i][i])
        return op, i

    k = tables.solution[i][j]
    if k is None:
        raise NoKernelApplicableError(
            f"no kernel sequence covers factors {i}..{j}", segment=(i, j)
        )
    left, ltree = _extract(tables, i, k, None, names, calls, metric)
    right, rtree = _extract(tables, k + 1, j, None, names, calls, metric)

    seg_free = tables.free[i][j]
    if out_name is None:
        out_name = names.fresh(seg_free)
    seq = tables.sequences[i][j]
    r = tables.ranges[i][j]
    seq_calls, named = _render(seq, left, right, out_name, seg_free, r, names, metric)
    calls.extend(seq_calls)
    return named, (ltree, rtree)


def _render(seq, left, right, out_name, free, r, names: _TempNames, metric):
    """Rendered calls of ``seq``, looped over ``free`` and charged ``r`` times."""

    def alloc(inp: TaggedOperand | None) -> str:
        # A discharge temp varies over exactly the indices its input does.
        if inp is None:
            return names.fresh(free)
        return names.fresh(names.indices.get(inp.name, ()))

    seq_calls, named = render_calls(seq, left, right, out_name, alloc, metric)
    names.declare(out_name, free)
    return [replace(call, loops=free, multiplicity=r) for call in seq_calls], named


def solve(
    chain: Chain,
    db: Sequence[Kernel] | None = None,
    metric=FLOPS,
) -> Plan:
    """Compute the cost-optimal kernel-call plan for ``chain``.

    Raises :class:`InvalidChainError` when the chain has diagnostics,
    :class:`NoKernelApplicableError` when some segment cannot be computed
    with the database, and :class:`UnsatisfiableError` for a single-factor
    chain whose tag no unary kernel discharges.
    """
    if db is None:
        db = default_db()
    diagnostics = validate(chain)
    if diagnostics:
        raise InvalidChainError(diagnostics)

    target = chain.target_display
    factors = chain.factors
    names = _TempNames()

    if len(factors) == 1:
        op = _base_operand(factors[0])
        seq = materialize(op, db, metric)
        free = _free_indices(factors, 0, 0)
        r = index_range(free)
        names.declare(op.name, free)
        calls, _ = _render(seq, op, None, target, free, r, names, metric)
        total = seq.total_cost * _as_float(r)
        if not total < inf:
            kernel_id = seq.steps[-1].kernel.id
            raise CostOverflowError(kernel_id, call_mkn((seq.output,)), r, (0, 0))
        return Plan(target, tuple(calls), total, 0, metric.name)

    tables = build_tables(chain, db, metric)
    n = tables.n
    if tables.costs[0][n - 1] == inf:
        raise _uncovered_error(tables, factors, db, metric)

    calls: list[KernelCall] = []
    _, tree = _extract(tables, 0, n - 1, target, names, calls, metric)
    return Plan(target, tuple(calls), tables.costs[0][n - 1], tree, metric.name)


def _uncovered_error(tables: DPTables, factors, db, metric) -> MatchainError:
    """The error that names the smallest uncovered segment.

    Every part of that segment is covered, so each of its splits has either
    no kernel sequence or one whose cost, charged the segment's index
    multiplicity, leaves the float range. The DP does not tell them apart
    on its hot path, so the splits are looked up again here.
    """
    i, j = _smallest_uncovered(tables)
    table = _structural_table(db)
    for k in range(i, j):
        left, right = tables.tmps[i][k], tables.tmps[k + 1][j]
        try:
            seq = find_sequence(left, right, db, metric, table=table)
        except NoKernelApplicableError:
            continue
        mkn = call_mkn((left, right))
        return CostOverflowError(
            seq.steps[-1].kernel.id, mkn, tables.ranges[i][j], (i, j)
        )
    return NoKernelApplicableError(
        f"no kernel sequence covers factors {i}..{j} "
        f"({' * '.join(f.display for f in factors[i : j + 1])})",
        segment=(i, j),
    )


def _smallest_uncovered(tables: DPTables) -> tuple[int, int]:
    for l in range(1, tables.n):
        for i in range(tables.n - l):
            if tables.costs[i][i + l] == inf:
                return i, i + l
    raise AssertionError("no uncovered segment")


def naive_cost(
    chain: Chain,
    db: Sequence[Kernel] | None = None,
    metric=FLOPS,
) -> float:
    """Cost of strict left-to-right evaluation with the same database.

    Each prefix combination is charged the index multiplicity of the
    prefix it produces, mirroring the DP's costing of the left-deep tree.
    """
    if db is None:
        db = default_db()
    diagnostics = validate(chain)
    if diagnostics:
        raise InvalidChainError(diagnostics)
    factors = chain.factors
    if len(factors) == 1:
        return solve(chain, db, metric).total_cost

    table = _structural_table(db)
    acc = _base_operand(factors[0])
    total = 0.0
    for t in range(1, len(factors)):
        right = _base_operand(factors[t])
        seq = find_sequence(acc, right, db, metric, table=table)
        r = index_range(_free_indices(factors, 0, t))
        total += seq.total_cost * _as_float(r)
        if not total < inf:
            mkn = call_mkn((acc, right))
            raise CostOverflowError(seq.steps[-1].kernel.id, mkn, r, (0, t))
        acc = seq.output
    return total
