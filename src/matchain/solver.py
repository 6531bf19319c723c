"""The generalized matrix-chain dynamic program and plan extraction.

The DP fills three tables over subchains [i, j]: the id of the cell's
operand, the accumulated cost, and the split index. Each combination step
prices a kernel sequence for the two sub-results and charges each call the
index multiplicity of what it reads, the product of the ranges of its
free indices: op1's discharge preps run under the left part's loops,
op2's under the right part's, and the binary call under the whole
segment's, whose multiplicity is r. So a discharge of a loop
invariant operand is paid once, not once per iteration, and is emitted
outside the loops. When both parts have the segment's multiplicity, as at
every split of an unindexed chain, the sequence's total is charged r
times as a whole (``find_sequence``'s ``mults``). The update keeps the
strict less-than comparison of the recurrence, so the smallest split
index wins exact ties.

The DP asks for a sequence at every split (i, k, j), O(n^3) times, but
meets few distinct operand pairs. So each filled cell gets a small int
id per distinct operand and free-index tuple, and each id owns its
operand, the operand's structure id (see ``sequence``) and a row, a dict
over right ids that the fill owns: a split looks its pair up in its left
id's row, with no key built. A pair of ids fixes the dims and the three
multiplicities, so the row holds each pair's charged cost: each distinct
pair is priced once. Its structural entry is read by its two structure
ids, so which kernels apply is decided once per structural pair, and the
dims reach only the cost: the cost step, or a lone one-call route's cost
charged r times. A pair the database cannot cover keeps None. A second
row per id keeps, once the pair wins a cell, its output's id, shared by
every cell it wins; the output's structure comes from the table by the
pair's structure ids and squareness, and only a new id builds its
operand. No cell keeps a sequence: extraction asks
``find_sequence`` for each of the at most n - 1 segments of the tree,
and the cost step depends on its arguments alone, so it returns the
route the fill priced.

Every cost is an int in the database's units (see ``kernels.py``), and
integer addition is exact, so a cell's cost is its tree's exact cost and
exact ties really are ties. An uncovered cell keeps ``inf``, and a pair
with no route keeps None, but neither is ever added to an int, where
``10**400 + inf`` would raise: once a cell is left uncovered, the fill
tries only the splits whose two parts are covered, and a split whose pair
has no route is dropped where the pair is priced, off the path of a
split that finds its charge.

Most splits are never looked up at all. A split (i, k, j) costs its two
sub-costs plus its pair's charge, and every cost is non-negative (the
metric contract in ``kernels.py``). So when the sub-costs alone,
``lb = costs[i][k] + costs[k+1][j]``, already reach the best cost found at
a smaller k, the split is skipped before its pair is built. The plans stay
exactly those of the unbounded loop: ``lb + charge >= lb``, so a skipped
split could at best tie, which the smaller k wins anyway under the strict
less-than.

The bound skips more once ``best`` is low, so the full fill seeds each
cell: the split that won its right neighbour, ``k0 = solution[i + 1][j]``,
is priced first when its left part is covered, and the scan starts at
``best = lb0 + charge0 + 1`` with no split chosen. That is exact too: a
skipped split costs more than the seed, so it can neither win nor tie,
and every split that costs no more is still scanned in increasing k under
the strict less-than, so the same k wins, at the same cost.

The bound also puts a floor under the charge. Every route of a pair ends
in one binary call, run ``r = ranges[i][j]`` times at
``(d[i], d[k + 1], d[j + 1])``, and its preps cost at least 0. The
structural table records, per structure and side, the binary kernels
that can end a route from it (``sequence._ends``); the fill unions them
over the structures it meets. While the op1 and op2 sets share one
kernel K alone, every route of every pair met so far ends in K, and
since costs are non-decreasing in k (the metric contract), each split of
[i, j] charges at least ``floor = r * K(d[i], kmin, d[j + 1])``, where
``kmin = min(d[i + 1 .. j])`` is the least inner dim of the cell's
splits. So the scan skips a split once ``lb + floor >= best``: it
compares ``lb`` with ``cut = best - floor``, updated as ``best`` falls.
That is the same argument with ``lb + floor`` for ``lb``. The sets only
grow during a fill, so once they share two kernels the floor is off for
the rest of it, and ``floor`` is 0 as before; while they share none, no
pair has a route and ``floor`` is 0 too. On an untagged, unstructured
chain every route ends in gemm, so the floor stays on. A cell of two
factors has one split and needs no floor, and neither does a fill of two
factors or one restricted to given splits.

One planner serves both orders. ``solve`` and ``naive_cost`` each return
``_plan``, which validates the chain, runs the fill, names the smallest
uncovered segment when the root is uncovered, and extracts the plan.
``naive_cost`` restricts the fill to the left-deep tree's splits
(``build_tables(splits=)``), so the left-to-right order is priced,
charged and diagnosed as the optimal order is. The fill, extraction and
the error report share their database's structural table, which
``sequence`` keeps (``_structural_table``).

Operands carry no names (``kernels.TaggedOperand``): extraction names
each leaf from its factor, and each product as it renders the calls.

Base case: a single factor costs 0 and keeps its unary tag pending; tags
are discharged inside the sequence finder when the factor is combined,
which is what lets an inverse become a solve instead of an explicit
inversion. The one exception is a chain of length 1, whose tag has no
combination to defer into and is materialized by the cheapest unary
sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, prod
from collections.abc import Iterable, Iterator, Sequence
from itertools import count
from typing import NamedTuple

from .errors import InvalidChainError, NoKernelApplicableError, UnsatisfiableError
from .expr import Chain, Factor, IndexDecl, UnaryTag, indexed_name, validate
from .kernels import FLOPS, Kernel, KernelCall, TaggedOperand, call_mkn, cost_value
from .kernels import default_db, unit_of
from .sequence import _cheapest, _describe, _ends, _entry, _output, _sid, _structural_table
from .sequence import find_sequence, materialize


def index_range(indices: Iterable[IndexDecl]) -> int:
    """Multiplicity of a combination: product of ranges of its distinct
    free indices."""
    return prod(ix.range for ix in indices)


def _base_operand(factor: Factor) -> TaggedOperand:
    """DP base descriptor: stored dims and props with the tag kept pending."""
    op = factor.operand
    return TaggedOperand(op.rows, op.cols, op.properties, factor.tag)


class DPStats(NamedTuple):
    """Work counters of one DP fill.

    ``splits`` counts the splits (i, k, j) the fill tried whose two parts
    were both covered: at most ``(n^3 - n) / 6`` when it tries every split,
    at most ``n - 1`` over the left-deep tree. ``keys`` counts the
    distinct (operand, free indices) keys among the filled cells,
    ``pairs`` the distinct pairs of keys looked up (each priced once; a
    cell's seed looks up its pair even when another split wins, and a
    split whose sub-costs plus the cell's floor already reach the best
    cost of its cell looks up none) and ``no_route`` the pairs among them
    that the database cannot cover.
    """

    splits: int
    keys: int
    pairs: int
    no_route: int


class DPTables(NamedTuple):
    """Filled DP state for one chain; indices run over factor positions.

    The tuple is immutable, but its tables are lists that the fill built
    and the caller owns. ``ops[ids[i][j]]`` is cell [i, j]'s operand; id
    0, whose ``ops[0]`` is None, marks an uncovered cell. Costs
    are ints in the database's units, ``inf`` for an uncovered cell, and
    include index multiplicities; no cell keeps its sequence.
    """

    n: int
    ids: list[list[int]]
    ops: list[TaggedOperand | None]
    costs: list[list[int | float]]
    solution: list[list[int | None]]
    free: list[list[tuple[IndexDecl, ...]]]
    ranges: list[list[int]]
    stats: DPStats


@dataclass(frozen=True)
class Plan:
    """An executable kernel-call program with its accumulated cost.

    ``parenthesization`` is a nested tuple over factor positions (a bare
    int for a leaf); ``total_cost`` already includes index multiplicities,
    as ``kernels.cost_value`` reports it. ``units`` is the same total,
    exact, in the database's units (see ``kernels.py``): above 2^53 two
    totals a unit apart can report one float, so ``--verify`` compares
    ``units``. A plan read back from records has None; plan equality
    ignores it.
    """

    target: str
    calls: tuple[KernelCall, ...]
    total_cost: float | int
    parenthesization: object
    metric_name: str
    units: int | None = field(default=None, compare=False)


def build_tables(
    chain: Chain,
    db: Sequence[Kernel] | None = None,
    metric=FLOPS,
    memo: dict | None = None,
    *,
    splits: dict[tuple[int, int], Sequence[int]] | None = None,
) -> DPTables:
    """Run the DP for ``chain``; the chain must already validate cleanly.

    ``splits`` maps a cell ``(i, j)`` to the split indices k to try there,
    in increasing order; a cell it leaves out stays unfilled, so it should
    hold both parts of every split it lists. ``None`` tries every k, which
    is what ``solve`` does; ``naive_cost`` passes the left-deep tree's.
    Splits for which no kernel sequence exists are skipped, and so are
    splits that cannot win (see the module's bound and seed); if a whole
    segment has no solution the error surfaces in ``solve`` or
    ``naive_cost``, naming the smallest offending segment among the cells
    tried. A given ``memo`` receives, after the fill, ``find_sequence``'s
    result for each priced pair with a route, under its operands' keys,
    ``((operand, free indices), (operand, free indices)) -> sequence``.
    """
    if db is None:
        db = default_db()
    table = _structural_table(db)
    factors = chain.factors
    n = len(factors)

    costs = [[inf] * n for _ in range(n)]
    solution: list[list[int | None]] = [[None] * n for _ in range(n)]
    free = [[()] * n for _ in range(n)]
    ranges = [[1] * n for _ in range(n)]
    # ids[i][j] numbers the (operand, free indices) key of cell [i, j]; 0
    # marks an uncovered cell. Each id a owns ops[a], its key's operand,
    # sids[a], its structure id, and a row in charges and outs, appended
    # by intern; a split looks its pair up in its left id's row.
    # charges[a][b] is the pair's charged cost, None when it has no route,
    # and outs[a][b], once it wins, its output's id (a pair fixes the free
    # indices). Cell [i, j] is d[i] x d[j + 1], d the effective dims.
    ids = [[0] * n for _ in range(n)]
    interned: dict = {}
    ops: list[TaggedOperand | None] = [None]
    sids: list[int | None] = [None]
    charges: list[dict] = [{}]
    outs: list[dict] = [{}]
    tried = no_route = 0
    unfilled = False
    d = [factor.eff_rows for factor in factors] + [factors[-1].eff_cols]
    kernel_cost = metric.kernel_cost
    # The floor (see the module docstring). ends1 and ends2 are the binary
    # kernels, as bitmasks over db, that can end a route from the
    # structures of the ids made so far as op1 and as op2. While they share
    # at most one kernel the fill tracks them and, per row i, kmins[i], the
    # least d[k + 1] over the splits of the row's latest cell; floor_cost
    # is the shared kernel's cost, None while they share none. Once they
    # share two the floor is off for the rest of the fill. A cell of two
    # factors has one split, so it needs no floor, and neither does a fill
    # that tries at most one split per cell: of two factors, or restricted
    # to given splits.
    tracking, floor_cost = splits is None and n > 2, None
    ends1 = ends2 = 0
    kmins = d[1:]

    def intern(sid, rows, cols, seg_free, props, tag=UnaryTag.ID) -> int:
        """The id over ``seg_free`` of the rows x cols operand of structure
        ``sid``, ``(props, tag)``; a new id builds it and owns it, ``sid``
        and two empty rows, and adds its structure to the floor's sets."""
        nonlocal ends1, ends2, tracking, floor_cost
        key = (sid, rows, cols, seg_free)
        at = interned.get(key)
        if at is None:
            at = interned[key] = len(ops)
            op = TaggedOperand._make((rows, cols, props, tag))
            ops.append(op)
            sids.append(sid)
            charges.append({})
            outs.append({})
            if tracking:
                end1, end2 = table.get((sid, "ends")) or _ends(sid, op, db, table)
                ends1 |= end1
                ends2 |= end2
                shared = ends1 & ends2
                if shared & (shared - 1):  # two kernels or more
                    tracking, floor_cost = False, None
                elif shared:
                    floor_cost = kernel_cost(db[shared.bit_length() - 1])
        return at

    def price(i, k, j):
        """The charge of the pair met at split (i, k, j), kept on first
        use; None when the pair has no route."""
        nonlocal no_route
        a, b = ids[i][k], ids[k + 1][j]
        row = charges[a]
        candidates, lone = table.get((sids[a], sids[b])) or _entry(ops[a], ops[b], db, table)
        if lone is not None:  # one binary call, run r times
            charge = kernel_cost(lone)(d[i], d[k + 1], d[j + 1]) * ranges[i][j]
        elif candidates:
            mults = (ranges[i][k], ranges[k + 1][j], ranges[i][j])
            charge = _cheapest(candidates, d[i], d[k + 1], d[j + 1], metric, mults)[1]
        else:
            if b not in row:  # else met before, and counted
                no_route += 1
            charge = None
        row[b] = charge
        return charge

    for i in range(n):
        costs[i][i] = 0
        free[i][i] = factors[i].operand.indices
        ranges[i][i] = index_range(free[i][i])
        op, tag = factors[i].operand, factors[i].tag
        sid = _sid(op.properties, tag, table)
        ids[i][i] = intern(sid, op.rows, op.cols, free[i][i], op.properties, tag)

    for l in range(1, n):
        for i in range(n - l):
            j = i + l
            seg_free, r = free[i][j - 1], ranges[i][j - 1]
            for ix in factors[j].operand.indices:
                if ix not in seg_free:
                    seg_free += (ix,)
                    r *= ix.range
            free[i][j], ranges[i][j] = seg_free, r
            ks = range(i, j) if splits is None else splits.get((i, j), ())
            costs_i, ids_i = costs[i], ids[i]
            if unfilled:  # only splits whose parts are covered
                ks = [k for k in ks if ids_i[k] and ids[k + 1][j]]
            tried += len(ks)
            # Every split's charge is at least floor, and the scan skips a
            # split once lb + floor reaches best, so it compares lb with cut.
            floor = 0
            if tracking and l > 1:
                if d[j] < kmins[i]:
                    kmins[i] = d[j]
                if floor_cost is not None:
                    floor = floor_cost(d[i], kmins[i], d[j + 1]) * r
            best, best_k, cut = inf, None, inf
            # The seed: the right neighbour's split, priced first (a leaf's
            # solution is None). Only splits that cost no more pass the scan.
            k0 = solution[i + 1][j] if splits is None else None
            if k0 is not None and ids_i[k0]:
                charge = charges[ids_i[k0]].get(ids[k0 + 1][j])
                if charge is None:
                    charge = price(i, k0, j)
                if charge is not None:
                    best = costs_i[k0] + costs[k0 + 1][j] + charge + 1
                    cut = best - floor
            for k in ks:
                lb = costs_i[k] + costs[k + 1][j]
                if lb >= cut:  # lb + charge >= lb + floor >= best
                    continue
                charge = charges[ids_i[k]].get(ids[k + 1][j])
                if charge is None:
                    charge = price(i, k, j)
                    if charge is None:  # no route
                        continue
                cost = lb + charge
                if cost < best:
                    best, best_k, cut = cost, k, cost - floor
            if best_k is not None:
                costs_i[j] = best
                solution[i][j] = best_k
                a, b = ids_i[best_k], ids[best_k + 1][j]
                won = outs[a].get(b)
                if won is None:
                    m, n_out = d[i], d[j + 1]
                    square = m == n_out
                    sid, props = table.get((sids[a], sids[b], square)) or _output(
                        ops[a], ops[b], square, table
                    )
                    won = outs[a][b] = intern(sid, m, n_out, seg_free, props)
                ids_i[j] = won
            elif ks:
                unfilled = True

    if memo is not None:
        keys = [None, *((op, key[3]) for op, key in zip(ops[1:], interned))]
        for a, row in enumerate(charges):
            for b, charge in row.items():
                if charge is None:
                    continue
                (_, free1), (_, free2) = keys[a], keys[b]
                r = index_range(dict.fromkeys(free1 + free2))
                mults = (index_range(free1), index_range(free2), r)
                seq = find_sequence(ops[a], ops[b], db, metric, mults=mults)
                memo[keys[a], keys[b]] = seq
    stats = DPStats(tried, len(interned), sum(map(len, charges)), no_route)
    return DPTables(n, ids, ops, costs, solution, free, ranges, stats)


def _extract(
    tables: DPTables, factors, target: str, names: Iterator[int], db, metric
) -> tuple[tuple[KernelCall, ...], object]:
    """Post-order walk of the split table from the root, as a loop.

    Returns the rendered calls and the parenthesization tree. A leaf is
    its cell's operand named from its own factor, since equal leaves share
    one id. Each segment emits its left part's calls, then its right
    part's, then its own, the route ``find_sequence`` gives for the two
    parts at the fill's multiplicities, whose output is named before its
    prep temps; the root writes ``target``. The walk keeps its own stack,
    so a tree of any depth, such as the left-deep one, is extracted.
    """
    ops, ids = tables.ops, tables.ids
    free, ranges, solution = tables.free, tables.ranges, tables.solution
    root = (0, tables.n - 1)
    calls: list[KernelCall] = []
    # A segment is pushed back with its split above its two parts, and is
    # rendered from their ((operand, name), subtree) pairs on done.
    done: list[tuple[tuple[TaggedOperand, str], object]] = []
    todo: list[tuple[int, int, int | None]] = [(*root, None)]
    while todo:
        i, j, k = todo.pop()
        if i == j:
            done.append(((ops[ids[i][i]], factors[i].operand.display), i))
        elif k is None:
            k = solution[i][j]
            todo += ((i, j, k), (k + 1, j, None), (i, k, None))
        else:
            right, rtree = done.pop()
            left, ltree = done.pop()
            if (i, j) == root:
                out_name = target
            else:
                out_name = indexed_name(f"T{next(names)}", free[i][j])
            loops = {"op1": free[i][k], "op2": free[k + 1][j], "both": free[i][j]}
            mults = (ranges[i][k], ranges[k + 1][j], ranges[i][j])
            seq = find_sequence(left[0], right[0], db, metric, mults=mults)
            seq_calls, named = _render(seq, left, right, loops, out_name, names, metric)
            calls += seq_calls
            done.append((named, (ltree, rtree)))
    return tuple(calls), done[0][1]


#: How a unary call's comment writes the tag component it peels.
_PEEL_MATH = {"t": "^T", "inv": "^-1"}


def _render(seq, op1, op2, loops, out_name, names: Iterator[int], metric):
    """Bind ``op1`` (and ``op2``), each an ``(operand, name)`` pair, to
    ``seq``'s calls.

    ``loops`` maps each step target, ``"op1"``, ``"op2"`` and ``"both"``,
    to the free indices of what its calls read: a discharge prep runs
    under its input's loops, the binary call under the segment's, so a
    prep can be hoisted out of loops its product runs under. A call's
    loops are the segment's (``"op1"``'s when ``seq`` has no binary call),
    in the segment's order, restricted to its target's indices, so a prep
    that varies over every index of its product shares the product's loop
    nest. The last call writes ``out_name``; any other temp is named by its
    target's indices, in their own order, which for a prep are its
    input's. The binary call's result is ``seq.output``, since every
    candidate yields the same output. Returns the calls and the final
    ``(operand, name)`` pair.
    """
    cur = {"op1": op1, "op2": op2}
    calls = []
    nest = loops.get("both", loops["op1"])
    last = len(seq.steps) - 1
    for at, (kernel, target) in enumerate(seq.steps):
        free = loops[target]
        name = out_name if at == last else indexed_name(f"T{next(names)}", free)
        if target == "both":
            inputs = (cur["op1"], cur["op2"])
            result = seq.output
            math = " * ".join(arg + op.tag.value for op, arg in inputs)
        else:
            inputs = (cur[target],)
            op, arg = cur[target]
            result = kernel.apply_unary(op)
            math = arg + _PEEL_MATH.get(kernel.peel, "")
        cur[target] = (result, name)
        ops, args = zip(*inputs)
        cost = cost_value(metric.call_cost(kernel, call_mkn(ops)), kernel.unit)
        call_loops = tuple(ix for ix in nest if ix in free)
        calls.append(KernelCall(kernel.id, args, name, cost, f"{name} := {math}", call_loops))
    return calls, cur[target]


def _plan(chain: Chain, db, metric, splits) -> Plan:
    """The plan for ``chain`` whose fill tries only the splits ``splits``
    allows (see ``build_tables``), raising as ``solve`` documents."""
    if db is None:
        db = default_db()
    unit = unit_of(db)
    diagnostics = validate(chain)
    if diagnostics:
        raise InvalidChainError(diagnostics)

    target = chain.target_display
    factors = chain.factors
    names = count()

    if len(factors) == 1:
        op, name = _base_operand(factors[0]), factors[0].operand.display
        seq = materialize(op, db, metric)
        if seq is None:
            detail = _describe(op, name)
            raise UnsatisfiableError(f"no unary kernel sequence materializes {detail}")
        free = factors[0].operand.indices
        calls, _ = _render(seq, (op, name), None, {"op1": free}, target, names, metric)
        units = seq.total_cost * index_range(free)
        return Plan(target, tuple(calls), cost_value(units, unit), 0, metric.name, units)

    tables = build_tables(chain, db, metric, splits=splits)
    n = tables.n
    if not tables.ids[0][n - 1]:
        raise _uncovered_error(tables, factors, splits)
    calls, tree = _extract(tables, factors, target, names, db, metric)
    units = tables.costs[0][n - 1]
    return Plan(target, calls, cost_value(units, unit), tree, metric.name, units)


def solve(
    chain: Chain,
    db: Sequence[Kernel] | None = None,
    metric=FLOPS,
) -> Plan:
    """Compute the cost-optimal kernel-call plan for ``chain``.

    Raises :class:`InvalidChainError` when the chain has diagnostics,
    :class:`NoKernelApplicableError` when some segment cannot be computed
    with the database, and :class:`UnsatisfiableError` for a single-factor
    chain whose tag no unary kernel discharges. A chain carries no
    declarations, so the target's declared shape is checked by
    :func:`~matchain.expr.parse` (or the CLI), not here.
    """
    return _plan(chain, db, metric, None)


def naive_cost(
    chain: Chain,
    db: Sequence[Kernel] | None = None,
    metric=FLOPS,
) -> float | int:
    """Cost of strict left-to-right evaluation with the same database.

    It is the plan over the left-deep tree, whose cell ``(0, t)`` splits
    only at ``t - 1``, so each prefix combination is priced, charged and
    diagnosed exactly as ``solve`` prices a split.
    """
    n = len(chain.factors)
    left_deep = {(0, t): (t - 1,) for t in range(1, n)}
    return _plan(chain, db, metric, left_deep).total_cost


def _uncovered_error(tables: DPTables, factors, splits) -> NoKernelApplicableError:
    """The error that names the smallest uncovered segment among the cells
    that ``splits``, as given to ``build_tables``, lets the fill try.
    Every part of that segment is covered, so none of its splits has a
    kernel sequence."""
    n, ids = tables.n, tables.ids
    i, j = next(
        (i, i + l)
        for l in range(1, n)
        for i in range(n - l)
        if not ids[i][i + l] and (splits is None or (i, i + l) in splits)
    )
    return NoKernelApplicableError(
        f"no kernel sequence covers factors {i}..{j} "
        f"({' * '.join(f.display for f in factors[i : j + 1])})",
        segment=(i, j),
    )
