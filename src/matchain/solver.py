"""The generalized matrix-chain dynamic program and plan extraction.

The DP fills tables over subchains [i, j]: the accumulated cost and the
split index, with the cell's free indices and their multiplicity. Each
combination step prices a kernel sequence for the two sub-results and
charges each call the index multiplicity of what it reads, the product of
the ranges of its free indices: op1's discharge preps run under the left
part's loops, op2's under the right part's, and the binary call under the
whole segment's, whose multiplicity is r. So a discharge of a loop
invariant operand is paid once, not once per iteration, and is emitted
outside the loops. When both parts have the segment's multiplicity, as at
every split of an unindexed chain, the sequence's total is charged r
times as a whole (``find_sequence``'s ``mults``). The update keeps the
strict less-than comparison of the recurrence, so the smallest split
index wins exact ties.

Each covered cell's operand has a structure id (see
``sequence.Structures``). A split's structural entry is read by its two
parts' structure ids, so which kernels apply is decided once per
structural pair, and the dims reach only the charge: the cost step, or a
lone one-call route's cost charged r times. A winning split gives its
cell the structure that ``Structures.output`` keeps for the pair's
structure ids and squareness. The fill prices a split in one of two
ways, and both charge it the same int, computed by the same function
from the same structure ids, dims and multiplicities:

- *inline pricing* keeps one structure id per cell and computes a
  split's charge where the scan meets it. The seed's charge (below) is
  kept for when the scan reaches the seed's split again;
- *memo pricing* gives each covered cell a small int id per distinct
  cell key: structure id, rows, cols and free indices. Each id owns a
  row, a dict over right ids, so a split looks its pair up in its left
  id's row with no key built. A pair of ids fixes the dims and the three
  multiplicities, so the row keeps each pair's charge, None when it has
  no route, and each distinct pair is priced once. A second row keeps,
  once the pair wins a cell, its output's id.

Memo pricing pays only when cell keys repeat often. A chain of n
factors over D distinct dims has n(n - 1)/2 product cells but at most
D^2 shapes, so ``_inline_pays`` picks inline pricing when 3 D^2 reaches
the cell count. Measured on plain and tagged chains of 12 to 100
factors, fill time on Python 3.11 and 2 vCPUs: the two cross where D^2
is 0.15 to 0.45 of the cells, lower on longer chains. From a third on,
inline pricing was at most 1% slower; below 0.15, memo pricing was 3% to
2.5 times faster. Tagged chains cross a little above plain ones.
Free indices make keys more distinct and move it lower (at 44 factors,
inline was 4% faster from 0.07 on), which the rule leaves out. The
benchmark's dp_mixed chains reach 1.8 to 3.3 times the bound, and its
dp_plain chains 0.03 of it.

No cell keeps its operand or a sequence. ``DPTables.operand`` derives an
operand from the split table, and extraction asks ``find_sequence`` for
each of the at most n - 1 segments of the tree; the cost step depends
on its arguments alone, so it returns the route the fill priced.

Every cost is an int in the database's units (see ``kernels.py``), and
integer addition is exact, so a cell's cost is its tree's exact cost and
exact ties really are ties. An uncovered cell keeps ``inf``, and a split
with no route is charged None, but neither is ever added to an int, where
``10**400 + inf`` would raise: once a cell is left uncovered, the fill
tries only the splits whose two parts are covered, and a split with no
route is dropped where it is priced, off the path of a split that finds
its charge.

Most splits are never looked up at all. A split (i, k, j) costs its two
sub-costs plus its pair's charge, and every cost is non-negative (the
metric contract in ``kernels.py``). So when the sub-costs alone,
``lb = costs[i][k] + costs[k+1][j]``, already reach the best cost found at
a smaller k, the split is skipped before it is priced. The plans stay
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
database's ``Structures.ends`` records, per structure and side, the
binary kernels that can end a route from it; the fill unions them over
the structures it meets. While the op1 and op2 sets share one
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
the error report share their database's structural facts, which
``sequence`` alone keys and keeps (``Structures.of``): the fill reads
them as plain subscripts of its maps by structure ids.

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
from .expr import Chain, Factor, IndexDecl, indexed_name, validate
from .kernels import FLOPS, Kernel, KernelCall, TaggedOperand, call_mkn, cost_value
from .kernels import default_db, unit_of
from .sequence import Structures, _cheapest, _describe, find_sequence, materialize


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
    at most ``n - 1`` over the left-deep tree. ``charges`` counts the
    charges it computed. Inline pricing computes one per split it looks
    up, the seed's once; memo pricing one per pair of cell keys, when it
    first looks the pair up, and again at each lookup of a pair with no
    route. A cell's seed is looked up even when another split wins, and a
    split whose sub-costs plus the cell's floor already reach the best
    cost of its cell is not. ``no_route`` counts the charges among them
    that the database cannot cover, and ``pricing`` names the pricing that
    ran, ``"inline"`` or ``"memo"``.
    """

    splits: int
    charges: int
    no_route: int
    pricing: str


class DPTables(NamedTuple):
    """Filled DP state for one chain; indices run over factor positions.

    The tuple is immutable, but its tables are lists that the fill built
    and the caller owns. Costs are ints in the database's units, ``inf``
    for an uncovered cell, and include index multiplicities; a product
    cell is covered exactly when it has a split. No cell keeps its operand
    or its sequence: ``operand(i, j)`` derives the operand from the
    chain's ``factors`` and the split table, by the structural facts of
    the database's ``kernels``, as the fill did.
    """

    n: int
    costs: list[list[int | float]]
    solution: list[list[int | None]]
    free: list[list[tuple[IndexDecl, ...]]]
    ranges: list[list[int]]
    stats: DPStats
    factors: tuple[Factor, ...]
    kernels: tuple[Kernel, ...]

    def operand(self, i: int, j: int) -> TaggedOperand | None:
        """Cell [i, j]'s operand, None when the cell is uncovered. A leaf's
        is its factor's, with the tag pending; a product's is its two
        parts' product, whichever route computes it."""
        if i == j:
            return _base_operand(self.factors[i])
        k = self.solution[i][j]
        if k is None:
            return None
        left, right = self.operand(i, k), self.operand(k + 1, j)
        (m, _), (_, n) = left.eff_dims, right.eff_dims
        facts = Structures.of(self.kernels)
        sa, sb = facts.sid[left.props, left.tag], facts.sid[right.props, right.tag]
        return TaggedOperand(m, n, facts.output[sa, sb, m == n][1])


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
    tried. The fill prices inline or through its memo, as the chain alone
    decides (see the module docstring); both charge every split alike, so
    only ``stats`` tells them apart. A given ``memo`` receives, after the
    fill, ``find_sequence``'s result for each distinct priced pair with a
    route, under its operands' keys,
    ``((operand, free indices), (operand, free indices)) -> sequence``.
    """
    if db is None:
        db = default_db()
    factors = chain.factors
    return _fill(factors, Structures.of(db), metric, memo, splits, _inline_pays(factors))


def _inline_pays(factors: Sequence[Factor]) -> bool:
    """Whether the fill of a chain of ``factors`` prices inline: when its
    D distinct dims make D^2 at least a third of its n(n - 1)/2 product
    cells (see the module docstring)."""
    n = len(factors)
    dims = len({f.operand.rows for f in factors} | {f.operand.cols for f in factors})
    return 3 * dims * dims >= n * (n - 1) // 2


def _fill(factors, facts: Structures, metric, memo, splits, inline: bool) -> DPTables:
    """``build_tables``' fill of a chain of ``factors``, under inline
    pricing when ``inline``, else under memo pricing."""
    entry, output, ends = facts.entry, facts.output, facts.ends
    n = len(factors)
    costs = [[inf] * n for _ in range(n)]
    solution: list[list[int | None]] = [[None] * n for _ in range(n)]
    free = [[()] * n for _ in range(n)]
    ranges = [[1] * n for _ in range(n)]
    tried = charged = no_route = 0
    unfilled = False
    # Cell [i, j] is d[i] x d[j + 1], d the effective dims.
    d = [factor.eff_rows for factor in factors] + [factors[-1].eff_cols]
    kernel_cost = metric.kernel_cost
    # The splits (i, k, j) priced with a route, kept for a given memo only.
    priced = [] if memo is not None else None
    # The floor (see the module docstring). ends1 and ends2 are the binary
    # kernels, as bitmasks over the database, that can end a route from the
    # structures met so far, ``met``, as op1 and as op2. While they share
    # at most one kernel the fill tracks them and, per row i, kmins[i], the
    # least d[k + 1] over the splits of the row's latest cell; floor_cost
    # is the shared kernel's cost, None while they share none. Once they
    # share two the floor is off for the rest of the fill. A cell of two
    # factors has one split, so it needs no floor, and neither does a fill
    # that tries at most one split per cell: of two factors, or restricted
    # to given splits.
    tracking, floor_cost = splits is None and n > 2, None
    ends1 = ends2 = 0
    met = set()
    kmins = d[1:]

    def meet(sid):
        """Adds structure ``sid`` to ``met`` and its ending kernels to the
        floor's sets."""
        nonlocal ends1, ends2, tracking, floor_cost
        met.add(sid)
        end1, end2 = ends[sid]
        ends1 |= end1
        ends2 |= end2
        shared = ends1 & ends2
        if shared & (shared - 1):  # two kernels or more
            tracking, floor_cost = False, None
        elif shared:
            floor_cost = kernel_cost(facts.kernels[shared.bit_length() - 1])

    def price(i, k, j, sa, sb):
        """The charge of split (i, k, j), whose parts have structures ``sa``
        and ``sb``; None when their pair has no route."""
        nonlocal charged, no_route
        charged += 1
        candidates, lone = entry[sa, sb]
        if lone is not None:  # one binary call, run r times
            charge = kernel_cost(lone)(d[i], d[k + 1], d[j + 1]) * ranges[i][j]
        elif candidates:
            mults = (ranges[i][k], ranges[k + 1][j], ranges[i][j])
            charge = _cheapest(candidates, d[i], d[k + 1], d[j + 1], metric, mults)[1]
        else:
            no_route += 1
            return None
        if priced is not None:
            priced.append((i, k, j))
        return charge

    if inline:
        # sids[i][j] is cell [i, j]'s structure id, once it is covered.
        sids: list[list[int | None]] = [[None] * n for _ in range(n)]
    else:
        # ids[i][j] numbers the cell's key (structure id, rows, cols, free
        # indices); 0 marks an uncovered cell. Each id a owns id_sids[a],
        # its structure id, and a row in charges and outs, appended by
        # intern; a split looks its pair up in its left id's row.
        # charges[a][b] is the pair's charge, None when it has no route, and
        # outs[a][b], once it wins, its output's id (a pair fixes the free
        # indices).
        ids = [[0] * n for _ in range(n)]
        interned: dict = {}
        id_sids: list[int | None] = [None]
        charges: list[dict] = [{}]
        outs: list[dict] = [{}]

        def intern(key) -> int:
            """The id of cell key ``key``; a new id gets two empty rows."""
            at = interned.get(key)
            if at is None:
                at = interned[key] = len(id_sids)
                id_sids.append(key[0])
                charges.append({})
                outs.append({})
            return at

        def memo_price(i, k, j):
            """The charge of the pair met at split (i, k, j), kept."""
            a, b = ids[i][k], ids[k + 1][j]
            charge = charges[a][b] = price(i, k, j, id_sids[a], id_sids[b])
            return charge

    for i in range(n):
        costs[i][i] = 0
        free[i][i] = factors[i].operand.indices
        ranges[i][i] = index_range(free[i][i])
        op, tag = factors[i].operand, factors[i].tag
        sid = facts.sid[op.properties, tag]
        if tracking and sid not in met:
            meet(sid)
        if inline:
            sids[i][i] = sid
        else:
            ids[i][i] = intern((sid, op.rows, op.cols, free[i][i]))

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
            costs_i = costs[i]
            if unfilled:  # only splits whose parts are covered
                ks = [k for k in ks if costs_i[k] < inf and costs[k + 1][j] < inf]
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
            # The seed: the right neighbour's split, priced first when its
            # left part is covered (a leaf's solution is None). Only splits
            # that cost no more pass the scan.
            k0 = solution[i + 1][j] if splits is None else None
            if inline:
                # The scan reaches the seed again, and takes its charge.
                sids_i, charge0 = sids[i], None
                if k0 is not None and sids_i[k0] is not None:
                    charge0 = price(i, k0, j, sids_i[k0], sids[k0 + 1][j])
                    if charge0 is not None:
                        best = costs_i[k0] + costs[k0 + 1][j] + charge0 + 1
                        cut = best - floor
                for k in ks:
                    lb = costs_i[k] + costs[k + 1][j]
                    if lb >= cut:  # lb + charge >= lb + floor >= best
                        continue
                    if k == k0:
                        charge = charge0
                    else:
                        charge = price(i, k, j, sids_i[k], sids[k + 1][j])
                    if charge is None:  # no route
                        continue
                    cost = lb + charge
                    if cost < best:
                        best, best_k, cut = cost, k, cost - floor
                if best_k is not None:
                    costs_i[j], solution[i][j] = best, best_k
                    sa, sb = sids_i[best_k], sids[best_k + 1][j]
                    sid = sids_i[j] = output[sa, sb, d[i] == d[j + 1]][0]
                    if tracking and sid not in met:
                        meet(sid)
                elif ks:
                    unfilled = True
                continue
            ids_i = ids[i]
            if k0 is not None and ids_i[k0]:
                charge = charges[ids_i[k0]].get(ids[k0 + 1][j])
                if charge is None:
                    charge = memo_price(i, k0, j)
                if charge is not None:
                    best = costs_i[k0] + costs[k0 + 1][j] + charge + 1
                    cut = best - floor
            for k in ks:
                lb = costs_i[k] + costs[k + 1][j]
                if lb >= cut:  # lb + charge >= lb + floor >= best
                    continue
                charge = charges[ids_i[k]].get(ids[k + 1][j])
                if charge is None:
                    charge = memo_price(i, k, j)
                    if charge is None:  # no route
                        continue
                cost = lb + charge
                if cost < best:
                    best, best_k, cut = cost, k, cost - floor
            if best_k is not None:
                costs_i[j], solution[i][j] = best, best_k
                a, b = ids_i[best_k], ids[best_k + 1][j]
                won = outs[a].get(b)
                if won is None:
                    sid = output[id_sids[a], id_sids[b], d[i] == d[j + 1]][0]
                    if tracking and sid not in met:
                        meet(sid)
                    won = outs[a][b] = intern((sid, d[i], d[j + 1], seg_free))
                ids_i[j] = won
            elif ks:
                unfilled = True

    if memo is not None:
        if not inline:
            sids = [list(map(id_sids.__getitem__, row)) for row in ids]

        def key(i, j):
            """Cell [i, j]'s (operand, free indices) key."""
            if i == j:
                return _base_operand(factors[i]), free[i][i]
            props = facts.structure[sids[i][j]].props
            return TaggedOperand(d[i], d[j + 1], props), free[i][j]

        for i, k, j in priced:
            key1, key2 = key(i, k), key(k + 1, j)
            if (key1, key2) not in memo:
                mults = (ranges[i][k], ranges[k + 1][j], ranges[i][j])
                seq = find_sequence(key1[0], key2[0], facts.kernels, metric, mults=mults)
                memo[key1, key2] = seq
    stats = DPStats(tried, charged, no_route, "inline" if inline else "memo")
    return DPTables(n, costs, solution, free, ranges, stats, factors, facts.kernels)


def _extract(
    tables: DPTables, target: str, names: Iterator[int], db, metric
) -> tuple[tuple[KernelCall, ...], object]:
    """Post-order walk of the split table from the root, as a loop.

    Returns the rendered calls and the parenthesization tree. A leaf is
    its cell's operand named from its own factor. Each segment emits its left part's calls, then its right
    part's, then its own, the route ``find_sequence`` gives for the two
    parts at the fill's multiplicities, whose output is named before its
    prep temps; the root writes ``target``. The walk keeps its own stack,
    so a tree of any depth, such as the left-deep one, is extracted.
    """
    factors = tables.factors
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
            done.append(((tables.operand(i, i), factors[i].operand.display), i))
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
    if tables.solution[0][n - 1] is None:
        raise _uncovered_error(tables, splits)
    calls, tree = _extract(tables, target, names, db, metric)
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


def _uncovered_error(tables: DPTables, splits) -> NoKernelApplicableError:
    """The error that names the smallest uncovered segment among the cells
    that ``splits``, as given to ``build_tables``, lets the fill try.
    Every part of that segment is covered, so none of its splits has a
    kernel sequence."""
    n, solution, factors = tables.n, tables.solution, tables.factors
    i, j = next(
        (i, i + l)
        for l in range(1, n)
        for i in range(n - l)
        if solution[i][i + l] is None and (splits is None or (i, i + l) in splits)
    )
    return NoKernelApplicableError(
        f"no kernel sequence covers factors {i}..{j} "
        f"({' * '.join(f.display for f in factors[i : j + 1])})",
        segment=(i, j),
    )
