"""Kernel sequence search for a single combination step."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from matchain import (
    FLOPS,
    MEMORY,
    IndexDecl,
    TaggedOperand,
    UnaryTag,
    best_pair_cost,
    close,
    default_db,
    find_sequence,
    load_kernel_config,
    match,
    materialize,
    matrix,
    parse,
    solve,
    vector,
)
from matchain.errors import CostOverflowError, NoKernelApplicableError, UnsatisfiableError
from matchain.kernels import Kernel, call_mkn, product
from matchain import kernels, sequence
from matchain.sequence import (
    L,
    SeqStep,
    _candidates,
    _charged,
    _cheapest,
    _describe,
    _entry,
    _unary_chains,
)
from matchain.solver import _render, _TempNames
from matchain.properties import Property

from helpers import RECT_MENU, SQUARE_MENU, random_operand_pair

P = Property


def op(rows, cols, props=(), tag=UnaryTag.ID, name="X"):
    return TaggedOperand(rows, cols, close(props, rows, cols), tag, name)


class TestDischarge:
    def test_inverse_times_vector_is_a_solve(self):
        seq = find_sequence(op(10, 10, tag=UnaryTag.INV, name="A"), op(10, 1, name="b"))
        assert seq.kernel_ids == ("gesv",)
        assert seq.total_cost == pytest.approx(2 / 3 * 1000 + 200)

    def test_triangular_inverse_transpose_single_trsm(self):
        seq = find_sequence(
            op(10, 10, {P.LOWER_TRIANGULAR}, UnaryTag.INVT, "L"), op(10, 4, name="B")
        )
        assert seq.kernel_ids == ("trsm",)
        assert seq.total_cost == 10 ** 2 * 4

    def test_inverse_transpose_full_preps_with_transp(self):
        # Explicit inversion costs 2n^3; transposing first keeps the solve.
        seq = find_sequence(op(10, 10, tag=UnaryTag.INVT, name="A"), op(10, 4, name="B"))
        assert seq.kernel_ids == ("transp", "gesv")
        assert seq.total_cost == pytest.approx(100 + 2 / 3 * 1000 + 800)

    def test_right_side_inverse_needs_getri(self):
        # No solve kernel takes the inverse on the right, so invert explicitly.
        seq = find_sequence(op(4, 10, name="B"), op(10, 10, tag=UnaryTag.INV, name="A"))
        assert seq.kernel_ids == ("getri", "gemm")
        assert seq.total_cost == 2 * 1000 + 2 * 4 * 10 * 10

    def test_double_transpose_absorbed_by_gemm(self):
        seq = find_sequence(
            op(8, 5, tag=UnaryTag.T, name="A"), op(3, 8, tag=UnaryTag.T, name="B")
        )
        assert seq.kernel_ids == ("gemm",)
        assert seq.total_cost == 2 * 5 * 8 * 3

    def test_spd_solve_beats_general(self):
        seq = find_sequence(op(10, 10, {P.SPD}, UnaryTag.INV, "S"), op(10, 4, name="B"))
        assert seq.kernel_ids == ("posv",)

    def test_diagonal_solve(self):
        seq = find_sequence(op(10, 10, {P.DIAGONAL}, UnaryTag.INV, "D"), op(10, 4))
        assert seq.kernel_ids == ("diagsv",)
        assert seq.total_cost == 2 * 10 * 4

    def test_plain_pair_single_gemm(self):
        seq = find_sequence(op(8, 5, name="A"), op(5, 3, name="B"))
        assert seq.kernel_ids == ("gemm",)
        assert len(seq.steps) == 1

    def test_output_descriptor(self):
        seq = find_sequence(
            op(6, 6, {P.LOWER_TRIANGULAR}, name="L1"),
            op(6, 6, {P.LOWER_TRIANGULAR}, name="L2"),
        )
        assert seq.kernel_ids == ("trtrmm",)
        assert P.LOWER_TRIANGULAR in seq.output.props
        assert seq.output.tag is UnaryTag.ID


class TestSearchShape:
    def test_length_bound(self):
        rng = random.Random(7)
        for _ in range(200):
            left, right = random_operand_pair(rng)
            try:
                seq = find_sequence(left, right)
            except NoKernelApplicableError:
                continue
            assert 1 <= len(seq.steps) <= L
            assert seq.steps[-1].target == "both"
            assert all(s.target != "both" for s in seq.steps[:-1])

    def test_preps_op1_before_op2(self):
        seq = find_sequence(
            op(6, 6, tag=UnaryTag.INVT, name="A"), op(6, 6, tag=UnaryTag.INVT, name="B")
        )
        targets = [s.target for s in seq.steps[:-1]]
        assert targets == sorted(targets)

    def test_copy_never_preps(self):
        rng = random.Random(11)
        for _ in range(200):
            left, right = random_operand_pair(rng)
            try:
                seq = find_sequence(left, right)
            except NoKernelApplicableError:
                continue
            assert "copy" not in seq.kernel_ids

    def test_nonconforming_dims_raise_value_error(self):
        with pytest.raises(ValueError):
            find_sequence(op(4, 5), op(6, 2))

    def test_matches_pair_oracle(self):
        rng = random.Random(17)
        db = default_db()
        agreed = 0
        for _ in range(150):
            left, right = random_operand_pair(rng)
            oracle = best_pair_cost(left, right, db, FLOPS)
            try:
                seq = find_sequence(left, right, db)
            except NoKernelApplicableError:
                assert oracle == float("inf")
                continue
            assert seq.total_cost == pytest.approx(oracle)
            agreed += 1
        assert agreed > 50

    def test_no_explicit_inverse_when_solve_applies(self):
        # Left-side inverses always discharge through a solve kernel.
        for props in ((), (P.SPD,), (P.LOWER_TRIANGULAR,), (P.DIAGONAL,)):
            seq = find_sequence(op(12, 12, props, UnaryTag.INV, "A"), op(12, 5))
            assert "getri" not in seq.kernel_ids
            assert "trtri" not in seq.kernel_ids


class TestTieBreaks:
    def test_equal_cost_prefers_fewer_steps(self):
        # With gemm stripped of its transpose support, A^T * B goes either
        # through transp + gemm or through a fused kernel priced to tie.
        config = (
            "kernel gemm arity=2 tags=id;id req=; cost=2*m*k*n\n"
            "kernel tmm arity=2 tags=t;id req=; cost=2*m*k*n+m*k\n"
        )
        db = load_kernel_config(config)
        seq = find_sequence(op(5, 5, tag=UnaryTag.T, name="A"), op(5, 5, name="B"), db)
        assert seq.total_cost == 275
        assert seq.kernel_ids == ("tmm",)

    def test_equal_cost_equal_length_prefers_id_order(self):
        config = (
            "kernel zmm arity=2 tags=id;id req=; cost=2*m*k*n\n"
            "kernel amm arity=2 tags=id;id req=; cost=2*m*k*n\n"
        )
        db = load_kernel_config(config)
        seq = find_sequence(op(5, 5, name="A"), op(5, 5, name="B"), db)
        assert seq.kernel_ids == ("amm",)


class TestMaterialize:
    def test_plain_operand_copies(self):
        seq = materialize(op(6, 3, name="A"))
        assert seq.kernel_ids == ("copy",)
        assert seq.total_cost == 0

    def test_transpose(self):
        seq = materialize(op(6, 3, tag=UnaryTag.T, name="A"))
        assert seq.kernel_ids == ("transp",)
        assert seq.total_cost == 18

    def test_inverse(self):
        seq = materialize(op(6, 6, tag=UnaryTag.INV, name="A"))
        assert seq.kernel_ids == ("getri",)
        assert seq.total_cost == 2 * 216

    def test_triangular_inverse(self):
        seq = materialize(op(6, 6, {P.UPPER_TRIANGULAR}, UnaryTag.INV, "U"))
        assert seq.kernel_ids == ("trtri",)
        assert seq.total_cost == pytest.approx(216 / 3)

    def test_inverse_transpose_order_tie(self):
        # getri then transp and transp then getri cost the same; the id
        # tuple ("getri", "transp") sorts first.
        seq = materialize(op(6, 6, tag=UnaryTag.INVT, name="A"))
        assert seq.kernel_ids == ("getri", "transp")
        assert seq.total_cost == 2 * 216 + 36

    def test_unsatisfiable_without_unary_kernels(self):
        db = [k for k in default_db() if k.arity == 2]
        with pytest.raises(UnsatisfiableError):
            materialize(op(6, 6, tag=UnaryTag.INV, name="A"), db)


def render(seq, op1, op2, out_name, names=None, metric=FLOPS):
    """The solver's rendering of ``seq`` outside any loop."""
    loops = {"op1": ((), 1), "op2": ((), 1), "both": ((), 1)}
    return _render(seq, op1, op2, loops, out_name, names or _TempNames(), metric)


class TestRenderCalls:
    def test_single_call_names(self):
        seq = find_sequence(op(8, 5, name="A"), op(5, 3, name="B"))
        calls, final = render(seq, op(8, 5, name="A"), op(5, 3, name="B"), "C")
        assert len(calls) == 1
        call = calls[0]
        assert call.kernel_id == "gemm"
        assert call.inputs == ("A", "B")
        assert call.output == "C"
        assert call.comment == "C := A * B"
        assert final.name == "C"

    def test_prep_names_thread_through(self):
        a = op(10, 10, tag=UnaryTag.INVT, name="A")
        b = op(10, 4, name="B")
        seq = find_sequence(a, b)
        calls, final = render(seq, a, b, "C")
        assert [c.kernel_id for c in calls] == ["transp", "gesv"]
        assert calls[0].inputs == ("A",)
        assert calls[0].output == "T0"
        assert calls[0].comment == "T0 := A^T"
        assert calls[1].inputs == ("T0", "B")
        assert calls[1].output == "C"
        assert calls[1].comment == "C := T0^-1 * B"
        assert final.name == "C"

    def test_costs_sum_to_total(self):
        rng = random.Random(23)
        names = _TempNames()
        for _ in range(100):
            left, right = random_operand_pair(rng)
            for metric in (FLOPS, MEMORY):
                try:
                    seq = find_sequence(left, right, metric=metric)
                except NoKernelApplicableError:
                    continue
                calls, final = render(seq, left, right, "OUT", names, metric)
                assert sum(c.cost for c in calls) == pytest.approx(seq.total_cost)
                assert final.name == "OUT"
                assert final.signature() == seq.output.signature()

    def test_memory_metric_threads(self):
        a = op(10, 10, tag=UnaryTag.INVT, name="A")
        b = op(10, 4, name="B")
        seq = find_sequence(a, b, metric=MEMORY)
        calls, _ = render(seq, a, b, "C", metric=MEMORY)
        assert sum(c.cost for c in calls) == pytest.approx(seq.total_cost)

    def test_discharge_temp_varies_over_its_input(self):
        # A discharge runs under, and its temp is indexed by, only the
        # indices its input carries; the product runs under the segment's.
        i = IndexDecl("i", 8)
        decls = (
            i,
            matrix("A", 4, 10, indices=(i,)),
            matrix("B", 10, 10),
            matrix("X", 4, 10, indices=(i,)),
            matrix("M", 6, 6, indices=(i,)),
            vector("b", 6),
            vector("y", 6, indices=(i,)),
        )
        cases = (
            (
                "X[i] = A[i] * B^-1",
                [("T0 := B^-1", (), 1), ("X[i] := A[i] * T0", (i,), 8)],
            ),
            (
                "y[i] = M[i]^-T * b",
                [("T0[i] := M[i]^T", (i,), 8), ("y[i] := T0[i]^-1 * b", (i,), 8)],
            ),
        )
        for source, calls in cases:
            plan = solve(parse(source, decls))
            assert [(c.comment, c.loops, c.multiplicity) for c in plan.calls] == calls


class TestFailure:
    def test_no_binary_kernel(self):
        db = [k for k in default_db() if k.arity == 1]
        with pytest.raises(NoKernelApplicableError) as info:
            find_sequence(op(4, 4, name="A"), op(4, 4, name="B"), db)
        assert "A" in str(info.value)

    def test_undischargeable_tag(self):
        db = [k for k in default_db() if k.id in ("gemm", "copy")]
        with pytest.raises(NoKernelApplicableError):
            find_sequence(op(4, 4, tag=UnaryTag.INV, name="A"), op(4, 4, name="B"), db)


# --------------------------------------------------------------------------
# Reference: the exhaustive search without a structural table. It
# prices every step on the operand it actually applies to, so it checks
# that preps keep effective dims and that candidates share output props.


def _reference_chains(op, db, metric, max_len, with_copy=False):
    out = [((), 0.0, op)]
    frontier = [((), 0.0, op)]
    for _ in range(max_len):
        grown = []
        for steps, cost, cur in frontier:
            for kernel in match(cur, None, db):
                if kernel.peel is None and not with_copy:
                    continue
                result = kernel.apply_unary(cur, "")
                step_cost = metric.call_cost(kernel, call_mkn((cur,)))
                grown.append((steps + (kernel,), cost + step_cost, result))
        out.extend(grown)
        frontier = grown
    return out


def reference_sequence(op1, op2, db, metric):
    """((kernel id, target) pairs, total, output), or None without a route."""
    best = best_key = None
    for steps1, cost1, cur1 in _reference_chains(op1, db, metric, L - 1):
        budget = L - 1 - len(steps1)
        for steps2, cost2, cur2 in _reference_chains(op2, db, metric, budget):
            for kernel in match(cur1, cur2, db):
                out = product(cur1, cur2)
                bin_cost = metric.call_cost(kernel, call_mkn((cur1, cur2)))
                steps = (
                    tuple((k.id, "op1") for k in steps1)
                    + tuple((k.id, "op2") for k in steps2)
                    + ((kernel.id, "both"),)
                )
                total = cost1 + cost2 + bin_cost
                key = (total, len(steps), tuple(kid for kid, _ in steps))
                if best_key is None or key < best_key:
                    best_key, best = key, (steps, total, out)
    return best


def reference_materialize(op, db, metric):
    """(kernel ids, total, output), or None without a route."""
    best = best_key = None
    for steps, cost, cur in _reference_chains(op, db, metric, L, with_copy=True):
        if steps and cur.tag is UnaryTag.ID:
            key = (cost, len(steps), tuple(k.id for k in steps))
            if best_key is None or key < best_key:
                best_key, best = key, (key[2], cost, cur)
    return best


#: Costs that tell m, k and n apart, so a step priced at the wrong
#: dimensions changes the total. No copy and no general inverse, so
#: inverses of full operands are gaps.
ASYMMETRIC_CONFIG = """
kernel gemm arity=2 tags=id,t;id,t req=; cost=m*m*n
kernel trsm arity=2 tags=inv,invt;id req=lower_triangular; cost=k*k*k
kernel lmm arity=2 tags=id;t req=;upper_triangular cost=m*k*k+n
kernel transp arity=1 tags=t,invt req= cost=m*n*n/2
kernel trtri arity=1 tags=inv,invt req=lower_triangular cost=m*m*n+2*k
kernel dginv arity=1 tags=inv req=diagonal cost=m*n/2
"""

DATABASES = {
    "default": default_db(),
    "no_inverse": [k for k in default_db() if k.id not in ("getri", "trtri")],
    "asymmetric": load_kernel_config(ASYMMETRIC_CONFIG, base=[]),
}

DIMS = st.sampled_from([1, 2, 3, 5])


@st.composite
def tagged_operands(draw, rows, cols, name):
    """An operand of effective shape rows x cols, as the DP presents it."""
    tags = [UnaryTag.ID, UnaryTag.T]
    if rows == cols:
        tags += [UnaryTag.INV, UnaryTag.INVT]
    tag = draw(st.sampled_from(tags))
    swapped = tag in (UnaryTag.T, UnaryTag.INVT)
    stored = (cols, rows) if swapped else (rows, cols)
    menu = SQUARE_MENU if stored[0] == stored[1] else RECT_MENU
    if stored[1] == 1 and stored[0] > 1:
        menu = menu + [frozenset({P.VECTOR})]
    props = draw(st.sampled_from(menu))
    return TaggedOperand(*stored, close(props, *stored), tag, name)


@st.composite
def operand_pairs(draw):
    m, k, n = draw(DIMS), draw(DIMS), draw(DIMS)
    return draw(tagged_operands(m, k, "A")), draw(tagged_operands(k, n, "B"))


def rescaled(op, factor):
    """The same structural key at other dims: each dim but 1 times factor."""
    def scale(d):
        return d if d == 1 else d * factor

    return op._replace(rows=scale(op.rows), cols=scale(op.cols))


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(
        pairs=st.lists(operand_pairs(), min_size=1, max_size=3),
        factor=st.integers(2, 7),
        db_name=st.sampled_from(sorted(DATABASES)),
        metric=st.sampled_from([FLOPS, MEMORY]),
    )
    def test_find_sequence_matches_exhaustive_search(self, pairs, factor, db_name, metric):
        # The database keeps one structural table across calls: each
        # rescaled pair hits the entry (or recorded gap) made at the first
        # dims.
        db = DATABASES[db_name]
        for op1, op2 in pairs:
            for a, b in ((op1, op2), (rescaled(op1, factor), rescaled(op2, factor))):
                want = reference_sequence(a, b, db, metric)
                if want is None:
                    with pytest.raises(NoKernelApplicableError) as info:
                        find_sequence(a, b, db, metric)
                    assert str(info.value) == (
                        f"no kernel sequence of length <= {L} computes "
                        f"{_describe(a)} * {_describe(b)}"
                    )
                    continue
                got = find_sequence(a, b, db, metric)
                steps, total, output = want
                assert tuple((s.kernel.id, s.target) for s in got.steps) == steps
                assert got.total_cost == total
                assert got.output == output

    @settings(max_examples=200, deadline=None)
    @given(
        op=st.tuples(DIMS, DIMS).flatmap(lambda d: tagged_operands(*d, "A")),
        db_name=st.sampled_from(sorted(DATABASES)),
        metric=st.sampled_from([FLOPS, MEMORY]),
    )
    def test_materialize_matches_exhaustive_search(self, op, db_name, metric):
        db = DATABASES[db_name]
        want = reference_materialize(op, db, metric)
        if want is None:
            with pytest.raises(UnsatisfiableError):
                materialize(op, db, metric)
            return
        got = materialize(op, db, metric)
        assert got.kernel_ids == want[0]
        assert got.total_cost == want[1]
        assert got.output == want[2]

    def test_each_solve_uses_its_own_database(self):
        # Both databases meet the same structural keys, and both live in
        # one list object, as a recycled id() would look. A table kept
        # across solve calls would hand the second the first one's kernels.
        chain = parse("D = A * B * C", [matrix(x, 6, 6) for x in "ABCD"])
        cases = (
            ("kernel fastmm arity=2 tags=id;id req=; cost=m*n", "fastmm", 2 * 36),
            ("kernel gemm arity=2 tags=id;id req=; cost=3*m*k*n", "gemm", 2 * 648),
        )
        db = []
        for config, kernel_id, total in cases:
            db[:] = load_kernel_config(config)
            plan = solve(chain, db)
            assert {c.kernel_id for c in plan.calls} == {kernel_id}
            assert plan.total_cost == total


def uncached_candidates(op1, op2, db):
    """The structural step without a table: every pair of discharge chains
    matched against the whole database, dims checked."""
    out = []
    for pre1, cur1 in _unary_chains(op1, db, L - 1, "op1", False):
        for pre2, cur2 in _unary_chains(op2, db, L - 1, "op2", False):
            if len(pre1) + len(pre2) < L:
                for kernel in match(cur1, cur2, db):
                    out.append(pre1 + pre2 + (SeqStep(kernel, "both"),))
    return out


class TestStructuralTable:
    @settings(max_examples=300, deadline=None)
    @given(
        pairs=st.lists(operand_pairs(), min_size=2, max_size=6),
        factor=st.integers(2, 7),
        db_name=st.sampled_from(sorted(DATABASES)),
    )
    def test_warm_table_gives_the_fresh_candidate_list(self, pairs, factor, db_name):
        # The other pairs warm the table at other dims, so the operand
        # chains and state pairs it holds were filled by other operands.
        # Ties go to the earlier candidate, so the order must match too.
        db = DATABASES[db_name]
        table = {}
        *others, (op1, op2) = pairs
        for a, b in others:
            _candidates(rescaled(a, factor), rescaled(b, factor), db, table)
        want = _candidates(op1, op2, db, {})
        got = _candidates(op1, op2, db, table)
        assert got == want == uncached_candidates(op1, op2, db)

    def test_find_sequence_keeps_its_databases_table(self, monkeypatch):
        # Each call without a db gets a new list of the default kernels.
        # The second call is a new key, but its op1 state is the first
        # call's, so only its op2 state is enumerated.
        enumerated = []
        unary_chains = sequence._unary_chains

        def counted(op, db, max_len, target, with_copy):
            enumerated.append((op.props, op.tag, target))
            return unary_chains(op, db, max_len, target, with_copy)

        monkeypatch.setattr(sequence, "_unary_chains", counted)
        monkeypatch.setattr(sequence, "_structural", (None, {}))
        a, b = op(6, 6, tag=UnaryTag.INV, name="A"), op(6, 6, name="B")
        b_inv = b._replace(tag=UnaryTag.INV)
        assert find_sequence(a, b).kernel_ids == ("gesv",)
        assert enumerated == [(b.props, b.tag, "op2"), (a.props, a.tag, "op1")]
        del enumerated[:]
        assert find_sequence(a, b_inv).kernel_ids == ("getri", "gesv")
        assert enumerated == [(b.props, UnaryTag.INV, "op2")]

    def test_a_fifth_positional_argument_is_refused(self):
        # mults is keyword-only, so an old call that passed a table before
        # it cannot take the table as mults.
        a, b = op(6, 6, name="A"), op(6, 6, name="B")
        with pytest.raises(TypeError):
            find_sequence(a, b, default_db(), FLOPS, (1, 1, 1))
        seq = find_sequence(a, b, default_db(), FLOPS, mults=(1, 1, 3))
        assert seq.total_cost == 3 * find_sequence(a, b).total_cost

    def test_output_props_are_inferred_once_per_key_and_squareness(self, monkeypatch):
        # Every pair has one structural key, two plain non-square operands,
        # and its product is square or not: two inferences for four pairs.
        inferred = []
        infer = kernels.infer_properties

        def counted(*args):
            inferred.append(args)
            return infer(*args)

        monkeypatch.setattr(kernels, "infer_properties", counted)
        monkeypatch.setattr(sequence, "_structural", (None, {}))
        shapes = ((4, 3, 4), (4, 3, 5), (5, 2, 5), (6, 2, 3))
        outs = [find_sequence(op(m, k), op(k, n)).output for m, k, n in shapes]
        assert len(inferred) == 2
        assert [(out.rows, out.cols) for out in outs] == [(4, 4), (4, 5), (5, 5), (6, 3)]
        assert [P.SQUARE in out.props for out in outs] == [True, False, True, False]


#: Every default kernel at 0 flops, so every candidate of a pair ties.
ZERO_DB = [kern._replace(flops=lambda m, k, n: 0 * m) for kern in default_db()]
#: huge costs 10^400 flops at dims 10^100, where gemm still fits; at dims
#: 10^110 every binary kernel's flops overflow.
HUGE_DB = default_db() + load_kernel_config("kernel huge arity=2 tags=id;id req=; cost=m*k*n*m\n")


def times(cost, r):
    """``cost`` charged ``r`` times: 0 stays 0, and a multiplicity beyond
    the float range makes any other cost inf."""
    if not cost:
        return 0.0
    try:
        return cost * float(r)
    except OverflowError:
        return math.inf


def reference_cheapest(candidates, m, k, n, metric, mults):
    """The cost step written plainly. Each step's ``call_cost`` is taken at
    its target's (m, k, n) and summed in order. Under unequal multiplicities
    each call is charged its target's; under equal ones the cheapest
    uncharged total is charged r times afterwards. The least
    ``(total, steps, kernel ids)`` wins, then the earlier candidate. A
    candidate with an overflowing call is skipped, and the first such error
    is raised when every candidate has one. Also returns how many
    candidates were skipped."""
    targets = ("op1", "op2", "both")
    args = {"op1": (m, k, k), "op2": (k, n, n), "both": (m, k, n)}
    mults = mults or (1, 1, 1)
    equal = len(set(mults)) == 1
    best = best_key = first_error = None
    skipped = 0
    for steps in candidates:
        ids = tuple(step.kernel.id for step in steps)
        total = 0.0
        try:
            for step in steps:
                cost = metric.call_cost(step.kernel, args[step.target])
                total += cost if equal else times(cost, mults[targets.index(step.target)])
        except CostOverflowError as exc:
            first_error = first_error or exc
            skipped += 1
            continue
        if best_key is None or (total, len(steps), ids) < best_key:
            best, best_key = steps, (total, len(steps), ids)
    if best is None:
        raise first_error
    total = times(best_key[0], mults[2]) if equal else best_key[0]
    return best, total, skipped


class TestCostStep:
    def test_cheapest_equals_plain_reference(self):
        # A lone candidate under equal multiplicities takes a shorter path.
        dbs = (default_db(), ZERO_DB, HUGE_DB)
        ranges = (1, 3, 10 ** 11, 10 ** 160, 10 ** 400)
        rng = random.Random(20261021)
        seen = dict.fromkeys(
            ("lone", "several", "unequal", "beyond float", "zero", "skipped", "raised"), 0
        )
        for _ in range(3000):
            op1, op2 = random_operand_pair(rng, dim_max=3)
            factor = rng.choice((1, 7, 10 ** 100, 10 ** 110))
            op1, op2 = rescaled(op1, factor), rescaled(op2, factor)
            db, metric = rng.choice(dbs), rng.choice((FLOPS, MEMORY))
            candidates = _candidates(op1, op2, db, {})
            if not candidates:
                continue
            r1, r2 = rng.choice(ranges), rng.choice(ranges)
            mults = rng.choice((None, (r1, r2, max(r1, r2)), (r1, r2, r1 * r2)))
            mkn = call_mkn((op1, op2))
            try:
                want = reference_cheapest(candidates, *mkn, metric, mults)
            except CostOverflowError as exc:
                with pytest.raises(CostOverflowError) as info:
                    _cheapest(candidates, *mkn, metric, mults)
                assert str(info.value) == str(exc)
                seen["raised"] += 1
                continue
            steps, total = _cheapest(candidates, *mkn, metric, mults)
            assert steps is want[0]
            assert total == want[1]
            seen["skipped"] += want[2] > 0
            unequal = mults is not None and len(set(mults)) > 1
            seen["several"] += len(candidates) > 1
            seen["lone"] += len(candidates) == 1 and not unequal
            seen["unequal"] += unequal
            seen["beyond float"] += mults is not None and max(mults) > 10 ** 309
            seen["zero"] += total == 0.0
        assert min(seen.values()) > 20, seen


def outcome(price, *args):
    """``price(*args)``, or the text of the :class:`CostOverflowError` it
    raises."""
    try:
        return price(*args)
    except CostOverflowError as exc:
        return str(exc)


def is_sublist(part, whole):
    """Whether ``part`` is ``whole`` with some items left out."""
    rest = iter(whole)
    return all(any(p == w for w in rest) for p in part)


class TestDominance:
    """A structural entry keeps only the routes no other route dominates."""

    def test_transposed_left_operand_keeps_only_gemm(self):
        a, b = op(5, 3, tag=UnaryTag.T, name="A"), op(5, 2, name="B")
        full = _candidates(a, b, default_db(), {})
        candidates, lone = _entry(a, b, default_db(), {})
        assert [tuple(s.kernel.id for s in steps) for steps in full] == [
            ("gemm",),
            ("transp", "gemm"),
        ]
        assert candidates == [full[0]]
        assert lone is full[0][0].kernel

    def test_longer_route_with_other_preps_is_kept(self):
        # transp+fastinv+gemm is longer than slowinv+gemm, but its preps do
        # not contain slowinv, and it is far cheaper.
        db = load_kernel_config(
            "kernel gemm arity=2 tags=id,t;id req=; cost=2*m*k*n\n"
            "kernel slowinv arity=1 tags=inv,invt req=square cost=100*m*m*m\n"
            "kernel fastinv arity=1 tags=inv req=square cost=m\n"
            "kernel transp arity=1 tags=t,invt req= cost=m*n\n",
            base=[],
        )
        a, b = op(4, 4, tag=UnaryTag.INVT, name="A"), op(4, 2, name="B")
        candidates, lone = _entry(a, b, db, {})
        routes = [tuple(s.kernel.id for s in steps) for steps in candidates]
        assert routes == [("slowinv", "gemm"), ("transp", "fastinv", "gemm")]
        assert lone is None
        assert find_sequence(a, b, db).kernel_ids == ("transp", "fastinv", "gemm")

    def test_pruned_entry_prices_as_the_full_list(self):
        # Each database keeps one table across dims, so an entry made at
        # one scale prices pairs at another. A lone one-call route is also
        # charged directly, as the DP fill charges it.
        dbs = (*DATABASES.values(), ZERO_DB, HUGE_DB)
        tables = [{} for _ in dbs]
        ranges = (1, 3, 10 ** 11, 10 ** 160, 10 ** 400)
        rng = random.Random(20261023)
        seen = dict.fromkeys(("pruned", "kept", "lone", "unequal", "raised", "raised, pruned"), 0)
        for _ in range(4000):
            op1, op2 = random_operand_pair(rng, dim_max=3)
            factor = rng.choice((1, 7, 10 ** 100, 10 ** 110))
            op1, op2 = rescaled(op1, factor), rescaled(op2, factor)
            at = rng.randrange(len(dbs))
            db, metric = dbs[at], rng.choice((FLOPS, MEMORY))
            full = _candidates(op1, op2, db, {})
            candidates, lone = _entry(op1, op2, db, tables[at])
            assert is_sublist(candidates, full)
            assert bool(candidates) == bool(full)
            if not full:
                continue
            one_call = len(candidates) == 1 and len(candidates[0]) == 1
            assert lone is (candidates[0][0].kernel if one_call else None)
            r, r1, r2 = rng.choice(ranges), rng.choice(ranges), rng.choice(ranges)
            mults = rng.choice((None, (r, r, r), (r1, r2, max(r1, r2)), (r1, r2, r1 * r2)))
            mkn = call_mkn((op1, op2))
            want = outcome(_cheapest, full, *mkn, metric, mults)
            got = outcome(_cheapest, candidates, *mkn, metric, mults)
            assert got == want
            raised = isinstance(want, str)
            if lone:
                r = mults[2] if mults else 1
                charged = outcome(lambda: _charged(metric.call_cost(lone, mkn), r))
                assert charged == (want if raised else want[1])
                seen["lone"] += 1
            pruned = len(candidates) < len(full)
            seen["pruned"] += pruned
            seen["kept"] += not pruned
            seen["raised"] += raised
            seen["raised, pruned"] += raised and pruned
            seen["unequal"] += mults is not None and len(set(mults)) > 1
        assert min(seen.values()) > 50, seen


class TestOutputShape:
    """A call's m x n result is what MEMORY charges from its (m, k, n)."""

    def test_memory_cost_is_result_size(self):
        # Small dims make square operands, which most kernels require.
        rng = random.Random(29)
        seen = set()
        for _ in range(2000):
            pair = random_operand_pair(rng, dim_max=2)
            for db in DATABASES.values():
                for inputs in ((pair[0],), (pair[1],), pair):
                    for kernel in match(*inputs, db=db):
                        if kernel.arity == 1:
                            out = kernel.apply_unary(inputs[0], "")
                        else:
                            out = product(*inputs)
                        cost = MEMORY.call_cost(kernel, call_mkn(inputs))
                        assert cost == out.rows * out.cols
                        seen.add(kernel)
        assert seen == {k for db in DATABASES.values() for k in db}
