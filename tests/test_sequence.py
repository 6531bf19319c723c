"""Kernel sequence search for a single combination step."""

import random
from itertools import count

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
from matchain.errors import NoKernelApplicableError
from matchain.kernels import Kernel, call_mkn, product
from matchain import kernels, sequence
from matchain.sequence import L, SeqStep, Structures, _cheapest, _describe
from matchain.solver import _render
from matchain.properties import Property

from helpers import RECT_MENU, SQUARE_MENU, fresh_structures, pair_sids, random_operand_pair

P = Property

#: The built-in cost unit: sequence totals count thirds of a flop.
U = 3


def op(rows, cols, props=(), tag=UnaryTag.ID):
    return TaggedOperand(rows, cols, close(props, rows, cols), tag)


class TestDischarge:
    def test_inverse_times_vector_is_a_solve(self):
        seq = find_sequence(op(10, 10, tag=UnaryTag.INV), op(10, 1))
        assert seq.kernel_ids == ("gesv",)
        assert seq.total_cost == 2 * 1000 + U * 200

    def test_triangular_inverse_transpose_single_trsm(self):
        seq = find_sequence(
            op(10, 10, {P.LOWER_TRIANGULAR}, UnaryTag.INVT), op(10, 4)
        )
        assert seq.kernel_ids == ("trsm",)
        assert seq.total_cost == U * 10 ** 2 * 4

    def test_inverse_transpose_full_preps_with_transp(self):
        # Explicit inversion costs 2n^3; transposing first keeps the solve.
        seq = find_sequence(op(10, 10, tag=UnaryTag.INVT), op(10, 4))
        assert seq.kernel_ids == ("transp", "gesv")
        assert seq.total_cost == U * 100 + 2 * 1000 + U * 800

    def test_right_side_inverse_needs_getri(self):
        # No solve kernel takes the inverse on the right, so invert explicitly.
        seq = find_sequence(op(4, 10), op(10, 10, tag=UnaryTag.INV))
        assert seq.kernel_ids == ("getri", "gemm")
        assert seq.total_cost == U * (2 * 1000 + 2 * 4 * 10 * 10)

    def test_double_transpose_absorbed_by_gemm(self):
        seq = find_sequence(
            op(8, 5, tag=UnaryTag.T), op(3, 8, tag=UnaryTag.T)
        )
        assert seq.kernel_ids == ("gemm",)
        assert seq.total_cost == U * 2 * 5 * 8 * 3

    def test_spd_solve_beats_general(self):
        seq = find_sequence(op(10, 10, {P.SPD}, UnaryTag.INV), op(10, 4))
        assert seq.kernel_ids == ("posv",)

    def test_diagonal_solve(self):
        seq = find_sequence(op(10, 10, {P.DIAGONAL}, UnaryTag.INV), op(10, 4))
        assert seq.kernel_ids == ("diagsv",)
        assert seq.total_cost == U * 2 * 10 * 4

    def test_plain_pair_single_gemm(self):
        seq = find_sequence(op(8, 5), op(5, 3))
        assert seq.kernel_ids == ("gemm",)
        assert len(seq.steps) == 1

    def test_output_descriptor(self):
        seq = find_sequence(
            op(6, 6, {P.LOWER_TRIANGULAR}),
            op(6, 6, {P.LOWER_TRIANGULAR}),
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
            op(6, 6, tag=UnaryTag.INVT), op(6, 6, tag=UnaryTag.INVT)
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
            assert seq.total_cost == oracle
            agreed += 1
        assert agreed > 50

    def test_no_explicit_inverse_when_solve_applies(self):
        # Left-side inverses always discharge through a solve kernel.
        for props in ((), (P.SPD,), (P.LOWER_TRIANGULAR,), (P.DIAGONAL,)):
            seq = find_sequence(op(12, 12, props, UnaryTag.INV), op(12, 5))
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
        seq = find_sequence(op(5, 5, tag=UnaryTag.T), op(5, 5), db)
        assert seq.total_cost == U * 275
        assert seq.kernel_ids == ("tmm",)

    def test_equal_cost_equal_length_prefers_id_order(self):
        config = (
            "kernel zmm arity=2 tags=id;id req=; cost=2*m*k*n\n"
            "kernel amm arity=2 tags=id;id req=; cost=2*m*k*n\n"
        )
        db = load_kernel_config(config)
        seq = find_sequence(op(5, 5), op(5, 5), db)
        assert seq.kernel_ids == ("amm",)


class TestMaterialize:
    def test_plain_operand_copies(self):
        seq = materialize(op(6, 3))
        assert seq.kernel_ids == ("copy",)
        assert seq.total_cost == 0

    def test_transpose(self):
        seq = materialize(op(6, 3, tag=UnaryTag.T))
        assert seq.kernel_ids == ("transp",)
        assert seq.total_cost == U * 18

    def test_inverse(self):
        seq = materialize(op(6, 6, tag=UnaryTag.INV))
        assert seq.kernel_ids == ("getri",)
        assert seq.total_cost == U * 2 * 216

    def test_triangular_inverse(self):
        seq = materialize(op(6, 6, {P.UPPER_TRIANGULAR}, UnaryTag.INV))
        assert seq.kernel_ids == ("trtri",)
        assert seq.total_cost == 216

    def test_inverse_transpose_order_tie(self):
        # getri then transp and transp then getri cost the same; the id
        # tuple ("getri", "transp") sorts first.
        seq = materialize(op(6, 6, tag=UnaryTag.INVT))
        assert seq.kernel_ids == ("getri", "transp")
        assert seq.total_cost == U * (2 * 216 + 36)

    def test_none_without_unary_kernels(self):
        # The solver, which knows the operand's name, reports the gap.
        db = [k for k in default_db() if k.arity == 2]
        assert materialize(op(6, 6, tag=UnaryTag.INV), db) is None


def render(seq, op1, op2, out_name, names=None, metric=FLOPS):
    """The solver's rendering of ``seq`` outside any loop, for the
    ``(operand, name)`` pairs ``op1`` and ``op2``."""
    loops = {"op1": (), "op2": (), "both": ()}
    return _render(seq, op1, op2, loops, out_name, names or count(), metric)


class TestRenderCalls:
    def test_single_call_names(self):
        a, b = op(8, 5), op(5, 3)
        seq = find_sequence(a, b)
        calls, final = render(seq, (a, "A"), (b, "B"), "C")
        assert len(calls) == 1
        call = calls[0]
        assert call.kernel_id == "gemm"
        assert call.inputs == ("A", "B")
        assert call.output == "C"
        assert call.comment == "C := A * B"
        assert final == (seq.output, "C")

    def test_prep_names_thread_through(self):
        a = op(10, 10, tag=UnaryTag.INVT)
        b = op(10, 4)
        seq = find_sequence(a, b)
        calls, final = render(seq, (a, "A"), (b, "B"), "C")
        assert [c.kernel_id for c in calls] == ["transp", "gesv"]
        assert calls[0].inputs == ("A",)
        assert calls[0].output == "T0"
        assert calls[0].comment == "T0 := A^T"
        assert calls[1].inputs == ("T0", "B")
        assert calls[1].output == "C"
        assert calls[1].comment == "C := T0^-1 * B"
        assert final == (seq.output, "C")

    def test_costs_sum_to_total(self):
        rng = random.Random(23)
        names = count()
        for _ in range(100):
            left, right = random_operand_pair(rng)
            for metric in (FLOPS, MEMORY):
                try:
                    seq = find_sequence(left, right, metric=metric)
                except NoKernelApplicableError:
                    continue
                calls, final = render(seq, (left, "L"), (right, "R"), "OUT", names, metric)
                assert sum(c.cost for c in calls) == pytest.approx(seq.total_cost / U)
                assert final == (seq.output, "OUT")

    def test_memory_metric_threads(self):
        a = op(10, 10, tag=UnaryTag.INVT)
        b = op(10, 4)
        seq = find_sequence(a, b, metric=MEMORY)
        calls, _ = render(seq, (a, "A"), (b, "B"), "C", metric=MEMORY)
        assert sum(c.cost for c in calls) == seq.total_cost / U == 100 + 40

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
            find_sequence(op(4, 4), op(4, 4), db)
        # A search state has no name, so the message describes structure.
        assert str(info.value) == (
            "no kernel sequence of length <= 3 computes "
            "operand (4x4, props: square) * operand (4x4, props: square)"
        )

    def test_undischargeable_tag(self):
        db = [k for k in default_db() if k.id in ("gemm", "copy")]
        with pytest.raises(NoKernelApplicableError):
            find_sequence(op(4, 4, tag=UnaryTag.INV), op(4, 4), db)


# --------------------------------------------------------------------------
# Reference: the exhaustive search without Structures. It prices every
# step on the operand it actually applies to, so it checks that preps keep
# effective dims and that candidates share output props.


def _reference_chains(op, db, metric, max_len, with_copy=False):
    out = [((), 0, op)]
    frontier = [((), 0, op)]
    for _ in range(max_len):
        grown = []
        for steps, cost, cur in frontier:
            for kernel in match(cur, None, db):
                if kernel.peel is None and not with_copy:
                    continue
                result = kernel.apply_unary(cur)
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

#: Two copies, the dearer one first, and a peel that costs nothing, so a
#: copy after a discharge adds cost and routes through transp tie.
COPIES_CONFIG = """
kernel gemm arity=2 tags=id;id req=; cost=2*m*k*n
kernel dearcopy arity=1 tags=id req= cost=3*m*n
kernel copy arity=1 tags=id req= cost=m*n/2
kernel transp arity=1 tags=t,invt req= cost=0
kernel getri arity=1 tags=inv,invt req=square cost=2*m*m*m
"""

DATABASES = {
    "default": default_db(),
    "no_inverse": [k for k in default_db() if k.id not in ("getri", "trtri")],
    "asymmetric": load_kernel_config(ASYMMETRIC_CONFIG, base=[]),
    "copies": load_kernel_config(COPIES_CONFIG, base=[]),
}

DIMS = st.sampled_from([1, 2, 3, 5])


@st.composite
def tagged_operands(draw, rows, cols):
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
    return TaggedOperand(*stored, close(props, *stored), tag)


@st.composite
def operand_pairs(draw):
    m, k, n = draw(DIMS), draw(DIMS), draw(DIMS)
    return draw(tagged_operands(m, k)), draw(tagged_operands(k, n))


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
        # The database keeps one Structures across calls: each
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
        op=st.tuples(DIMS, DIMS).flatmap(lambda d: tagged_operands(*d)),
        db_name=st.sampled_from(sorted(DATABASES)),
        metric=st.sampled_from([FLOPS, MEMORY]),
    )
    def test_materialize_matches_exhaustive_search(self, op, db_name, metric):
        db = DATABASES[db_name]
        want = reference_materialize(op, db, metric)
        got = materialize(op, db, metric)
        if want is None:
            assert got is None
            return
        assert got.kernel_ids == want[0]
        assert got.total_cost == want[1]
        assert got.output == want[2]

    def test_each_solve_uses_its_own_database(self):
        # Both databases meet the same structural keys, and both live in
        # one list object, as a recycled id() would look. Structures kept
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
    """The structural step without Structures: every pair of discharge chains
    matched against the whole database, dims checked."""
    out = []
    for pre1, _, cur1 in _reference_chains(op1, db, FLOPS, L - 1):
        for pre2, _, cur2 in _reference_chains(op2, db, FLOPS, L - 1):
            if len(pre1) + len(pre2) < L:
                preps = tuple(SeqStep(k, "op1") for k in pre1)
                preps += tuple(SeqStep(k, "op2") for k in pre2)
                for kernel in match(cur1, cur2, db):
                    out.append(preps + (SeqStep(kernel, "both"),))
    return out


class TestStructuralTable:
    @settings(max_examples=300, deadline=None)
    @given(
        pairs=st.lists(operand_pairs(), min_size=2, max_size=6),
        factor=st.integers(2, 7),
        db_name=st.sampled_from(sorted(DATABASES)),
    )
    def test_warm_table_gives_the_fresh_candidate_list(self, pairs, factor, db_name):
        # The other pairs warm the maps at other dims, so the operand
        # chains and state pairs they hold were filled by other operands.
        # Ties go to the earlier candidate, so the order must match too.
        db = DATABASES[db_name]
        warm = Structures(db)
        *others, (op1, op2) = pairs
        for a, b in others:
            warm.candidates(*pair_sids(warm, rescaled(a, factor), rescaled(b, factor)))
        fresh = Structures(db)
        want = fresh.candidates(*pair_sids(fresh, op1, op2))
        got = warm.candidates(*pair_sids(warm, op1, op2))
        assert got == want == uncached_candidates(op1, op2, db)

    def test_find_sequence_keeps_its_databases_table(self, monkeypatch):
        # Each call without a db gets a new list of the default kernels.
        # The second call is a new key, but its op1 state is the first
        # call's, so only its op2 state is enumerated; the first call's
        # chains are kept as they were.
        facts = fresh_structures(monkeypatch, default_db())
        a, b = op(6, 6, tag=UnaryTag.INV), op(6, 6)
        b_inv = b._replace(tag=UnaryTag.INV)
        assert find_sequence(a, b).kernel_ids == ("gesv",)
        sa, sb = pair_sids(facts, a, b)
        first = dict(facts.chains)
        assert list(first) == [(sb, "op2"), (sa, "op1")]
        assert find_sequence(a, b_inv).kernel_ids == ("getri", "gesv")
        assert sequence._latest is facts
        second = dict(facts.chains)
        assert list(second) == [*first, (facts.sid[b.props, UnaryTag.INV], "op2")]
        assert all(second[key] is chains for key, chains in first.items())

    def test_materialize_reuses_the_discharge_chains(self, monkeypatch):
        # A single factor's routes are its op1 discharge chains: a state
        # met once, by find_sequence or materialize, at any dims, is not
        # enumerated again. A tag-free operand's copies are matched anew.
        matched = []
        match_ = sequence.match

        def counted(*args):
            matched.append(args[0].tag)
            return match_(*args)

        monkeypatch.setattr(sequence, "match", counted)
        fresh_structures(monkeypatch)
        a, b = op(6, 6, tag=UnaryTag.INVT), op(6, 6)
        assert find_sequence(a, b).kernel_ids == ("transp", "gesv")
        del matched[:]
        first = materialize(a)
        assert matched == []
        assert first.kernel_ids == ("getri", "transp")
        assert materialize(op(9, 9, tag=UnaryTag.INVT)).kernel_ids == first.kernel_ids
        assert matched == []
        for _ in range(2):
            assert materialize(b).kernel_ids == ("copy",)
            assert matched == [UnaryTag.ID]
            del matched[:]

    def test_planning_reaches_the_traced_hooks(self, monkeypatch):
        # perfbench's tracer replaces these module attributes with wrappers
        # and counts their calls. A structural step that bound either name
        # at import would bypass the wrappers and read 0 calls. A database
        # unequal to the built-ins starts from new Structures, so the step
        # runs whatever earlier tests have filled.
        calls = dict.fromkeys(("match", "infer_properties"), 0)
        for module, name in ((sequence, "match"), (kernels, "infer_properties")):

            def wrapper(*args, _original=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)
        db = load_kernel_config("kernel scale arity=1 tags=t req= cost=m*n\n")
        ops = [matrix("A", 5, 4), matrix("B", 5, 5), matrix("C", 5, 3), matrix("D", 4, 3)]
        plan = solve(parse("D = A^T * B^-1 * C", ops), db)
        assert [call.kernel_id for call in plan.calls] == ["gesv", "gemm"]
        assert calls["match"] > 0 and calls["infer_properties"] > 0, calls

    def test_a_fifth_positional_argument_is_refused(self):
        # mults is keyword-only, so an old call that passed a table before
        # it cannot take the table as mults.
        a, b = op(6, 6), op(6, 6)
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
        fresh_structures(monkeypatch)
        shapes = ((4, 3, 4), (4, 3, 5), (5, 2, 5), (6, 2, 3))
        outs = [find_sequence(op(m, k), op(k, n)).output for m, k, n in shapes]
        assert len(inferred) == 2
        assert [(out.rows, out.cols) for out in outs] == [(4, 4), (4, 5), (5, 5), (6, 3)]
        assert [P.SQUARE in out.props for out in outs] == [True, False, True, False]


#: Every default kernel at 0 flops, so every candidate of a pair ties.
ZERO_DB = [kern._replace(flops=lambda m, k, n: 0 * m) for kern in default_db()]
#: huge costs m^2 k n flops: 10^400 at dims 10^100, where gemm's are 10^300.
HUGE_DB = default_db() + load_kernel_config("kernel huge arity=2 tags=id;id req=; cost=m*k*n*m\n")


def reference_cheapest(candidates, m, k, n, metric, mults):
    """The cost step written plainly: each step's ``call_cost`` is taken at
    its target's (m, k, n), charged its target's multiplicity and summed,
    and the least ``(total, steps, kernel ids)`` wins, then the earlier
    candidate."""
    targets = ("op1", "op2", "both")
    args = {"op1": (m, k, k), "op2": (k, n, n), "both": (m, k, n)}
    best = best_key = None
    for steps in candidates:
        ids = tuple(step.kernel.id for step in steps)
        total = sum(
            metric.call_cost(step.kernel, args[step.target])
            * mults[targets.index(step.target)]
            for step in steps
        )
        if best_key is None or (total, len(steps), ids) < best_key:
            best, best_key = steps, (total, len(steps), ids)
    return best, best_key[0]


class TestCostStep:
    def test_cheapest_equals_plain_reference(self):
        dbs = (default_db(), ZERO_DB, HUGE_DB)
        ranges = (1, 3, 10 ** 11, 10 ** 160, 10 ** 400)
        rng = random.Random(20261021)
        seen = dict.fromkeys(("lone", "several", "unequal", "beyond float", "zero"), 0)
        for _ in range(3000):
            op1, op2 = random_operand_pair(rng, dim_max=3)
            factor = rng.choice((1, 7, 10 ** 100, 10 ** 110))
            op1, op2 = rescaled(op1, factor), rescaled(op2, factor)
            db, metric = rng.choice(dbs), rng.choice((FLOPS, MEMORY))
            facts = Structures(db)
            candidates = facts.candidates(*pair_sids(facts, op1, op2))
            if not candidates:
                continue
            r, r1, r2 = rng.choice(ranges), rng.choice(ranges), rng.choice(ranges)
            mults = rng.choice(((1, 1, 1), (r, r, r), (r1, r2, max(r1, r2)), (r1, r2, r1 * r2)))
            mkn = call_mkn((op1, op2))
            want = reference_cheapest(candidates, *mkn, metric, mults)
            steps, total = _cheapest(candidates, *mkn, metric, mults)
            assert steps is want[0]
            assert type(total) is int and total == want[1]
            unequal = len(set(mults)) > 1
            seen["several"] += len(candidates) > 1
            seen["lone"] += len(candidates) == 1 and not unequal
            seen["unequal"] += unequal
            seen["beyond float"] += total > 10 ** 309
            seen["zero"] += total == 0
        assert min(seen.values()) > 20, seen


def is_sublist(part, whole):
    """Whether ``part`` is ``whole`` with some items left out."""
    rest = iter(whole)
    return all(any(p == w for w in rest) for p in part)


class TestDominance:
    """A structural entry keeps only the routes no other route dominates."""

    def test_transposed_left_operand_keeps_only_gemm(self):
        a, b = op(5, 3, tag=UnaryTag.T), op(5, 2)
        facts = Structures(default_db())
        full = facts.candidates(*pair_sids(facts, a, b))
        candidates, lone = facts.entry[pair_sids(facts, a, b)]
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
        a, b = op(4, 4, tag=UnaryTag.INVT), op(4, 2)
        facts = Structures(db)
        candidates, lone = facts.entry[pair_sids(facts, a, b)]
        routes = [tuple(s.kernel.id for s in steps) for steps in candidates]
        assert routes == [("slowinv", "gemm"), ("transp", "fastinv", "gemm")]
        assert lone is None
        assert find_sequence(a, b, db).kernel_ids == ("transp", "fastinv", "gemm")

    def test_pruned_entry_prices_as_the_full_list(self):
        # Each database keeps one Structures across dims, so an entry made
        # at one scale prices pairs at another. A lone one-call route is
        # also charged directly, as the DP fill charges it.
        dbs = (*DATABASES.values(), ZERO_DB, HUGE_DB)
        kept = [Structures(db) for db in dbs]
        ranges = (1, 3, 10 ** 11, 10 ** 160, 10 ** 400)
        rng = random.Random(20261023)
        seen = dict.fromkeys(("pruned", "kept", "lone", "unequal", "beyond float"), 0)
        for _ in range(4000):
            op1, op2 = random_operand_pair(rng, dim_max=3)
            factor = rng.choice((1, 7, 10 ** 100, 10 ** 110))
            op1, op2 = rescaled(op1, factor), rescaled(op2, factor)
            at = rng.randrange(len(dbs))
            db, metric = dbs[at], rng.choice((FLOPS, MEMORY))
            fresh = Structures(db)
            full = fresh.candidates(*pair_sids(fresh, op1, op2))
            candidates, lone = kept[at].entry[pair_sids(kept[at], op1, op2)]
            assert is_sublist(candidates, full)
            assert bool(candidates) == bool(full)
            if not full:
                continue
            one_call = len(candidates) == 1 and len(candidates[0]) == 1
            assert lone is (candidates[0][0].kernel if one_call else None)
            r, r1, r2 = rng.choice(ranges), rng.choice(ranges), rng.choice(ranges)
            mults = rng.choice(((1, 1, 1), (r, r, r), (r1, r2, max(r1, r2)), (r1, r2, r1 * r2)))
            mkn = call_mkn((op1, op2))
            want = _cheapest(full, *mkn, metric, mults)
            assert _cheapest(candidates, *mkn, metric, mults) == want
            if lone:
                assert metric.call_cost(lone, mkn) * mults[2] == want[1]
                seen["lone"] += 1
            pruned = len(candidates) < len(full)
            seen["pruned"] += pruned
            seen["kept"] += not pruned
            seen["unequal"] += len(set(mults)) > 1
            seen["beyond float"] += want[1] > 10 ** 309
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
                            out = kernel.apply_unary(inputs[0])
                        else:
                            out = product(*inputs)
                        cost = MEMORY.call_cost(kernel, call_mkn(inputs))
                        assert cost == out.rows * out.cols * kernel.unit
                        seen.add(kernel)
        assert seen == {k for db in DATABASES.values() for k in db}
