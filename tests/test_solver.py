"""Chain solver: DP tables, plan extraction, and index handling."""

import math
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from matchain import (
    FLOPS,
    MEMORY,
    DPStats,
    IndexDecl,
    Property,
    TaggedOperand,
    UnaryTag,
    brute_force_min,
    build_tables,
    default_db,
    emit_text,
    find_sequence,
    index_range,
    load_kernel_config,
    load_problem,
    materialize,
    matrix,
    naive_cost,
    parse,
    solve,
    vector,
)
from matchain import kernels, sequence, solver
from matchain.errors import (
    InvalidChainError,
    NoKernelApplicableError,
    UnsatisfiableError,
)
from matchain.solver import _base_operand

from helpers import child_env, random_chain, tree_splits

P = Property

#: The built-in cost unit: DP table costs count thirds of a flop.
U = 3


def chain_of(text, *decls):
    return parse(text, decls)


class TestExamples:
    def test_classic_parenthesization(self):
        chain = chain_of(
            "D = A * B * C",
            matrix("A", 10, 100),
            matrix("B", 100, 5),
            matrix("C", 5, 50),
            matrix("D", 10, 50),
        )
        plan = solve(chain)
        assert plan.total_cost == 15_000
        assert plan.parenthesization == ((0, 1), 2)
        assert [c.kernel_id for c in plan.calls] == ["gemm", "gemm"]
        assert plan.calls[0].inputs == ("A", "B")
        assert plan.calls[1].inputs == ("T0", "C")
        assert plan.calls[1].output == "D"

    def test_exact_tie_goes_to_the_smaller_split(self):
        # Statement X342 of the benchmark's 1000-statement file (cli_mix,
        # seed 1). Splits k=5 and k=6 of segment 3..7 tie exactly at
        # 1294310/3 flops in all. Float sums ranked k=6 first, against the
        # rule that the smallest split wins exact ties, and reported a
        # total one ulp low.
        problem = load_problem(
            "index i 8\n"
            "index j 5\n"
            "matrix S342_M0 13 6 lower_triangular indices=i\n"
            "matrix S342_M1 15 13 upper_triangular\n"
            "matrix S342_M2 2 15 full\n"
            "matrix S342_M3 2 16 lower_triangular indices=i\n"
            "matrix S342_M4 16 16 diagonal indices=i\n"
            "matrix S342_M5 16 16 identity indices=i\n"
            "matrix S342_M6 35 16 indices=j\n"
            "matrix S342_M7 35 35 full\n"
            "compute X342[i,j] = S342_M0[i]^T * S342_M1^T * S342_M2^T * S342_M3[i]"
            " * S342_M4[i]^T * S342_M5[i]^-1 * S342_M6[j]^T * S342_M7^-T\n"
        )
        chain = problem.computes[0].chain
        plan = solve(chain)
        won = ((0, (1, 2)), ((3, (4, 5)), (6, 7)))
        tied = ((0, (1, 2)), (((3, (4, 5)), 6), 7))
        assert plan.parenthesization == won
        assert plan.total_cost == 431436.6666666667 == 1294310 / 3
        assert brute_force_min(chain) == (plan.total_cost, won)
        for tree in (won, tied):
            tables = build_tables(chain, splits=tree_splits(tree))
            assert tables.costs[0][7] == 1294310

    def test_vector_chain_goes_right_to_left(self):
        chain = chain_of(
            "y = M1 * M2 * x",
            matrix("M1", 100, 100),
            matrix("M2", 100, 100),
            vector("x", 100),
            vector("y", 100),
        )
        plan = solve(chain)
        assert plan.total_cost == 40_000
        assert plan.parenthesization == (0, (1, 2))
        assert plan.calls[0].inputs == ("M2", "x")
        assert plan.calls[1].inputs == ("M1", "T0")
        assert naive_cost(chain) == 2_020_000

    def test_single_factor_copy(self):
        chain = chain_of("B = A", matrix("A", 6, 3), matrix("B", 6, 3))
        plan = solve(chain)
        assert plan.total_cost == 0
        assert [c.kernel_id for c in plan.calls] == ["copy"]
        assert plan.calls[0].output == "B"
        assert plan.parenthesization == 0

    def test_single_factor_transpose(self):
        chain = chain_of("B = A^T", matrix("A", 6, 3), matrix("B", 3, 6))
        plan = solve(chain)
        assert plan.total_cost == 18
        assert [c.kernel_id for c in plan.calls] == ["transp"]


class TestTables:
    def test_base_cases_cost_zero_with_pending_tags(self):
        chain = chain_of(
            "C = A^T * L^-1 * B",
            matrix("A", 8, 8),
            matrix("L", 8, 8, {P.LOWER_TRIANGULAR}),
            matrix("B", 8, 4),
            matrix("C", 8, 4),
        )
        tables = build_tables(chain)
        ops, ids = tables.ops, tables.ids
        for i, tag in enumerate((UnaryTag.T, UnaryTag.INV, UnaryTag.ID)):
            assert tables.costs[i][i] == 0
            assert ops[ids[i][i]].tag is tag
        assert P.LOWER_TRIANGULAR in ops[ids[1][1]].props

    def test_equal_leaves_share_an_id_and_keep_their_names(self):
        # A and B have one (operand, free indices) key, so one id, whose
        # operand is structure only: each leaf is named from its own factor.
        chain = chain_of("C = A * B", *(matrix(x, 8, 8) for x in "ABC"))
        tables = build_tables(chain)
        assert tables.ids[0][0] == tables.ids[1][1]
        assert tables.ops[tables.ids[0][0]] == _base_operand(chain.factors[1])
        assert emit_text(solve(chain)).splitlines()[0].startswith("C := gemm(A, B) ")

    def test_split_points_recorded(self):
        chain = chain_of(
            "D = A * B * C",
            matrix("A", 10, 100),
            matrix("B", 100, 5),
            matrix("C", 5, 50),
            matrix("D", 10, 50),
        )
        tables = build_tables(chain)
        assert tables.solution[0][2] == 1
        assert tables.costs[0][2] == U * 15_000
        assert [call.kernel_id for call in solve(chain).calls] == ["gemm", "gemm"]

    def test_smallest_split_wins_ties(self):
        # All square and equal: every parenthesization costs the same, so
        # the strict < update keeps the first split at every level.
        chain = chain_of(
            "E = A * B * C * D",
            matrix("A", 7, 7),
            matrix("B", 7, 7),
            matrix("C", 7, 7),
            matrix("D", 7, 7),
            matrix("E", 7, 7),
        )
        tables = build_tables(chain)
        assert tables.solution[0][3] == 0
        assert tables.solution[1][3] == 1
        plan = solve(chain)
        assert plan.parenthesization == (0, (1, (2, 3)))

    def test_segment_props_flow_through(self):
        chain = chain_of(
            "C = L1 * L2 * B",
            matrix("L1", 8, 8, {P.LOWER_TRIANGULAR}),
            matrix("L2", 8, 8, {P.LOWER_TRIANGULAR}),
            matrix("B", 8, 4),
            matrix("C", 8, 4),
        )
        tables = build_tables(chain)
        assert P.LOWER_TRIANGULAR in tables.ops[tables.ids[0][1]].props
        plan = solve(chain)
        ids = [c.kernel_id for c in plan.calls]
        assert ids == ["trtrmm", "trmm"]

    def test_stats_count_distinct_pairs(self):
        # An untagged chain over two dims meets few distinct operand pairs,
        # so far fewer pairs are priced than there are splits.
        rng = random.Random(67)
        dims = [rng.choice((16, 32)) for _ in range(41)]
        decls = [matrix(f"A{t}", dims[t], dims[t + 1]) for t in range(40)]
        text = "Y = " + " * ".join(f"A{t}" for t in range(40))
        chain = chain_of(text, *decls, matrix("Y", dims[0], dims[40]))
        stats = build_tables(chain).stats
        assert stats.splits == (40 ** 3 - 40) // 6
        assert stats.no_route == 0
        assert stats.signatures <= 8
        assert stats.pairs <= stats.signatures ** 2
        assert stats.pairs * 100 < stats.splits


    def test_split_that_cannot_win_is_never_looked_up(self, monkeypatch):
        # Cell [0, 2] is seeded with its right neighbour's split, k=1. In
        # D = A * B * C that is (A B) C at 10,000 + 5,000 flops. At k=0 the
        # sub-cost B C alone is 50,000, so A (B C), a pair of operands seen
        # nowhere else, is skipped before it is priced. Pricing a pair starts
        # with its structural entry, which a winning pair's result then
        # reuses.
        asked = []

        def recording(op1, op2, *args):
            asked.append((op1, op2))
            return sequence._entry(op1, op2, *args)

        monkeypatch.setattr(solver, "_entry", recording)
        chain = chain_of(
            "D = A * B * C",
            matrix("A", 10, 100),
            matrix("B", 100, 5),
            matrix("C", 5, 50),
            matrix("D", 10, 50),
        )
        tables = build_tables(chain)
        assert tables.costs[1][2] == U * 50_000
        assert tables.costs[0][2] == U * 15_000
        assert tables.solution[0][2] == 1
        ops, ids = tables.ops, tables.ids
        a_bc = (ops[ids[0][0]], ops[ids[1][2]])
        assert a_bc not in asked
        assert len(asked) == 3
        assert tables.stats == DPStats(splits=4, signatures=6, pairs=3, no_route=0)

        # The seed's pair is priced even when it loses: in y = A * B * x,
        # (A B) x costs 2,000,000 + 20,000 flops, and A (B x), whose pair
        # (A, B x) has the ids of (B, x), wins at 40,000.
        asked.clear()
        chain = chain_of(
            "y = A * B * x",
            matrix("A", 100, 100),
            matrix("B", 100, 100),
            vector("x", 100),
            vector("y", 100),
        )
        tables = build_tables(chain)
        assert tables.costs[0][2] == U * 40_000
        assert tables.solution[0][2] == 0
        ops, ids = tables.ops, tables.ids
        ab_x = (ops[ids[0][1]], ops[ids[2][2]])
        assert asked[-1] == ab_x
        assert len(asked) == 3
        assert tables.stats == DPStats(splits=4, signatures=3, pairs=3, no_route=0)

    def test_given_memo_holds_one_entry_per_routed_pair(self, monkeypatch):
        # perfbench's tracer counts distinct pairs through the memo. The
        # fill prices a pair from its structural entry's routes: a lone
        # one-call route directly, any other list by its cost step.
        found = {}

        def entry(op1, op2, *args):
            got = sequence._entry(op1, op2, *args)
            pair = (op1, op2)
            found.setdefault(pair, []).extend(got[0])
            return got

        monkeypatch.setattr(solver, "_entry", entry)
        rng = random.Random(71)
        no_route = 0
        for _ in range(40):
            chain = random_chain(rng, n_max=9, dim_max=6, index_pool=INDEX_POOL)
            for db in DATABASES.values():
                want = build_tables(chain, db)
                memo = {}
                found.clear()
                got = build_tables(chain, db, memo=memo)
                assert got == want
                assert len(memo) == got.stats.pairs - got.stats.no_route
                # Each key pairs two filled cells' (operand, free indices)
                # keys, and each value holds steps of a route the fill
                # priced for that pair.
                ops, ids = got.ops, got.ids
                filled = {
                    (ops[ids[i][j]], got.free[i][j])
                    for i in range(got.n)
                    for j in range(i, got.n)
                    if ids[i][j]
                }
                for (key1, key2), seq in memo.items():
                    assert key1 in filled and key2 in filled
                    assert any(seq.steps is f for f in found[key1[0], key2[0]])
                # A winning pair has a memo entry.
                for i in range(got.n):
                    for j in range(i + 1, got.n):
                        k = got.solution[i][j]
                        if k is not None:
                            key1 = (ops[ids[i][k]], got.free[i][k])
                            key2 = (ops[ids[k + 1][j]], got.free[k + 1][j])
                            assert (key1, key2) in memo
                no_route += got.stats.no_route
        assert no_route > 0


class TestPlanInvariants:
    def test_call_costs_sum_to_total(self):
        rng = random.Random(31)
        for _ in range(80):
            chain = random_chain(rng)
            try:
                plan = solve(chain)
            except (NoKernelApplicableError, UnsatisfiableError):
                continue
            total = sum(c.cost * c.multiplicity for c in plan.calls)
            assert total == pytest.approx(plan.total_cost)

    def test_calls_topologically_ordered(self):
        rng = random.Random(37)
        for _ in range(80):
            chain = random_chain(rng)
            try:
                plan = solve(chain)
            except (NoKernelApplicableError, UnsatisfiableError):
                continue
            defined = {f.operand.name for f in chain.factors}
            for call in plan.calls:
                for name in call.inputs:
                    assert name in defined
                defined.add(call.output)
            assert plan.calls[-1].output == chain.target_display

    def test_optimal_never_beaten_by_naive(self):
        rng = random.Random(43)
        checked = 0
        for _ in range(80):
            chain = random_chain(rng)
            try:
                plan = solve(chain)
            except (NoKernelApplicableError, UnsatisfiableError):
                continue
            assert plan.total_cost <= naive_cost(chain) + 1e-9
            checked += 1
        assert checked > 30

    def test_matches_brute_force(self):
        rng = random.Random(47)
        checked = 0
        for _ in range(60):
            chain = random_chain(rng, n_max=5)
            try:
                plan = solve(chain)
            except (NoKernelApplicableError, UnsatisfiableError):
                continue
            cost, _ = brute_force_min(chain)
            assert plan.total_cost == pytest.approx(cost)
            checked += 1
        assert checked > 25

    def test_matches_brute_force_with_indices(self):
        rng = random.Random(53)
        pool = (IndexDecl("i", 6), IndexDecl("j", 3))
        checked = 0
        for _ in range(40):
            chain = random_chain(rng, n_max=4, index_pool=pool)
            if not any(f.operand.indices for f in chain.factors):
                continue
            try:
                plan = solve(chain)
            except (NoKernelApplicableError, UnsatisfiableError):
                continue
            cost, _ = brute_force_min(chain)
            assert plan.total_cost == pytest.approx(cost)
            checked += 1
        assert checked > 10

    def test_richer_db_never_costs_more(self):
        # Dropping a specialized kernel can only keep or raise the optimum.
        rng = random.Random(59)
        pruned = [k for k in default_db() if k.id not in ("trtrmm", "trmm", "trsm")]
        for _ in range(60):
            chain = random_chain(rng)
            try:
                full_plan = solve(chain)
            except (NoKernelApplicableError, UnsatisfiableError):
                continue
            try:
                pruned_plan = solve(chain, pruned)
            except (NoKernelApplicableError, UnsatisfiableError):
                continue
            assert full_plan.total_cost <= pruned_plan.total_cost + 1e-9


class TestIndices:
    def test_index_range_products(self):
        i = IndexDecl("i", 8)
        j = IndexDecl("j", 4)
        assert index_range(()) == 1
        assert index_range((i,)) == 8
        assert index_range((i, j)) == 32

    def test_hoisting_factors_out_of_loop(self):
        # G[i] = A * B * c[i]: combining A * B once outside the loop beats
        # redoing it per iteration whenever the loop is long enough.
        i = IndexDecl("i", 8)
        chain = chain_of(
            "G[i] = A * B * c[i]",
            i,
            matrix("A", 5, 5),
            matrix("B", 5, 5),
            vector("c", 5, indices=(i,)),
            vector("G", 5, indices=(i,)),
        )
        plan = solve(chain)
        assert plan.parenthesization == ((0, 1), 2)
        first, second = plan.calls
        assert first.multiplicity == 1
        assert first.loops == ()
        assert second.multiplicity == 8
        assert second.loops == (i,)
        expected = 2 * 5 ** 3 + 8 * (2 * 5 * 5)
        assert plan.total_cost == expected

    def test_short_loop_prefers_per_iteration(self):
        i = IndexDecl("i", 2)
        chain = chain_of(
            "G[i] = A * B * c[i]",
            i,
            matrix("A", 100, 100),
            matrix("B", 100, 100),
            vector("c", 100, indices=(i,)),
            vector("G", 100, indices=(i,)),
        )
        plan = solve(chain)
        assert plan.parenthesization == (0, (1, 2))
        assert plan.total_cost == 2 * (2 * 100 * 100 + 2 * 100 * 100)

    def test_two_index_multiplicity(self):
        i = IndexDecl("i", 3)
        j = IndexDecl("j", 5)
        chain = chain_of(
            "H[i,j] = a[i]^T * B * c[j]",
            i,
            j,
            vector("a", 10, indices=(i,)),
            matrix("B", 10, 10),
            vector("c", 10, indices=(j,)),
            matrix("H", 1, 1, indices=(i, j)),
        )
        plan = solve(chain)
        mults = {c.multiplicity for c in plan.calls}
        assert plan.total_cost == pytest.approx(
            sum(c.cost * c.multiplicity for c in plan.calls)
        )
        assert max(mults) == 15

    def test_single_factor_in_loop(self):
        i = IndexDecl("i", 4)
        chain = chain_of(
            "Y[i] = X[i]^T",
            i,
            matrix("X", 6, 3, indices=(i,)),
            matrix("Y", 3, 6, indices=(i,)),
        )
        plan = solve(chain)
        assert [c.kernel_id for c in plan.calls] == ["transp"]
        assert plan.calls[0].loops == (i,)
        assert plan.calls[0].multiplicity == 4
        assert plan.total_cost == 4 * 18

    def test_naive_hoists_invariant_discharge(self):
        # Left to right, A[i] * B^-1 is the whole chain: getri(B) runs once.
        i = IndexDecl("i", 8)
        chain = chain_of(
            "X[i] = A[i] * B^-1",
            i,
            matrix("A", 50, 50, indices=(i,)),
            matrix("B", 50, 50),
            matrix("X", 50, 50, indices=(i,)),
        )
        assert naive_cost(chain) == 2 * 50 ** 3 + 8 * (2 * 50 ** 3)


def _indices_of(name):
    """The index names an emitted operand name carries: ``T0[i,j]`` ->
    ``("i", "j")``."""
    inside = name.partition("[")[2].rstrip("]")
    return tuple(inside.split(",")) if inside else ()


class TestLoopAwareCharging:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 32),
        db_name=st.sampled_from(["default", "gap"]),
        metric=st.sampled_from([FLOPS, MEMORY]),
    )
    def test_calls_charged_by_their_own_loops(self, seed, db_name, metric):
        rng = random.Random(seed)
        chain = random_chain(rng, n_max=5, dim_max=8, index_pool=INDEX_POOL)
        db = DATABASES[db_name]
        try:
            plan = solve(chain, db, metric)
        except (NoKernelApplicableError, UnsatisfiableError):
            return
        reader = {name: call for call in plan.calls for name in call.inputs}
        for call in plan.calls:
            assert call.multiplicity == math.prod(ix.range for ix in call.loops)
            loops = tuple(ix.name for ix in call.loops)
            ins = [_indices_of(name) for name in call.inputs]
            if len(ins) == 1:
                # A discharge runs under its input's loops, nested in the
                # order of the binary call it feeds.
                fed = call
                while len(fed.inputs) == 1 and fed.output in reader:
                    fed = reader[fed.output]
                order = tuple(ix.name for ix in fed.loops)
                assert sorted(loops) == sorted(ins[0])
                assert loops == tuple(x for x in order if x in ins[0])
            else:  # a product under its inputs' together
                assert loops == ins[0] + tuple(x for x in ins[1] if x not in ins[0])
        total = sum(c.cost * c.multiplicity for c in plan.calls)
        assert total == pytest.approx(plan.total_cost)
        assert plan.total_cost == pytest.approx(
            brute_force_min(chain, db, metric)[0]
        )
        try:  # left to right can meet a gap the DP avoids
            naive = naive_cost(chain, db, metric)
        except NoKernelApplicableError:
            return
        assert naive >= plan.total_cost * (1 - 1e-12)

    def test_discharge_shares_its_product_loop_nest(self):
        problem = load_problem(
            "index i 8\n"
            "index j 5\n"
            "matrix A 6 6 indices=j\n"
            "matrix M 6 6 indices=i,j\n"
            "compute X[i,j] = A[j] * M[i,j]^-1\n"
        )
        plan = solve(problem.computes[0].chain)
        assert [c.kernel_id for c in plan.calls] == ["getri", "gemm"]
        for call in plan.calls:
            assert [(ix.name, ix.range) for ix in call.loops] == [("j", 5), ("i", 8)]
            assert call.multiplicity == 40
        # The temp keeps its input's index order in its name.
        assert plan.calls[0].output == "T0[i,j]"
        assert plan.total_cost == 34560
        # One nest holds both calls.
        assert emit_text(plan).count("for ") == 2


class TestMetrics:
    def test_memory_metric_counts_temporaries(self):
        chain = chain_of(
            "D = A * B * C",
            matrix("A", 10, 100),
            matrix("B", 100, 5),
            matrix("C", 5, 50),
            matrix("D", 10, 50),
        )
        plan = solve(chain, metric=MEMORY)
        assert plan.metric_name == "memory"
        # (A B) C stores a 10x5 then a 10x50; the other order stores
        # 100x50 then 10x50.
        assert plan.parenthesization == ((0, 1), 2)
        assert plan.total_cost == 10 * 5 + 10 * 50

    def test_flops_metric_name(self):
        chain = chain_of("B = A", matrix("A", 2, 2), matrix("B", 2, 2))
        assert solve(chain).metric_name == "flops"


class TestFailures:
    def test_invalid_chain_rejected(self):
        chain = chain_of(
            "C = A * B", matrix("A", 4, 5), matrix("B", 6, 2), matrix("C", 4, 2)
        )
        with pytest.raises(InvalidChainError) as info:
            solve(chain)
        assert "DimensionMismatch" in str(info.value)

    def test_no_kernel_names_smallest_segment(self):
        db = [k for k in default_db() if k.arity == 1]
        chain = chain_of(
            "C = A * B", matrix("A", 4, 4), matrix("B", 4, 4), matrix("C", 4, 4)
        )
        with pytest.raises(NoKernelApplicableError) as info:
            solve(chain, db)
        assert info.value.segment == (0, 1)
        assert "A" in str(info.value) and "B" in str(info.value)

    def test_uncovered_part_leaves_other_splits(self):
        # Without explicit inverses A * B^-1 has no route, but B^-1 * C is
        # a solve, so A * (B^-1 * C) still covers the chain.
        db = [k for k in default_db() if k.id not in ("getri", "trtri")]
        chain = chain_of("D = A * B^-1 * C", *(matrix(x, 4, 4) for x in "ABCD"))
        plan = solve(chain, db)
        assert [c.kernel_id for c in plan.calls] == ["gesv", "gemm"]
        assert plan.parenthesization == (0, (1, 2))
        assert plan.total_cost == pytest.approx(2 * 64 / 3 + 2 * 64 + 2 * 64)
        with pytest.raises(NoKernelApplicableError) as info:
            naive_cost(chain, db)
        assert info.value.segment == (0, 1)
        assert "factors 0..1" in str(info.value)
        # Four splits: A * B^-1 has no route, which leaves one split of
        # [0, 2] with an uncovered part. A and C share a signature.
        assert build_tables(chain, db).stats == DPStats(
            splits=3, signatures=3, pairs=3, no_route=1
        )

    def test_uncovered_part_inside_uncovered_chain(self):
        db = [k for k in default_db() if k.id in ("trmm", "copy")]
        chain = chain_of(
            "D = L * A * B",
            matrix("L", 4, 4, {P.LOWER_TRIANGULAR}),
            *(matrix(x, 4, 4) for x in "ABD"),
        )
        with pytest.raises(NoKernelApplicableError) as info:
            solve(chain, db)
        assert info.value.segment == (1, 2)

    def test_single_factor_unsatisfiable(self):
        db = [k for k in default_db() if k.arity == 2]
        chain = chain_of("B = A^T", matrix("A", 4, 4), matrix("B", 4, 4))
        with pytest.raises(UnsatisfiableError):
            solve(chain, db)

    def test_single_factor_unsatisfiable_names_its_factor(self):
        # The unary search returns None for a nameless state; the solver
        # names the factor, indices included, in the error.
        db = load_kernel_config(
            "kernel getri arity=1 tags=inv,invt req=spd,square cost=2*m*m*m\n"
        )
        i = IndexDecl("i", 3)
        chain = chain_of(
            "Y[i] = A[i]^-T",
            i,
            matrix("A", 4, 4, indices=(i,)),
            matrix("Y", 4, 4, indices=(i,)),
        )
        assert materialize(_base_operand(chain.factors[0]), db) is None
        with pytest.raises(UnsatisfiableError) as info:
            solve(chain, db)
        assert str(info.value) == (
            "no unary kernel sequence materializes A[i]^-T (4x4, props: square)"
        )

    # Costs beyond the float range are exact ints: every plan below is
    # found, and its total is the exact cost rounded down.

    @pytest.mark.parametrize(
        "dim, source, metric, kernel",
        [
            (10 ** 110, "C = A^-1 * B", FLOPS, "gesv"),
            (10 ** 200, "C = A * B", FLOPS, "gemm"),
            (10 ** 200, "C = A * B", MEMORY, "gemm"),
        ],
    )
    def test_cost_overflow_is_typed(self, dim, source, metric, kernel):
        # gesv costs 8/3 dim^3 flops, gemm 2 dim^3 flops and dim^2 writes.
        thirds = {"gesv": 8 * dim ** 3, "gemm": 3 * 2 * dim ** 3}[kernel]
        if metric is MEMORY:
            thirds = 3 * dim ** 2
        chain = chain_of(source, *(matrix(x, dim, dim) for x in "ABC"))
        plan = solve(chain, metric=metric)
        assert [c.kernel_id for c in plan.calls] == [kernel]
        assert type(plan.total_cost) is int
        assert plan.total_cost == plan.calls[0].cost == thirds // 3
        assert naive_cost(chain, metric=metric) == plan.total_cost
        assert brute_force_min(chain, metric=metric) == (plan.total_cost, (0, 1))

    def test_overflowing_split_skipped(self):
        # (A B) c prices a 10^200 x 10^200 gemm at 2 * 10^400 flops, beyond
        # the float range; A (B c) costs 2e200 + 2e200 and wins.
        big = 10 ** 200
        chain = chain_of(
            "x = A * B * c",
            matrix("A", big, 1),
            matrix("B", 1, big),
            vector("c", big),
            vector("x", big),
        )
        tables = build_tables(chain)
        assert tables.costs[0][1] == 3 * 2 * 10 ** 400
        assert tables.costs[0][2] == 3 * 4 * 10 ** 200
        assert tables.stats.no_route == 0
        plan = solve(chain)
        assert plan.parenthesization == (0, (1, 2))
        assert plan.total_cost == 4e200
        assert brute_force_min(chain) == (4e200, (0, (1, 2)))
        assert naive_cost(chain) == 4 * 10 ** 400

    def test_overflowing_candidate_skipped(self):
        # huge costs 10^400 at these dims; gemm, 2 * 10^300, is cheaper.
        db = load_kernel_config("kernel huge arity=2 tags=id;id req=; cost=m*k*n*m\n")
        big = 10 ** 100
        chain = chain_of("C = A * B", *(matrix(x, big, big) for x in "ABC"))
        plan = solve(chain, db)
        assert [c.kernel_id for c in plan.calls] == ["gemm"]
        assert plan.total_cost == 2e300
        assert brute_force_min(chain, db) == (2e300, (0, 1))

    def test_infinite_float_cost_is_typed(self):
        # In floats, m/1*k*n overflowed to inf here; as ints it is exact.
        db = load_kernel_config("kernel gemm arity=2 tags=id;id req=; cost=m/1*k*n\n")
        dim = 10 ** 110
        chain = chain_of("C = A * B", *(matrix(x, dim, dim) for x in "ABC"))
        plan = solve(chain, db)
        assert [c.kernel_id for c in plan.calls] == ["gemm"]
        assert type(plan.total_cost) is int and plan.total_cost == 10 ** 330

    def test_multiplicity_overflow_is_typed(self):
        # Each gemm's cost fits a float; charged 10^11 times it does not.
        big, i = 10 ** 100, IndexDecl("i", 10 ** 11)
        chain = chain_of(
            "C[i] = A[i] * B",
            i,
            matrix("A", big, big, indices=(i,)),
            matrix("B", big, big),
            matrix("C", big, big, indices=(i,)),
        )
        plan = solve(chain)
        assert plan.total_cost == naive_cost(chain) == 2 * 10 ** 311
        assert type(plan.total_cost) is int
        assert [(c.kernel_id, c.cost, c.multiplicity) for c in plan.calls] == [
            ("gemm", 2e300, 10 ** 11)
        ]

    @pytest.mark.parametrize("source", ["C[i,j] = A[i] * B[j]", "C[i,j] = D[i,j]^T"])
    def test_multiplicity_beyond_float_range_is_typed(self, source):
        # 10^320 cannot even be converted to a float: a 16-flop gemm, or a
        # 4-flop transp, runs that many times.
        kernel, flops = ("gemm", 16) if "A[i]" in source else ("transp", 4)
        i, j = IndexDecl("i", 10 ** 160), IndexDecl("j", 10 ** 160)
        decls = (
            i,
            j,
            matrix("A", 2, 2, indices=(i,)),
            matrix("B", 2, 2, indices=(j,)),
            matrix("C", 2, 2, indices=(i, j)),
            matrix("D", 2, 2, indices=(i, j)),
        )
        chain = chain_of(source, *decls)
        plan = solve(chain)
        assert [(c.kernel_id, c.multiplicity) for c in plan.calls] == [(kernel, 10 ** 320)]
        assert plan.total_cost == naive_cost(chain) == flops * 10 ** 320
        assert brute_force_min(chain)[0] == plan.total_cost

    def test_charged_overflow_names_the_fills_route(self):
        # A case from a seeded fuzz. A[i]^-1 * B[j]^T runs its preps 10^160
        # times and its binary call 10^320 times. Charged so, getri+gemm
        # (54 * 10^160 + 72 * 10^320) beats transp+gesv (12 * 10^160 +
        # 90 * 10^320), and the plan renders the route the fill priced.
        i, j = IndexDecl("i", 10 ** 160), IndexDecl("j", 10 ** 160)
        decls = (
            i,
            j,
            matrix("A", 3, 3, indices=(i,)),
            matrix("B", 4, 3, {P.LOWER_TRIANGULAR}, indices=(j,)),
            matrix("C", 3, 4, indices=(i, j)),
        )
        chain = chain_of("C[i,j] = A[i]^-1 * B[j]^T", *decls)
        want = 54 * 10 ** 160 + 72 * 10 ** 320
        plan = solve(chain)
        assert [(c.kernel_id, c.cost, c.multiplicity) for c in plan.calls] == [
            ("getri", 54.0, 10 ** 160),
            ("gemm", 72.0, 10 ** 320),
        ]
        assert plan.total_cost == naive_cost(chain) == want
        assert brute_force_min(chain)[0] == want

    def test_zero_cost_beyond_float_range_stays_zero(self):
        # A copy costs 0 flops at any multiplicity.
        i, j = IndexDecl("i", 10 ** 160), IndexDecl("j", 10 ** 160)
        decls = (
            i,
            j,
            matrix("C", 2, 2, indices=(i, j)),
            matrix("D", 2, 2, indices=(i, j)),
        )
        chain = chain_of("C[i,j] = D[i,j]", *decls)
        plan = solve(chain)
        assert [c.kernel_id for c in plan.calls] == ["copy"]
        assert plan.calls[0].multiplicity == 10 ** 320
        assert plan.total_cost == 0.0
        assert naive_cost(chain) == 0.0

    def test_zero_cost_split_beyond_float_range_stays_zero(self):
        # Every split here charges 0 flops 10^320 times.
        db = load_kernel_config("kernel gemm arity=2 tags=id;id req=; cost=0*m\n")
        i, j = IndexDecl("i", 10 ** 160), IndexDecl("j", 10 ** 160)
        decls = [i, j] + [matrix(x, 2, 2, indices=(i, j)) for x in "ABCY"]
        chain = chain_of("Y[i,j] = A[i,j] * B[i,j] * C[i,j]", *decls)
        plan = solve(chain, db)
        assert [c.kernel_id for c in plan.calls] == ["gemm", "gemm"]
        assert plan.parenthesization == (0, (1, 2))
        assert plan.total_cost == 0.0
        assert naive_cost(chain, db) == 0.0
        assert brute_force_min(chain, db) == (0.0, (0, (1, 2)))

    def test_overflowing_segment_avoided_by_plan(self):
        # (A[i] * B) costs 2 * 10^311 once charged 10^11 times;
        # A[i] * (B * c) costs 2 * 10^200 + 2 * 10^211.
        big, i = 10 ** 100, IndexDecl("i", 10 ** 11)
        chain = chain_of(
            "y[i] = A[i] * B * c",
            i,
            matrix("A", big, big, indices=(i,)),
            matrix("B", big, big),
            vector("c", big),
            vector("y", big, indices=(i,)),
        )
        tables = build_tables(chain)
        assert tables.costs[0][1] == 3 * 2 * 10 ** 311
        plan = solve(chain)
        assert plan.parenthesization == (0, (1, 2))
        assert plan.total_cost == 2e200 + 2e211
        assert naive_cost(chain) == 2 * 10 ** 311 + 2 * 10 ** 211

    def test_costs_stay_finite_for_default_db(self):
        rng = random.Random(61)
        for _ in range(120):
            chain = random_chain(rng)
            plan = solve(chain)
            assert math.isfinite(plan.total_cost)


class TestStructuralTable:
    def test_refuses_kernels_of_mixed_units(self):
        # Only a hand-built list can mix them: halves come in sixths here.
        halves = load_kernel_config("kernel half arity=1 tags=t req= cost=m*n/2\n")
        assert {k.unit for k in halves} == {6}
        mixed = default_db() + halves[-1:]
        with pytest.raises(ValueError, match="mix cost units"):
            sequence._structural_table(mixed)
        with pytest.raises(ValueError, match="mix cost units"):
            solve(chain_of("B = A^T", matrix("A", 4, 4), matrix("B", 4, 4)), mixed)
        with pytest.raises(ValueError, match="mix cost units"):
            materialize(TaggedOperand(4, 4, frozenset(), UnaryTag.T), mixed)

    def test_kept_for_equal_databases_only(self):
        table = sequence._structural_table(default_db())
        assert sequence._structural_table(default_db()) is table
        db = default_db()
        db[-1] = load_kernel_config("kernel copy arity=1 tags=id req= cost=m*n")[-1]
        assert sequence._structural_table(db) is not table

    @pytest.mark.parametrize(
        "second, kernel_ids",
        [
            ([k for k in default_db() if k.id != "gesv"], ["getri", "gemm"]),
            (
                load_kernel_config("kernel gesv arity=2 tags=inv;id req=; cost=9*m*m*m"),
                ["getri", "gemm"],
            ),
            (
                load_kernel_config("kernel fastsv arity=2 tags=inv;id req=; cost=m*n"),
                ["fastsv"],
            ),
        ],
    )
    def test_solve_after_default_uses_second_database(self, second, kernel_ids):
        chain = chain_of("C = A^-1 * B", *(matrix(x, 6, 6) for x in "ABC"))
        assert [c.kernel_id for c in solve(chain).calls] == ["gesv"]
        assert [c.kernel_id for c in solve(chain, second).calls] == kernel_ids

    def test_operand_states_are_enumerated_once(self, monkeypatch):
        # The second chain is new at every key: other dims, and a pair of
        # states, (A^-1, B^-1), that the first never met together. Yet
        # each of its operand states was met on its side by the first.
        # The table's (props, tag, target) keys are its operand states.
        monkeypatch.setattr(sequence, "_structural", (None, {}))
        solve(chain_of("D = A * B^-1 * C", *(matrix(x, 4, 4) for x in "ABCD")))
        table = sequence._structural[1]
        first = {key: chains for key, chains in table.items() if len(key) == 3}
        assert {tag for _, tag, _ in first} == {UnaryTag.ID, UnaryTag.INV}
        plan = solve(chain_of("C = A^-1 * B^-1", *(matrix(x, 6, 6) for x in "ABC")))
        assert sequence._structural[1] is table
        second = {key: chains for key, chains in table.items() if len(key) == 3}
        assert list(second) == list(first)
        assert all(second[key] is chains for key, chains in first.items())
        assert [c.kernel_id for c in plan.calls] == ["getri", "gesv"]

    def test_second_fill_infers_no_properties(self, monkeypatch):
        # A product's properties are kept in the database's table, per
        # structural key and squareness, so refilling a chain infers none.
        inferred = []
        infer = kernels.infer_properties

        def counted(*args):
            inferred.append(args)
            return infer(*args)

        monkeypatch.setattr(kernels, "infer_properties", counted)
        monkeypatch.setattr(sequence, "_structural", (None, {}))
        chain = chain_of(
            "E = A * B^-1 * C^T * D",
            matrix("A", 6, 6, {P.LOWER_TRIANGULAR}),
            matrix("B", 6, 6),
            matrix("C", 4, 6),
            matrix("D", 4, 3),
            matrix("E", 6, 3),
        )
        first = build_tables(chain)
        assert inferred
        del inferred[:]
        assert build_tables(chain) == first
        assert inferred == []

    def test_state_pairs_stay_in_their_own_table(self, monkeypatch):
        # The databases differ only in gesv's req: with the second, a
        # general A^-1 * B has no one-call route.
        chain = chain_of("C = A^-1 * B", *(matrix(x, 6, 6) for x in "ABC"))
        second = load_kernel_config(
            "kernel gesv arity=2 tags=inv;id req=spd; cost=2*m*m*m/3+2*m*m*n"
        )
        assert [c.kernel_id for c in solve(chain).calls] == ["gesv"]
        first_table = sequence._structural_table(default_db())
        plan = solve(chain, second)
        second_table = sequence._structural_table(second)
        assert second_table is not first_table
        monkeypatch.setattr(sequence, "_structural", (None, {}))
        assert plan == solve(chain, second)
        assert [c.kernel_id for c in plan.calls] == ["getri", "gemm"]

        a, b = (_base_operand(f) for f in chain.factors)
        pair = ((a.props, a.tag), (b.props, b.tag))
        assert [k.id for k in first_table[pair]] == ["gesv"]
        assert second_table[pair] == []
        for table, db in ((first_table, default_db()), (second_table, second)):
            for key, kernels in table.items():
                if len(key) == 2:  # a pair of (props, tag) states
                    assert all(any(k is own for own in db) for k in kernels)


# --------------------------------------------------------------------------
# Reference: the DP loop without interned ids, asking find_sequence at
# every split from a structural table made afresh for the chain, and
# charging each split's preps the multiplicity of their own part.


def reference_tables(chain, db, metric):
    factors = chain.factors
    n = len(factors)
    sequence._structural = (None, {})
    tmps = [[None] * n for _ in range(n)]
    costs = [[math.inf] * n for _ in range(n)]
    solution = [[None] * n for _ in range(n)]
    free = [[()] * n for _ in range(n)]
    ranges = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            for factor in factors[i : j + 1]:
                for ix in factor.operand.indices:
                    if ix not in free[i][j]:
                        free[i][j] += (ix,)
            ranges[i][j] = math.prod(ix.range for ix in free[i][j])
    for i in range(n):
        tmps[i][i] = _base_operand(factors[i])
        costs[i][i] = 0.0
    for l in range(1, n):
        for i in range(n - l):
            j = i + l
            for k in range(i, j):
                left, right = tmps[i][k], tmps[k + 1][j]
                if left is None or right is None:
                    continue
                mults = (ranges[i][k], ranges[k + 1][j], ranges[i][j])
                try:
                    seq = find_sequence(left, right, db, metric, mults=mults)
                except NoKernelApplicableError:
                    continue
                cost = costs[i][k] + costs[k + 1][j] + seq.total_cost
                if cost < costs[i][j]:
                    costs[i][j] = cost
                    solution[i][j] = k
                    tmps[i][j] = seq.output
    return tmps, costs, solution, free, ranges


DATABASES = {
    "default": default_db(),
    "gap": [k for k in default_db() if k.id not in ("getri", "trtri")],
    # Every split of a cell ties under FLOPS, so the bound skips all but
    # the seed and the first covered split with a route, which the tie
    # rule picks.
    "zero": [k._replace(flops=lambda m, k, n: 0 * m) for k in default_db()],
}
INDEX_POOL = (IndexDecl("i", 3), IndexDecl("j", 4), IndexDecl("k", 2))


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 32),
        db_name=st.sampled_from(sorted(DATABASES)),
        metric=st.sampled_from([FLOPS, MEMORY]),
    )
    def test_tables_match_uninterned_loop(self, seed, db_name, metric):
        rng = random.Random(seed)
        chain = random_chain(rng, n_max=9, dim_max=6, index_pool=INDEX_POOL)
        db = DATABASES[db_name]
        got = build_tables(chain, db, metric)
        tmps, *want = reference_tables(chain, db, metric)
        assert [got.costs, got.solution, got.free, got.ranges] == want
        # Each id owns one operand; id 0, with none, marks exactly the
        # uncovered cells, and two covered cells share an id exactly when
        # their (operand, free indices) keys are equal.
        ops, ids, n = got.ops, got.ids, got.n
        assert ops[0] is None
        assert len(ops) == got.stats.signatures + 1
        id_of = {}
        for i in range(n):
            for j in range(i, n):
                assert (ids[i][j] == 0) == (tmps[i][j] is None)
                if tmps[i][j] is not None:
                    assert ops[ids[i][j]] == tmps[i][j]
                    key = (tmps[i][j], got.free[i][j])
                    assert id_of.setdefault(key, ids[i][j]) == ids[i][j]
        assert len(set(id_of.values())) == len(id_of)

    def test_winning_results_equal_find_sequence(self, monkeypatch):
        # A cell's operand is built from its pair's structural entry; it must
        # be what find_sequence, from a table made after the fill, returns
        # for the cell's operands at the winning split. One structural key
        # may give both a square and a non-square output, whose properties
        # differ.
        rng = random.Random(20261019)
        seen = {"square": 0, "non-square": 0, "unequal mults": 0}
        squareness = {}
        for _ in range(60):
            chain = random_chain(rng, n_max=8, dim_max=5, index_pool=INDEX_POOL)
            for db in DATABASES.values():
                for metric in (FLOPS, MEMORY):
                    got = build_tables(chain, db, metric)
                    monkeypatch.setattr(sequence, "_structural", (None, {}))
                    r, n = got.ranges, got.n
                    for i, j in ((i, j) for i in range(n) for j in range(i + 1, n)):
                        k = got.solution[i][j]
                        if k is None:
                            continue
                        ops, ids = got.ops, got.ids
                        left, right = ops[ids[i][k]], ops[ids[k + 1][j]]
                        mults = (r[i][k], r[k + 1][j], r[i][j])
                        want = find_sequence(left, right, db, metric, mults=mults)
                        assert ops[ids[i][j]] == want.output
                        square = want.output.rows == want.output.cols
                        seen["square" if square else "non-square"] += 1
                        seen["unequal mults"] += len(set(mults)) > 1
                        skey = (left.props, left.tag, right.props, right.tag)
                        squareness.setdefault(skey, set()).add(square)
        assert min(seen.values()) > 100
        assert sum(len(both) == 2 for both in squareness.values()) > 10

class TestSeed:
    """Each cell's scan starts just above the cost of its right neighbour's
    winning split, so every split that costs no more is still scanned, and
    the smallest k among equal costs still wins."""

    def test_zero_costs_keep_the_smallest_split(self):
        # Every kernel of the zero database costs 0 flops, so every split of
        # every cell ties at 0, and each seed is a larger k than the first.
        db = DATABASES["zero"]
        rng = random.Random(20261020)
        seeded = 0
        for at in range(120):
            pool = INDEX_POOL if at % 2 else ()
            chain = random_chain(rng, n_min=3, n_max=9, dim_max=6, index_pool=pool)
            got = build_tables(chain, db)
            assert got.solution == reference_tables(chain, db, FLOPS)[2]
            for i in range(got.n):
                for j in range(i + 1, got.n):
                    assert got.solution[i][j] == i
                    assert got.costs[i][j] == 0.0
                    seeded += j - i > 1
        assert seeded > 1000

    def test_seed_ties_a_smaller_split_at_nonzero_cost(self):
        # 1/d3 + 1/d1 == 1/d0 + 1/d2 for dims (2, 3, 3, 2), so (A B) C and
        # A (B C) both cost 60 flops. The seed of [0, 2] is k=1; k=0 wins.
        chain = chain_of(
            "D = A * B * C",
            matrix("A", 2, 3),
            matrix("B", 3, 3),
            matrix("C", 3, 2),
            matrix("D", 2, 2),
        )
        tables = build_tables(chain)
        assert tables.solution[1][2] == 1
        assert tables.costs[0][2] == U * 60
        assert tables.solution[0][2] == 0
        assert solve(chain).parenthesization == (0, (1, 2))


def scaled_chain(chain, factor):
    """``chain`` with every stored dim but 1 times ``factor``, so each
    operand keeps its structural key."""
    def scale(d):
        return d if d == 1 else d * factor

    factors = tuple(
        f._replace(operand=f.operand._replace(rows=scale(f.operand.rows), cols=scale(f.operand.cols)))
        for f in chain.factors
    )
    return chain._replace(factors=factors)


class TestLoneRoute:
    """A pair whose entry keeps one route of one binary call is charged
    that call's cost r times, without the cost step."""

    def test_fill_equals_the_fill_without_the_shortcut(self, monkeypatch):
        # At dims 10^100 huge's flops leave the float range and gemm's do
        # not; at 10^110 every binary kernel's do. Ranges of 10^160 make
        # multiplicities beyond the float range. The gap database leaves
        # cells uncovered.
        huge = default_db() + load_kernel_config(
            "kernel huge arity=2 tags=id;id req=; cost=m*k*n*m\n"
        )
        dbs = (*DATABASES.values(), huge)
        pools = (INDEX_POOL, (IndexDecl("i", 10 ** 160), IndexDecl("j", 10 ** 11)))
        shortcut = True
        seen = {"lone": 0, "other": 0, "uncovered": 0, "beyond float": 0}

        def entry(op1, op2, *args):
            candidates, lone = sequence._entry(op1, op2, *args)
            seen["lone" if lone else "other"] += bool(candidates)
            return candidates, lone if shortcut else None

        monkeypatch.setattr(solver, "_entry", entry)
        rng = random.Random(20261022)
        for at in range(60):
            chain = random_chain(rng, n_max=7, dim_max=6, index_pool=pools[at % 2])
            chain = scaled_chain(chain, rng.choice((1, 10 ** 100, 10 ** 110)))
            for db in dbs:
                for metric in (FLOPS, MEMORY):
                    shortcut = True
                    got = build_tables(chain, db, metric)
                    shortcut = False
                    assert got == build_tables(chain, db, metric)
                    costs = [cost for row in got.costs for cost in row]
                    seen["uncovered"] += math.inf in costs
                    seen["beyond float"] += any(U * 10 ** 309 < cost < math.inf for cost in costs)
        assert min(seen.values()) > 30, seen


class TestFillIsolation:
    def test_a_fill_keeps_nothing_of_the_fill_before(self):
        # Each fill numbers its own cells' keys from 1 and keeps a row of
        # pairs per id, so a row left over from another chain's fill would
        # hand its pairs' charges to whichever pairs get those ids next.
        rng = random.Random(20261023)
        for at in range(40):
            pool = INDEX_POOL if at % 2 else ()
            a, b = (random_chain(rng, n_max=7, dim_max=6, index_pool=pool) for _ in range(2))
            for db in DATABASES.values():
                for metric in (FLOPS, MEMORY):
                    first = build_tables(a, db, metric)
                    build_tables(b, db, metric)
                    assert build_tables(a, db, metric) == first


class TestFindSequenceCallers:
    def test_only_extraction_asks_find_sequence(self, monkeypatch):
        # The fill prices pairs with the structural and cost steps alone;
        # a covered chain of n factors asks find_sequence once per segment
        # of its tree, from inside _extract.
        asked, inside = [], []
        find, extract = solver.find_sequence, solver._extract

        def counted_find(*args, **kwargs):
            asked.append(bool(inside))
            return find(*args, **kwargs)

        def marked_extract(*args):
            inside.append(True)
            try:
                return extract(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(solver, "find_sequence", counted_find)
        monkeypatch.setattr(solver, "_extract", marked_extract)
        rng = random.Random(20261024)
        covered = 0
        for at in range(60):
            pool = INDEX_POOL if at % 2 else ()
            chain = random_chain(rng, n_max=9, dim_max=8, index_pool=pool)
            for db in DATABASES.values():
                for metric in (FLOPS, MEMORY):
                    tables = build_tables(chain, db, metric)
                    assert asked == []
                    if tables.costs[0][tables.n - 1] < math.inf:
                        solve(chain, db, metric)
                        assert asked == [True] * (tables.n - 1)
                        covered += 1
                    asked.clear()
        assert covered > 300


def restricted_cases():
    """Seeded chains of 2 to 7 factors, with and without indices, under both
    databases without zero costs and both metrics."""
    rng = random.Random(20261018)
    for at in range(200):
        pool = INDEX_POOL if at % 2 else ()
        chain = random_chain(rng, n_max=7, dim_max=12, index_pool=pool)
        for db_name in ("default", "gap"):
            for metric in (FLOPS, MEMORY):
                yield chain, DATABASES[db_name], metric


class TestRestrictedFill:
    def test_fill_restricted_to_plan_tree_reproduces_its_cost(self):
        checked = 0
        for chain, db, metric in restricted_cases():
            try:
                plan = solve(chain, db, metric)
            except NoKernelApplicableError:
                continue
            splits = tree_splits(plan.parenthesization)
            tables = build_tables(chain, db, metric, splits=splits)
            assert tables.costs[0][tables.n - 1] / U == plan.total_cost
            assert tables.stats.splits == len(splits)
            checked += 1
        assert checked > 700

    def test_fill_restricted_to_oracle_tree_reaches_its_minimum(self):
        checked = 0
        for chain, db, metric in restricted_cases():
            try:
                best, tree = brute_force_min(chain, db, metric)
            except NoKernelApplicableError:
                continue
            tables = build_tables(chain, db, metric, splits=tree_splits(tree))
            assert tables.costs[0][tables.n - 1] / U == best
            checked += 1
        assert checked > 700

    def test_left_deep_fill_tries_one_split_per_prefix(self):
        covered = 0
        for chain, db, metric in restricted_cases():
            n = len(chain.factors)
            left_deep = {(0, t): (t - 1,) for t in range(1, n)}
            tables = build_tables(chain, db, metric, splits=left_deep)
            try:
                naive = naive_cost(chain, db, metric)
            except NoKernelApplicableError as exc:
                assert tables.costs[0][n - 1] == math.inf
                assert exc.segment[0] == 0
                continue
            assert tables.costs[0][n - 1] / U == naive
            assert tables.stats.splits == n - 1
            # A cell the map leaves out stays unfilled.
            for i in range(1, n):
                for j in range(i + 1, n):
                    assert tables.costs[i][j] == math.inf
                    assert tables.solution[i][j] is None
            covered += 1
        assert covered > 700

    def test_left_deep_plan_renders_the_left_deep_tree(self):
        covered = 0
        for chain, db, metric in restricted_cases():
            n = len(chain.factors)
            left_deep = {(0, t): (t - 1,) for t in range(1, n)}
            try:
                plan = solver._plan(chain, db, metric, left_deep)
            except NoKernelApplicableError:
                continue
            tree = 0
            for t in range(1, n):
                tree = (tree, t)
            assert plan.parenthesization == tree
            charged = sum(call.cost * call.multiplicity for call in plan.calls)
            assert charged == pytest.approx(plan.total_cost, rel=1e-9)
            covered += 1
        assert covered > 700


#: Plans a 301-factor chain with a recursion limit far below its depth.
DEEP_CHAIN = """\
import sys
from matchain import emit_records, emit_text, matrix, naive_cost, parse, solve, vector
n = 300
decls = [matrix(f"A{t}", 4, 4) for t in range(n)] + [vector("v", 4), vector("x", 4)]
chain = parse("x = " + " * ".join([f"A{t}" for t in range(n)] + ["v"]), decls)
sys.setrecursionlimit(150)
plan = solve(chain)
records, text = emit_records(plan), emit_text(plan)
print(plan.total_cost, len(plan.calls), len(records.splitlines()))
print(records.splitlines()[-1])
print(text.splitlines()[-1])
print(naive_cost(chain))
"""


class TestDeepTrees:
    def test_trees_deeper_than_the_recursion_limit(self):
        result = subprocess.run(
            [sys.executable, "-c", DEEP_CHAIN],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert result.returncode == 0, result.stderr
        right_deep = "".join(f"({t} " for t in range(300)) + "300" + ")" * 300
        assert result.stdout.splitlines() == [
            "9600.0 300 301",
            f"summary target=x metric=flops total=9600.0 parens='{right_deep}'",
            "# total_flops=9600",
            "38304.0",
        ]
