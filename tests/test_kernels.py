"""Kernel database: matching, costs, metrics, and config files."""

import random

import pytest
from hypothesis import given, strategies as st

from matchain import (
    FLOPS,
    MEMORY,
    TaggedOperand,
    UnaryTag,
    close,
    default_db,
    load_kernel_config,
    match,
    metric_by_name,
)
from matchain.errors import KernelConfigError
from matchain.kernels import call_mkn
from matchain.properties import Property

from helpers import random_operand_pair

P = Property

EXPECTED_ORDER = [
    "diagmm",
    "diagsv",
    "trtrmm",
    "trmm",
    "trsm",
    "posv",
    "gesv",
    "gemm",
    "trtri",
    "getri",
    "transp",
    "copy",
]


def op(rows, cols, props=(), tag=UnaryTag.ID, name="X"):
    return TaggedOperand(rows, cols, close(props, rows, cols), tag, name)


def by_id(db):
    return {kernel.id: kernel for kernel in db}


class TestDatabase:
    def test_order_deterministic(self):
        assert [k.id for k in default_db()] == EXPECTED_ORDER
        assert [k.id for k in default_db()] == [k.id for k in default_db()]

    def test_arities(self):
        arity = {k.id: k.arity for k in default_db()}
        for kid in ("transp", "getri", "trtri", "copy"):
            assert arity[kid] == 1
        for kid in ("gemm", "trmm", "trsm", "gesv", "posv", "diagmm", "diagsv", "trtrmm"):
            assert arity[kid] == 2

    def test_flop_cost_values(self):
        kernels = by_id(default_db())
        assert kernels["gemm"].flops(100, 100, 100) == 2_000_000
        assert kernels["gemm"].flops(1000, 1000, 1) == 2_000_000
        assert kernels["trtrmm"].flops(100, 100, 100) == pytest.approx(100 ** 3 / 3)
        assert kernels["trmm"].flops(100, 100, 50) == 100 ** 2 * 50
        assert kernels["trsm"].flops(10, 10, 4) == 400
        assert kernels["gesv"].flops(10, 10, 1) == pytest.approx(2 / 3 * 1000 + 200)
        assert kernels["posv"].flops(10, 10, 3) == pytest.approx(1000 / 3 + 600)
        assert kernels["diagmm"].flops(10, 10, 3) == 30
        assert kernels["diagsv"].flops(10, 10, 3) == 60
        assert kernels["transp"].flops(10, 4, 4) == 40
        assert kernels["getri"].flops(10, 10, 10) == 2000
        assert kernels["trtri"].flops(9, 9, 9) == pytest.approx(243)
        assert kernels["copy"].flops(10, 4, 4) == 0


class TestMatch:
    def test_triangular_inverse_solvers(self):
        got = match(op(8, 8, {P.LOWER_TRIANGULAR}, UnaryTag.INV), op(8, 3))
        assert [k.id for k, _ in got] == ["trsm", "gesv"]

    def test_transposed_full_pair(self):
        got = match(op(5, 8, tag=UnaryTag.T), op(5, 3))
        assert [k.id for k, _ in got] == ["gemm"]

    def test_diagonal_closure_cascades(self):
        got = match(op(8, 8, {P.DIAGONAL}), op(8, 3))
        assert [k.id for k, _ in got] == ["diagmm", "trmm", "gemm"]

    def test_spd_inverse(self):
        got = match(op(8, 8, {P.SPD}, UnaryTag.INV), op(8, 3))
        assert [k.id for k, _ in got] == ["posv", "gesv"]

    def test_nonconforming_dims_empty(self):
        assert match(op(4, 5), op(6, 2)) == []

    def test_unary_matching(self):
        got = match(op(6, 6, {P.UPPER_TRIANGULAR}, UnaryTag.INV))
        assert [k.id for k, _ in got] == ["trtri", "getri"]
        got = match(op(6, 3, tag=UnaryTag.T))
        assert [k.id for k, _ in got] == ["transp"]
        got = match(op(6, 3))
        assert [k.id for k, _ in got] == ["copy"]

    def test_inverse_transpose_unary(self):
        got = match(op(6, 6, tag=UnaryTag.INVT))
        assert [k.id for k, _ in got] == ["getri", "transp"]

    def test_match_respects_requirements(self):
        rng = random.Random(41)
        for _ in range(300):
            left, right = random_operand_pair(rng)
            for kernel, variant in match(left, right):
                pat1, pat2 = variant.patterns
                assert left.tag in pat1.tags and pat1.required <= left.props
                assert right.tag in pat2.tags and pat2.required <= right.props

    def test_binary_never_matches_pending_without_support(self):
        # A plain triangular multiply cannot consume an inverse tag.
        got = match(op(8, 8, {P.LOWER_TRIANGULAR}, UnaryTag.INV), op(8, 3))
        assert "trmm" not in [k.id for k, _ in got]
        assert "gemm" not in [k.id for k, _ in got]


DIMS = st.integers(min_value=1, max_value=60)


class TestCostShape:
    @given(DIMS, DIMS)
    def test_specificity_dominance_multiplies(self, m, n):
        kernels = by_id(default_db())
        assert kernels["diagmm"].flops(m, m, n) <= kernels["trmm"].flops(m, m, n)
        assert kernels["trmm"].flops(m, m, n) <= kernels["gemm"].flops(m, m, n)
        assert kernels["trtrmm"].flops(m, m, m) <= kernels["gemm"].flops(m, m, m)

    @given(DIMS, DIMS)
    def test_specificity_dominance_solves(self, m, n):
        kernels = by_id(default_db())
        assert kernels["trsm"].flops(m, m, n) <= kernels["gesv"].flops(m, m, n)
        assert kernels["posv"].flops(m, m, n) <= kernels["gesv"].flops(m, m, n)
        assert kernels["diagsv"].flops(m, m, n) <= kernels["trsm"].flops(m, m, n) or m == 1

    @given(DIMS, DIMS, DIMS)
    def test_costs_monotone_nondecreasing(self, m, k, n):
        for kernel in default_db():
            base = kernel.flops(m, k, n)
            assert kernel.flops(m + 1, k, n) >= base
            assert kernel.flops(m, k + 1, n) >= base
            assert kernel.flops(m, k, n + 1) >= base

    @given(DIMS, DIMS, DIMS)
    def test_costs_nonnegative(self, m, k, n):
        for kernel in default_db():
            assert kernel.flops(m, k, n) >= 0


class TestMetrics:
    def test_names(self):
        assert metric_by_name("flops") is FLOPS
        assert metric_by_name("memory") is MEMORY
        with pytest.raises(ValueError):
            metric_by_name("joules")

    def test_flop_metric_uses_effective_dims(self):
        kernels = by_id(default_db())
        left = op(5, 8, tag=UnaryTag.T)  # effective 8x5
        right = op(5, 3)
        assert call_mkn((left, right)) == (8, 5, 3)
        cost = FLOPS.call_cost(kernels["gemm"], call_mkn((left, right)), (8, 3))
        assert cost == 2 * 8 * 5 * 3

    def test_memory_metric_counts_output(self):
        kernels = by_id(default_db())
        assert MEMORY.call_cost(kernels["gemm"], (8, 5, 3), (8, 3)) == 24
        assert MEMORY.call_cost(kernels["copy"], (8, 8, 8), (8, 8)) == 64


class TestApply:
    def test_binary_output_descriptor(self):
        kernels = by_id(default_db())
        left = op(6, 6, {P.LOWER_TRIANGULAR})
        right = op(6, 6, {P.LOWER_TRIANGULAR})
        out = kernels["trtrmm"].apply_binary(left, right, "T0")
        assert (out.rows, out.cols) == (6, 6)
        assert P.LOWER_TRIANGULAR in out.props
        assert out.tag is UnaryTag.ID
        assert out.name == "T0"

    def test_transp_peels_to_inverse(self):
        kernels = by_id(default_db())
        a = op(6, 6, {P.LOWER_TRIANGULAR}, UnaryTag.INVT, "A")
        out = kernels["transp"].apply_unary(a, "T0")
        assert out.tag is UnaryTag.INV
        assert P.UPPER_TRIANGULAR in out.props

    def test_getri_peels_to_transpose(self):
        kernels = by_id(default_db())
        a = op(6, 6, tag=UnaryTag.INVT, name="A")
        out = kernels["getri"].apply_unary(a, "T0")
        assert out.tag is UnaryTag.T
        assert P.NONSINGULAR in out.props

    def test_transp_swaps_dims(self):
        kernels = by_id(default_db())
        a = op(6, 3, tag=UnaryTag.T, name="A")
        out = kernels["transp"].apply_unary(a, "T0")
        assert (out.rows, out.cols) == (3, 6)
        assert out.tag is UnaryTag.ID


GOOD_CONFIG = """
# syrk-flavoured fused multiply for square operands
kernel sqmm arity=2 tags=id,t;id req=square;square cost=m*m*n
kernel gemm arity=2 tags=id;id req=;  cost=3*m*k*n
kernel scale arity=1 tags=t req= cost=m*n/2
"""


class TestConfig:
    def test_override_keeps_position_append_at_end(self):
        db = load_kernel_config(GOOD_CONFIG)
        ids = [k.id for k in db]
        assert ids.index("gemm") == EXPECTED_ORDER.index("gemm")
        assert ids[-2:] == ["sqmm", "scale"]
        assert by_id(db)["gemm"].flops(2, 3, 4) == 72

    def test_square_allowed_in_req(self):
        db = load_kernel_config(GOOD_CONFIG)
        sqmm = by_id(db)["sqmm"]
        got = match(op(4, 4), op(4, 4), db)
        assert "sqmm" in [k.id for k, _ in got]
        assert not match(op(4, 5), op(5, 4), db)[0][0] is sqmm

    def test_unary_peel_from_tags(self):
        db = load_kernel_config(GOOD_CONFIG)
        scale = by_id(db)["scale"]
        assert scale.peel == "t"
        out = scale.apply_unary(op(4, 6, tag=UnaryTag.T), "T0")
        assert (out.rows, out.cols) == (6, 4)

    def test_cost_division_is_real(self):
        db = load_kernel_config("kernel third arity=1 tags=inv req=square cost=m*m*m/3\n")
        assert by_id(db)["third"].flops(10, 10, 10) == pytest.approx(1000 / 3)

    def test_base_db_not_mutated(self):
        base = default_db()
        before = [k.id for k in base]
        load_kernel_config("kernel extra arity=1 tags=t req= cost=m\n", base)
        assert [k.id for k in base] == before

    @pytest.mark.parametrize(
        "line",
        [
            "kernel bad arity=3 tags=id req= cost=m",
            "kernel bad arity=2 tags=id req=;  cost=m",
            "kernel bad arity=2 tags=id;id req= cost=m",
            "kernel bad arity=1 tags=id req= cost=m**3",
            "kernel bad arity=1 tags=id req= cost=m-n",
            "kernel bad arity=1 tags=id req= cost=0.5*m",
            "kernel bad arity=1 tags=id req= cost=q*m",
            "kernel bad arity=1 tags=id req= cost=m/0",
            "kernel bad arity=2 tags=id;id req=; cost=m*k/(n*0+0)",
            pytest.param(
                "kernel bad arity=1 tags=id req= cost=m*" + "9" * 400, id="float-overflow"
            ),
            pytest.param(
                "kernel bad arity=1 tags=id req= cost=m/1*" + "9" * 200 + "*" + "9" * 200,
                id="infinite",
            ),
            pytest.param(
                "kernel bad arity=1 tags=id req= cost=" + "+".join(["m"] * 1500),
                id="too-deep-to-compile",
            ),
            pytest.param(
                "kernel bad arity=1 tags=id req= cost=" + "+".join(["m"] * 20000),
                id="too-deep-to-parse",
            ),
            "kernel bad arity=1 tags=whoosh req= cost=m",
            "kernel bad arity=1 tags=id req=hermitian cost=m",
            "kernel bad arity=1 tags=t,inv req= cost=m",
            "kernel bad arity=1 tags=invt req= cost=m",
            "kernel bad arity=1 tags=id req= cost=m cost=n",
            "kernel bad arity=1 tags=id req=",
            "notakernel bad arity=1 tags=id req= cost=m",
        ],
    )
    def test_rejects_malformed(self, line):
        with pytest.raises(KernelConfigError) as info:
            load_kernel_config(line + "\n")
        assert info.value.lineno == 1

    def test_comments_ignored(self):
        db = load_kernel_config("# nothing here\n\n")
        assert [k.id for k in db] == EXPECTED_ORDER
