"""Kernel database: matching, costs, metrics, and config files."""

import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from matchain import (
    FLOPS,
    MEMORY,
    TaggedOperand,
    UnaryTag,
    close,
    default_db,
    load_kernel_config,
    match,
    matrix,
    metric_by_name,
    parse,
    solve,
)
from matchain.errors import KernelConfigError
from matchain.kernels import call_mkn, cost_value, product
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


def op(rows, cols, props=(), tag=UnaryTag.ID):
    return TaggedOperand(rows, cols, close(props, rows, cols), tag)


def by_id(db):
    return {kernel.id: kernel for kernel in db}


def upper_solve():
    """The chain ``X = U^-1 * B`` with an upper-triangular ``U``."""
    return parse(
        "X = U^-1 * B",
        [matrix("U", 8, 8, [P.UPPER_TRIANGULAR]), matrix("B", 8, 3), matrix("X", 8, 3)],
    )


class TestDatabase:
    def test_order_deterministic(self):
        assert [k.id for k in default_db()] == EXPECTED_ORDER
        assert [k.id for k in default_db()] == [k.id for k in default_db()]

    def test_readme_table_lists_the_database_in_order(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Kernel database", 1)[1].split("\n## ", 1)[0]
        ids = re.findall(r"^\| `(\w+)`", section, flags=re.MULTILINE)
        assert ids == [k.id for k in default_db()]

    def test_arities(self):
        arity = {k.id: k.arity for k in default_db()}
        for kid in ("transp", "getri", "trtri", "copy"):
            assert arity[kid] == 1
        for kid in ("gemm", "trmm", "trsm", "gesv", "posv", "diagmm", "diagsv", "trtrmm"):
            assert arity[kid] == 2

    def test_flop_cost_values(self):
        # Built-in costs count thirds of a flop: /3 is the only divisor.
        kernels = by_id(default_db())
        assert {kernel.unit for kernel in kernels.values()} == {3}
        assert kernels["gemm"].flops(100, 100, 100) == 3 * 2_000_000
        assert kernels["gemm"].flops(1000, 1000, 1) == 3 * 2_000_000
        assert kernels["trtrmm"].flops(100, 100, 100) == 100 ** 3
        assert kernels["trmm"].flops(100, 100, 50) == 3 * 100 ** 2 * 50
        assert kernels["trsm"].flops(10, 10, 4) == 3 * 400
        assert kernels["gesv"].flops(10, 10, 1) == 2 * 1000 + 3 * 200
        assert kernels["posv"].flops(10, 10, 3) == 1000 + 3 * 600
        assert kernels["diagmm"].flops(10, 10, 3) == 3 * 30
        assert kernels["diagsv"].flops(10, 10, 3) == 3 * 60
        assert kernels["transp"].flops(10, 4, 4) == 3 * 40
        assert kernels["getri"].flops(10, 10, 10) == 3 * 2000
        assert kernels["trtri"].flops(9, 9, 9) == 729
        assert kernels["copy"].flops(10, 4, 4) == 0
        assert all(type(k.flops(7, 5, 3)) is int for k in kernels.values())


class TestMatch:
    def test_triangular_inverse_solvers(self):
        got = match(op(8, 8, {P.LOWER_TRIANGULAR}, UnaryTag.INV), op(8, 3))
        assert [k.id for k in got] == ["trsm", "gesv"]

    def test_transposed_full_pair(self):
        got = match(op(5, 8, tag=UnaryTag.T), op(5, 3))
        assert [k.id for k in got] == ["gemm"]

    def test_diagonal_closure_cascades(self):
        got = match(op(8, 8, {P.DIAGONAL}), op(8, 3))
        assert [k.id for k in got] == ["diagmm", "trmm", "gemm"]

    def test_spd_inverse(self):
        got = match(op(8, 8, {P.SPD}, UnaryTag.INV), op(8, 3))
        assert [k.id for k in got] == ["posv", "gesv"]

    def test_nonconforming_dims_empty(self):
        assert match(op(4, 5), op(6, 2)) == []

    def test_unary_matching(self):
        got = match(op(6, 6, {P.UPPER_TRIANGULAR}, UnaryTag.INV))
        assert [k.id for k in got] == ["trtri", "getri"]
        got = match(op(6, 3, tag=UnaryTag.T))
        assert [k.id for k in got] == ["transp"]
        got = match(op(6, 3))
        assert [k.id for k in got] == ["copy"]

    def test_inverse_transpose_unary(self):
        got = match(op(6, 6, tag=UnaryTag.INVT))
        assert [k.id for k in got] == ["getri", "transp"]

    def test_match_respects_requirements(self):
        rng = random.Random(41)
        for _ in range(300):
            left, right = random_operand_pair(rng)
            for kernel in match(left, right):
                assert any(
                    left.tag in pat1.tags
                    and pat1.required <= left.props
                    and right.tag in pat2.tags
                    and pat2.required <= right.props
                    for pat1, pat2 in kernel.variants
                )

    def test_binary_never_matches_pending_without_support(self):
        # A plain triangular multiply cannot consume an inverse tag.
        got = match(op(8, 8, {P.LOWER_TRIANGULAR}, UnaryTag.INV), op(8, 3))
        assert "trmm" not in [k.id for k in got]
        assert "gemm" not in [k.id for k in got]


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


#: Config cost polynomials: +, * and / over integers and m, k, n.
POLYNOMIALS = st.recursive(
    st.one_of(st.sampled_from("mkn"), st.integers(0, 10 ** 6).map(str)),
    lambda inner: st.tuples(inner, st.sampled_from("+*/"), inner).map(
        lambda t: f"({t[0]}{t[1]}{t[2]})"
    ),
    max_leaves=12,
)
POSITIVE_DIMS = st.one_of(st.integers(1, 64), st.integers(1, 10 ** 120))


def exact_value(poly: str, m: int, k: int, n: int) -> Fraction:
    """``poly`` at (m, k, n), evaluated over fractions."""
    over_fractions = re.sub(r"\d+", lambda digits: f"F({digits[0]})", poly)
    env = {"F": Fraction, "m": Fraction(m), "k": Fraction(k), "n": Fraction(n)}
    return eval(over_fractions, {"__builtins__": {}}, env)


class TestCostSign:
    @given(POLYNOMIALS, POSITIVE_DIMS, POSITIVE_DIMS, POSITIVE_DIMS)
    @example("((m/2)/2+(m*n)/6)*(k/5)", 7, 3, 11)
    @example("(m*123456789)*(n*987654321)", 10 ** 120, 1, 10 ** 120)
    def test_accepted_polynomial_costs_unit_times_its_exact_value(self, poly, m, k, n):
        # The solver's bound and copy-dominance rest on this contract:
        # a cost is the non-negative int unit * poly, exactly.
        try:
            db = load_kernel_config(f"kernel p arity=2 tags=id;id req=; cost={poly}\n")
        except KernelConfigError as exc:
            assert "divisor must be a positive integer literal" in str(exc)
            return
        kernel = db[-1]
        cost = FLOPS.call_cost(kernel, (m, k, n))
        assert type(cost) is int and cost >= 0
        assert cost == kernel.unit * exact_value(poly, m, k, n)
        assert {k.unit for k in db} == {kernel.unit}

    def test_a_new_divisor_widens_the_unit_and_keeps_the_plans(self):
        db = load_kernel_config("kernel seventh arity=1 tags=t req= cost=m*n/7\n")
        assert {kernel.unit for kernel in db} == {21}
        kernels = by_id(db)
        assert kernels["seventh"].flops(14, 3, 3) == 3 * 14 * 3
        assert kernels["gemm"].flops(2, 3, 4) == 21 * 48
        assert kernels["trtri"].flops(9, 9, 9) == 7 * 729
        # Every built-in plan is unchanged where the new kernel does not
        # apply, at the same reported cost.
        chains = [
            upper_solve(),
            parse(
                "x = L^-1 * A * y",
                [
                    matrix("L", 9, 9, [P.LOWER_TRIANGULAR]),
                    matrix("A", 9, 9, [P.SPD]),
                    matrix("y", 9, 1),
                    matrix("x", 9, 1),
                ],
            ),
        ]
        for chain in chains:
            for metric in (FLOPS, MEMORY):
                assert solve(chain, db, metric) == solve(chain, None, metric)

    def test_cost_value_rounds_once_and_keeps_huge_values_exact(self):
        assert cost_value(1294310, 3) == 431436.6666666667
        assert cost_value(2, 3) == 2 / 3
        big = 10 ** 400 + 2
        assert cost_value(3 * big, 3) == big
        assert cost_value(3 * big + 2, 3) == big
        assert type(cost_value(3 * 10 ** 300, 3)) is float


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
        cost = FLOPS.call_cost(kernels["gemm"], call_mkn((left, right)))
        assert cost == 3 * 2 * 8 * 5 * 3

    def test_memory_metric_counts_output(self):
        # In the database's unit, as flops are, so both sum alike.
        kernels = by_id(default_db())
        assert MEMORY.call_cost(kernels["gemm"], (8, 5, 3)) == 3 * 24
        assert MEMORY.call_cost(kernels["copy"], (8, 8, 8)) == 3 * 64


class TestApply:
    def test_states_of_equal_structure_are_one_key(self):
        # A state is structure only, so it compares and hashes as the
        # tuple of its fields, and keys built from either agree.
        props = close((), 4, 4)
        state = TaggedOperand(4, 4, props)
        assert TaggedOperand._fields == ("rows", "cols", "props", "tag")
        assert state == (4, 4, props, UnaryTag.ID)
        assert hash(state) == hash((4, 4, props, UnaryTag.ID))

    def test_binary_output_descriptor(self):
        left = op(6, 6, {P.LOWER_TRIANGULAR})
        right = op(6, 6, {P.LOWER_TRIANGULAR})
        out = product(left, right)
        assert (out.rows, out.cols) == (6, 6)
        assert P.LOWER_TRIANGULAR in out.props
        assert out.tag is UnaryTag.ID

    def test_product_consumes_pending_tags(self):
        # L^T and U^-1 are both upper triangular, and so is their product.
        left = op(5, 5, {P.LOWER_TRIANGULAR}, UnaryTag.T)
        right = op(5, 5, {P.UPPER_TRIANGULAR}, UnaryTag.INV)
        out = product(left, right)
        assert out.tag is UnaryTag.ID
        assert P.UPPER_TRIANGULAR in out.props
        assert P.LOWER_TRIANGULAR not in out.props
        # A^T of a 3x5 A is 5x3, so A^T * B is 5x4 for a 3x4 B.
        out = product(op(3, 5, tag=UnaryTag.T), op(3, 4))
        assert (out.rows, out.cols) == (5, 4)

    def test_transp_peels_to_inverse(self):
        kernels = by_id(default_db())
        a = op(6, 6, {P.LOWER_TRIANGULAR}, UnaryTag.INVT)
        out = kernels["transp"].apply_unary(a)
        assert out.tag is UnaryTag.INV
        assert P.UPPER_TRIANGULAR in out.props

    def test_getri_peels_to_transpose(self):
        kernels = by_id(default_db())
        a = op(6, 6, tag=UnaryTag.INVT)
        out = kernels["getri"].apply_unary(a)
        assert out.tag is UnaryTag.T
        assert P.NONSINGULAR in out.props

    def test_transp_swaps_dims(self):
        kernels = by_id(default_db())
        a = op(6, 3, tag=UnaryTag.T)
        out = kernels["transp"].apply_unary(a)
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
        # scale's m*n/2 makes the unit lcm(3, 2) = 6.
        assert by_id(db)["gemm"].flops(2, 3, 4) == 6 * 72

    def test_square_allowed_in_req(self):
        db = load_kernel_config(GOOD_CONFIG)
        sqmm = by_id(db)["sqmm"]
        got = match(op(4, 4), op(4, 4), db)
        assert "sqmm" in [k.id for k in got]
        assert not match(op(4, 5), op(5, 4), db)[0] is sqmm

    def test_unary_peel_from_tags(self):
        db = load_kernel_config(GOOD_CONFIG)
        scale = by_id(db)["scale"]
        assert scale.peel == "t"
        out = scale.apply_unary(op(4, 6, tag=UnaryTag.T))
        assert (out.rows, out.cols) == (6, 4)

    def test_cost_division_is_real(self):
        db = load_kernel_config("kernel third arity=1 tags=inv req=square cost=m*m*m/3\n")
        third = by_id(db)["third"]
        assert third.flops(10, 10, 10) == 1000
        assert cost_value(third.flops(10, 10, 10), third.unit) == 1000 / 3

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
            "kernel bad arity=1 tags=id req= cost=True*m",
            "kernel bad arity=1 tags=id req= cost=False+m",
            "kernel bad arity=1 tags=id req= cost=q*m",
            "kernel bad arity=1 tags=id req= cost=m/0",
            "kernel bad arity=2 tags=id;id req=; cost=m*k/(n*0+0)",
            "kernel bad arity=1 tags=id req= cost=1/(1/(m*m*m*m))",
            "kernel bad arity=1 tags=id req= cost=m/n",
            "kernel bad arity=1 tags=id req= cost=m/(3)/-2",
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

    @pytest.mark.parametrize(
        "poly, m, want",
        [
            pytest.param("m*" + "9" * 400, 2, 2 * 10 ** 400 - 2, id="float-overflow"),
            pytest.param(
                "m/1*" + "9" * 200 + "*" + "9" * 200, 1, (10 ** 200 - 1) ** 2, id="infinite"
            ),
        ],
    )
    def test_accepts_costs_too_large_for_a_float(self, poly, m, want):
        kernel = load_kernel_config(f"kernel big arity=1 tags=t req= cost={poly}\n")[-1]
        assert kernel.flops(m, m, m) == 3 * want

    @pytest.mark.parametrize(
        "config",
        [
            # Once compiled, x = A * y became inv2(A) then tmm: (A^-1)^T y.
            "kernel tmm arity=2 tags=t;id req=; cost=1+0*m\n"
            "kernel inv2 arity=1 tags=id,inv req=square cost=0*m\n",
            # The peel of tags=id,t would have mapped tag id to an inverse.
            "# copy or transpose\nkernel ct arity=1 tags=id,t req= cost=m*n\n",
            # X = A^-T compiled to c2(A), dropping the inverse-transpose.
            "\nkernel c2 arity=1 tags=id,invt req= cost=0*m\n",
        ],
    )
    def test_rejects_unary_mixing_id_with_a_peel(self, config):
        with pytest.raises(KernelConfigError, match="tags=id alone") as info:
            load_kernel_config(config)
        assert info.value.lineno == 2

    def test_override_with_both_orientations_keeps_upper_solve(self):
        db = load_kernel_config(
            "kernel trsm arity=2 tags=inv,invt;id "
            "req=lower_triangular,square;|upper_triangular,square; cost=m*m*n/2\n"
        )
        assert len(by_id(db)["trsm"].variants) == 2
        assert [c.kernel_id for c in solve(upper_solve(), db).calls] == ["trsm"]

    def test_override_replaces_every_orientation(self):
        # A kernel line replaces the built-in whole, so one orientation
        # leaves upper-triangular solves to other kernels.
        db = load_kernel_config(
            "kernel trsm arity=2 tags=inv,invt;id req=lower_triangular,square; cost=m*m*n\n"
        )
        lower = op(8, 8, {P.LOWER_TRIANGULAR}, UnaryTag.INV)
        upper = op(8, 8, {P.UPPER_TRIANGULAR}, UnaryTag.INV)
        assert match(lower, op(8, 3), db)[0].id == "trsm"
        assert "trsm" not in [k.id for k in match(upper, op(8, 3), db)]
        assert [c.kernel_id for c in solve(upper_solve(), db).calls] == ["trtri", "trmm"]

    def test_alternative_with_wrong_group_count_names_its_line(self):
        with pytest.raises(KernelConfigError, match="req needs 2 ';'-separated group") as info:
            load_kernel_config(
                "# two orientations\n"
                "kernel tsv arity=2 tags=inv;id req=lower_triangular;|upper_triangular cost=m\n"
            )
        assert info.value.lineno == 2

    def test_unary_alternatives_build_one_variant_each(self):
        db = load_kernel_config(
            "kernel trinv arity=1 tags=inv req=lower_triangular|upper_triangular cost=m*m*m\n"
        )
        trinv = by_id(db)["trinv"]
        assert [[p.required for p in v] for v in trinv.variants] == [
            [frozenset({P.LOWER_TRIANGULAR})],
            [frozenset({P.UPPER_TRIANGULAR})],
        ]
        assert trinv.peel == "inv"
        assert trinv in match(op(5, 5, {P.UPPER_TRIANGULAR}, UnaryTag.INV), db=db)

    def test_comments_ignored(self):
        db = load_kernel_config("# nothing here\n\n")
        assert [k.id for k in db] == EXPECTED_ORDER
