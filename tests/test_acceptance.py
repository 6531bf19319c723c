"""End-to-end acceptance checks, one test per criterion."""

import random
import time

import numpy as np
import pytest

from matchain import (
    IndexDecl,
    Property,
    brute_force_min,
    build_tables,
    matrix,
    naive_cost,
    parse,
    random_instance,
    solve,
    structural_residual,
    vector,
)
from matchain.cli import main
from matchain.errors import NoKernelApplicableError, UnsatisfiableError

from helpers import random_chain

P = Property


def test_criterion_1_vector_chain_right_to_left():
    chain = parse(
        "y = M1 * M2 * x",
        [
            matrix("M1", 100, 100),
            matrix("M2", 100, 100),
            vector("x", 100),
            vector("y", 100),
        ],
    )
    start = time.perf_counter()
    plan = solve(chain)
    naive = naive_cost(chain)
    elapsed = time.perf_counter() - start
    assert plan.parenthesization == (0, (1, 2))
    assert plan.total_cost == 40_000
    assert naive == 2_020_000
    assert naive / plan.total_cost == 50.5
    assert elapsed < 1.0


def test_criterion_2_triangular_multiply_speedup():
    chain = parse(
        "C = L1 * L2",
        [
            matrix("L1", 100, 100, {P.LOWER_TRIANGULAR}),
            matrix("L2", 100, 100, {P.LOWER_TRIANGULAR}),
            matrix("C", 100, 100),
        ],
    )
    plan = solve(chain)
    assert [c.kernel_id for c in plan.calls] == ["trtrmm"]
    assert plan.total_cost == pytest.approx(100 ** 3 / 3, rel=1e-9)
    assert plan.total_cost * 6 == pytest.approx(2_000_000)
    tables = build_tables(chain)
    assert P.LOWER_TRIANGULAR in tables.ops[tables.ids[0][1]].props


def test_criterion_3_inverse_becomes_solve():
    chain = parse(
        "x = A^-1 * B * y",
        [
            matrix("A", 1000, 1000),
            matrix("B", 1000, 1000),
            vector("y", 1000),
            vector("x", 1000),
        ],
    )
    plan = solve(chain)
    ids = [c.kernel_id for c in plan.calls]
    assert "gesv" in ids
    assert "gemm" in ids
    assert "getri" not in ids
    expected = 2e6 + (2 / 3) * 1e9 + 2e6
    assert plan.total_cost == pytest.approx(expected, rel=1e-9)


def test_criterion_4_property_propagation_is_sound():
    chain = parse(
        "C = A * B^T",
        [
            matrix("A", 60, 60, {P.LOWER_TRIANGULAR}),
            matrix("B", 60, 60, {P.UPPER_TRIANGULAR}),
            matrix("C", 60, 60),
        ],
    )
    tables = build_tables(chain)
    product_props = tables.ops[tables.ids[0][1]].props
    assert P.LOWER_TRIANGULAR in product_props

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        a = random_instance(chain.factors[0].operand.properties, 60, 60, rng)
        b = random_instance(chain.factors[1].operand.properties, 60, 60, rng)
        worst = max(worst, structural_residual(a @ b.T, product_props))
    assert worst <= 1e-12


def test_criterion_5_solver_matches_brute_force():
    rng = random.Random(1234)
    start = time.perf_counter()
    compared = 0
    for _ in range(200):
        chain = random_chain(rng, n_min=2, n_max=5, dim_max=20)
        try:
            plan = solve(chain)
        except (NoKernelApplicableError, UnsatisfiableError):
            with pytest.raises((NoKernelApplicableError, UnsatisfiableError)):
                brute_force_min(chain)
            continue
        cost, _ = brute_force_min(chain)
        assert plan.total_cost == pytest.approx(cost, rel=1e-9)
        compared += 1
    elapsed = time.perf_counter() - start
    assert compared > 150
    assert elapsed < 30.0


def test_criterion_6_indexed_chain_reuses_invariant_product():
    i = IndexDecl("i", 8)
    chain = parse(
        "X[i] = A[i] * B * C * d",
        [
            i,
            matrix("A", 50, 50, indices=(i,)),
            matrix("B", 50, 50),
            matrix("C", 50, 50),
            vector("d", 50),
            vector("X", 50, indices=(i,)),
        ],
    )
    plan = solve(chain)

    # B only ever enters one combining call; it must run outside the loop.
    b_calls = [c for c in plan.calls if "B" in c.inputs]
    assert len(b_calls) == 1
    assert b_calls[0].multiplicity == 1
    assert b_calls[0].loops == ()

    # Hand-derived: T0 = C*d and T1 = B*T0 are loop-invariant vector
    # products (2*50*50 flops each); the loop then runs 8 products
    # A[i]*T1 of the same shape.
    gemv = 2 * 50 * 50
    assert plan.total_cost == 2 * gemv + 8 * gemv == 50_000

    free_chain = parse(
        "x = A * B * C * d",
        [
            matrix("A", 50, 50),
            matrix("B", 50, 50),
            matrix("C", 50, 50),
            vector("d", 50),
            vector("x", 50),
        ],
    )
    assert plan.total_cost < 8 * solve(free_chain).total_cost


def test_criterion_7_classic_matrix_chain():
    chain = parse(
        "D = A1 * A2 * A3",
        [
            matrix("A1", 10, 100),
            matrix("A2", 100, 5),
            matrix("A3", 5, 50),
            matrix("D", 10, 50),
        ],
    )
    plan = solve(chain)
    assert plan.parenthesization == ((0, 1), 2)
    assert plan.total_cost == 15_000


def test_criterion_8_scaling_stays_near_cubic():
    def timed_solve(n):
        decls = [matrix(f"A{t}", 30, 30) for t in range(n)]
        decls.append(matrix("Z", 30, 30))
        text = "Z = " + " * ".join(f"A{t}" for t in range(n))
        chain = parse(text, decls)
        start = time.perf_counter()
        solve(chain)
        return time.perf_counter() - start

    t40 = timed_solve(40)
    assert t40 < 2.0
    t80 = timed_solve(80)
    # Cubic growth predicts ~8x; allow headroom for noise, with a floor on
    # the denominator so a fast small run cannot fail the ratio spuriously.
    assert t80 / max(t40, 0.05) <= 12.0


def test_criterion_9_invariant_discharge_hoisted(tmp_path, capsys):
    i = IndexDecl("i", 8)
    chain = parse(
        "X[i] = A[i] * B^-1",
        [
            i,
            matrix("A", 50, 50, indices=(i,)),
            matrix("B", 50, 50),
            matrix("X", 50, 50, indices=(i,)),
        ],
    )
    plan = solve(chain)

    # Hand-derived: getri(B) costs 2*50^3 = 250,000 flops and reads no
    # indexed operand, so it runs once; the loop runs 8 gemms of 2*50^3.
    getri, gemm = plan.calls
    assert (getri.kernel_id, getri.loops, getri.multiplicity) == ("getri", (), 1)
    assert (gemm.kernel_id, gemm.loops, gemm.multiplicity) == ("gemm", (i,), 8)
    assert plan.total_cost == 250_000 + 8 * 250_000 == 2_250_000
    assert brute_force_min(chain)[0] == 2_250_000

    problem = tmp_path / "hoist.mc"
    problem.write_text(
        "index i 8\nmatrix A 50 50 indices=i\nmatrix B 50 50\n"
        "matrix X 50 50 indices=i\ncompute X[i] = A[i] * B^-1\n"
    )
    assert main([str(problem), "--verify"]) == 0
    text = capsys.readouterr().out
    assert text.index("T0 := getri(B)") < text.index("for i in 1..8:")
    assert "# total_flops=2250000\n# oracle=agree" in text
    assert main([str(problem), "--verify", "--format", "records"]) == 0
    records = capsys.readouterr().out
    assert "call kernel=getri in1=B out=T0 cost=250000.0 math='T0 := B^-1'\n" in records
    assert "verify oracle=agree oracle_total=2250000.0" in records
