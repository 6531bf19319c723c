"""Brute-force oracle and numeric instantiation checks."""

import itertools
import random

import numpy as np
import pytest

from matchain import (
    Chain,
    FLOPS,
    Factor,
    Operand,
    TaggedOperand,
    UnaryTag,
    best_pair_cost,
    brute_force_min,
    close,
    default_db,
    find_sequence,
    infer_properties,
    matrix,
    parse,
    random_instance,
    structural_residual,
    vector,
)
from matchain.errors import NoKernelApplicableError
from matchain.oracle import MAX_FACTORS
from matchain.properties import Property

from helpers import RECT_MENU, SQUARE_MENU, random_operand_pair

P = Property


def op(rows, cols, props=(), tag=UnaryTag.ID):
    return TaggedOperand(rows, cols, close(props, rows, cols), tag)


class TestBruteForce:
    def test_classic_chain_value(self):
        chain = parse(
            "D = A * B * C",
            [
                matrix("A", 10, 100),
                matrix("B", 100, 5),
                matrix("C", 5, 50),
                matrix("D", 10, 50),
            ],
        )
        cost, tree = brute_force_min(chain)
        assert cost == 15_000
        assert tree == ((0, 1), 2)

    def test_vector_chain_value(self):
        chain = parse(
            "y = M1 * M2 * x",
            [
                matrix("M1", 100, 100),
                matrix("M2", 100, 100),
                vector("x", 100),
                vector("y", 100),
            ],
        )
        cost, tree = brute_force_min(chain)
        assert cost == 40_000
        assert tree == (0, (1, 2))

    def test_two_factor_agrees_with_find_sequence(self):
        rng = random.Random(79)
        for _ in range(60):
            left, right = random_operand_pair(rng)
            a = Operand("A", left.rows, left.cols, left.props, ())
            b = Operand("B", right.rows, right.cols, right.props, ())
            chain = Chain("C", (), (Factor(a, left.tag), Factor(b, right.tag)))
            try:
                seq = find_sequence(left, right)
            except NoKernelApplicableError:
                with pytest.raises(NoKernelApplicableError):
                    brute_force_min(chain)
                continue
            cost, tree = brute_force_min(chain)
            assert cost == seq.total_cost / 3  # in flops, and in thirds of one
            assert tree == (0, 1)

    def test_factor_limit(self):
        decls = [matrix(f"A{t}", 4, 4) for t in range(MAX_FACTORS + 1)]
        decls.append(matrix("Z", 4, 4))
        text = "Z = " + " * ".join(f"A{t}" for t in range(MAX_FACTORS + 1))
        chain = parse(text, decls)
        with pytest.raises(ValueError):
            brute_force_min(chain)

    def test_single_factor_error_lists_props_sorted(self):
        db = [k for k in default_db() if k.arity == 2]
        a = matrix("A", 4, 4, {P.NONSINGULAR, P.LOWER_TRIANGULAR})
        chain = parse("B = A^-1", [a, matrix("B", 4, 4)])
        with pytest.raises(NoKernelApplicableError) as info:
            brute_force_min(chain, db)
        assert str(info.value) == (
            "no unary sequence materializes a 4x4 operand tagged INV "
            "with props lower_triangular,nonsingular,square"
        )

    def test_pair_oracle_infinity_when_uncovered(self):
        db = [k for k in default_db() if k.arity == 1]
        assert best_pair_cost(op(4, 4), op(4, 4), db, FLOPS) == float("inf")

    def test_pair_oracle_known_value(self):
        cost = best_pair_cost(
            op(10, 10, tag=UnaryTag.INV), op(10, 1),
            default_db(), FLOPS,
        )
        assert cost == 2 * 1000 + 3 * 200  # thirds of a flop


class TestRandomInstance:
    def test_square_menu_conforms(self):
        rng = np.random.default_rng(83)
        for props in SQUARE_MENU:
            closed = close(props, 9, 9)
            for _ in range(5):
                m = random_instance(closed, 9, 9, rng)
                assert m.shape == (9, 9)
                assert structural_residual(m, closed) <= 1e-12

    def test_rect_menu_conforms(self):
        rng = np.random.default_rng(89)
        for props in RECT_MENU:
            closed = close(props, 7, 4)
            for _ in range(5):
                m = random_instance(closed, 7, 4, rng)
                assert m.shape == (7, 4)
                assert structural_residual(m, closed) <= 1e-12

    def test_nonsingular_instances_invert(self):
        rng = np.random.default_rng(97)
        for props in SQUARE_MENU:
            closed = close(props, 8, 8)
            if P.NONSINGULAR not in closed:
                continue
            m = random_instance(closed, 8, 8, rng)
            assert np.linalg.cond(m) < 1e8

    def test_identity_exact(self):
        rng = np.random.default_rng(101)
        m = random_instance(close({P.IDENTITY}, 5, 5), 5, 5, rng)
        assert np.array_equal(m, np.eye(5))

    def test_residual_detects_violations(self):
        m = np.ones((4, 4))
        assert structural_residual(m, close({P.DIAGONAL}, 4, 4)) > 0.5
        assert structural_residual(m, close({P.LOWER_TRIANGULAR}, 4, 4)) > 0.5
        asym = np.triu(np.ones((4, 4)))
        assert structural_residual(asym, close({P.SYMMETRIC}, 4, 4)) > 0.5
        assert structural_residual(np.eye(4), close({P.SPD}, 4, 4)) == 0.0


class TestInferenceSoundness:
    def test_products_satisfy_inferred_properties(self):
        # Whatever infer_properties claims for a product must hold for
        # actual matrices drawn with the input properties.
        rng = np.random.default_rng(103)
        for props1, props2 in itertools.product(SQUARE_MENU, repeat=2):
            a_props = close(props1, 8, 8)
            b_props = close(props2, 8, 8)
            inferred = infer_properties(a_props, (8, 8), b_props, (8, 8))
            a = random_instance(a_props, 8, 8, rng)
            b = random_instance(b_props, 8, 8, rng)
            assert structural_residual(a @ b, inferred) <= 1e-12

    def test_rect_products_sound(self):
        rng = np.random.default_rng(107)
        for props1, props2 in itertools.product(RECT_MENU, repeat=2):
            a_props = close(props1, 6, 4)
            b_props = close(props2, 4, 5)
            inferred = infer_properties(a_props, (6, 4), b_props, (4, 5))
            a = random_instance(a_props, 6, 4, rng)
            b = random_instance(b_props, 4, 5, rng)
            assert structural_residual(a @ b, inferred) <= 1e-12

    def test_vector_product_sound(self):
        rng = np.random.default_rng(109)
        a_props = close({P.LOWER_TRIANGULAR}, 6, 6)
        x_props = close({P.VECTOR}, 6, 1)
        inferred = infer_properties(a_props, (6, 6), x_props, (6, 1))
        assert P.VECTOR in inferred
        a = random_instance(a_props, 6, 6, rng)
        x = random_instance(x_props, 6, 1, rng)
        assert (a @ x).shape == (6, 1)
