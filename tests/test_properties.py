"""Property vocabulary: closure, consistency, and the inference maps."""

import copy
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from matchain import (
    UnaryTag,
    close,
    infer_properties,
    inverse_props,
    matrix,
    transpose_props,
    vector,
)
from matchain.errors import (
    DimensionPropertyMismatchError,
    InconsistentPropertiesError,
    NonSquareError,
)
from matchain.properties import IMPLICATIONS, SQUARE_ONLY, Property

from helpers import RECT_MENU, SQUARE_MENU

P = Property


class TestClose:
    def test_empty_square_gains_square(self):
        assert close(frozenset(), 3, 3) == {P.SQUARE}

    def test_empty_rect_stays_empty(self):
        assert close(frozenset(), 3, 4) == frozenset()

    def test_identity_closure(self):
        got = close({P.IDENTITY}, 5, 5)
        assert got == {
            P.IDENTITY,
            P.DIAGONAL,
            P.LOWER_TRIANGULAR,
            P.UPPER_TRIANGULAR,
            P.SYMMETRIC,
            P.SPD,
            P.ORTHOGONAL,
            P.NONSINGULAR,
            P.SQUARE,
        }

    def test_diagonal_implies_both_triangles(self):
        got = close({P.DIAGONAL}, 4, 4)
        assert {P.LOWER_TRIANGULAR, P.UPPER_TRIANGULAR, P.SQUARE} <= got

    def test_spd_implies_symmetric_nonsingular(self):
        got = close({P.SPD}, 4, 4)
        assert {P.SYMMETRIC, P.NONSINGULAR} <= got

    def test_vector_needs_single_column(self):
        close({P.VECTOR}, 7, 1)
        with pytest.raises(DimensionPropertyMismatchError):
            close({P.VECTOR}, 7, 2)

    def test_vector_excludes_square_only(self):
        with pytest.raises(InconsistentPropertiesError):
            close({P.VECTOR, P.SYMMETRIC}, 7, 1)

    def test_square_only_needs_square_dims(self):
        for prop in (P.SYMMETRIC, P.SPD, P.ORTHOGONAL, P.IDENTITY):
            with pytest.raises(DimensionPropertyMismatchError):
                close({prop}, 3, 4)

    def test_triangular_allowed_rectangular(self):
        got = close({P.LOWER_TRIANGULAR}, 5, 2)
        assert P.LOWER_TRIANGULAR in got and P.SQUARE not in got

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(100):
            props = rng.choice(SQUARE_MENU)
            once = close(props, 6, 6)
            assert close(once, 6, 6) == once


class TestTranspose:
    def test_swaps_triangles(self):
        lower = close({P.LOWER_TRIANGULAR}, 4, 4)
        got = transpose_props(lower)
        assert P.UPPER_TRIANGULAR in got and P.LOWER_TRIANGULAR not in got

    def test_spd_invariant(self):
        spd = close({P.SPD}, 4, 4)
        assert transpose_props(spd) == spd

    def test_diagonal_invariant(self):
        diag = close({P.DIAGONAL}, 4, 4)
        assert transpose_props(diag) == diag

    def test_vector_dropped(self):
        vec = close({P.VECTOR}, 6, 1)
        assert P.VECTOR not in transpose_props(vec)

    def test_involution_without_vector(self):
        rng = random.Random(5)
        for _ in range(200):
            props = close(rng.choice(SQUARE_MENU), 6, 6)
            assert transpose_props(transpose_props(props)) == props
        for _ in range(200):
            props = close(rng.choice(RECT_MENU), 6, 3)
            assert transpose_props(transpose_props(props)) == props


class TestInverse:
    def test_requires_square(self):
        with pytest.raises(NonSquareError):
            inverse_props(close({P.LOWER_TRIANGULAR}, 3, 4))

    def test_adds_nonsingular(self):
        got = inverse_props(close(frozenset(), 3, 3))
        assert P.NONSINGULAR in got

    def test_preserves_structure(self):
        for seed in (P.LOWER_TRIANGULAR, P.UPPER_TRIANGULAR, P.DIAGONAL, P.SPD):
            before = close({seed}, 5, 5)
            after = inverse_props(before)
            assert before <= after


class TestInferProperties:
    def infer(self, lprops, ldims, rprops, rdims):
        return infer_properties(
            close(lprops, *ldims), ldims, close(rprops, *rdims), rdims
        )

    def test_lower_times_lower(self):
        got = self.infer({P.LOWER_TRIANGULAR}, (4, 4), {P.LOWER_TRIANGULAR}, (4, 4))
        assert P.LOWER_TRIANGULAR in got and P.UPPER_TRIANGULAR not in got

    def test_upper_times_upper(self):
        got = self.infer({P.UPPER_TRIANGULAR}, (4, 4), {P.UPPER_TRIANGULAR}, (4, 4))
        assert P.UPPER_TRIANGULAR in got

    def test_mixed_triangles_full(self):
        got = self.infer({P.LOWER_TRIANGULAR}, (4, 4), {P.UPPER_TRIANGULAR}, (4, 4))
        assert got == frozenset({P.SQUARE})

    def test_diagonal_times_diagonal(self):
        got = self.infer({P.DIAGONAL}, (4, 4), {P.DIAGONAL}, (4, 4))
        assert P.DIAGONAL in got

    def test_identity_neutral(self):
        rprops = close({P.SPD}, 4, 4)
        got = infer_properties(close({P.IDENTITY}, 4, 4), (4, 4), rprops, (4, 4))
        assert got == rprops
        lprops = close({P.LOWER_TRIANGULAR}, 4, 4)
        got = infer_properties(lprops, (4, 4), close({P.IDENTITY}, 4, 4), (4, 4))
        assert got == lprops

    def test_orthogonal_times_orthogonal(self):
        got = self.infer({P.ORTHOGONAL}, (4, 4), {P.ORTHOGONAL}, (4, 4))
        assert P.ORTHOGONAL in got

    def test_nonsingular_needs_both_square(self):
        got = self.infer({P.NONSINGULAR}, (4, 4), {P.NONSINGULAR}, (4, 4))
        assert P.NONSINGULAR in got
        got = self.infer(frozenset(), (3, 4), {P.NONSINGULAR}, (4, 4))
        assert P.NONSINGULAR not in got

    def test_symmetry_never_propagates(self):
        got = self.infer({P.SYMMETRIC}, (4, 4), {P.SYMMETRIC}, (4, 4))
        assert P.SYMMETRIC not in got

    def test_vector_right_wins(self):
        got = self.infer({P.LOWER_TRIANGULAR}, (4, 4), {P.VECTOR}, (4, 1))
        assert P.VECTOR in got
        assert P.LOWER_TRIANGULAR not in got

    def test_full_fallback(self):
        # A product that no rule covers has the set of an undeclared
        # operand of its shape: nothing beyond what its dimensions imply.
        assert self.infer(frozenset(), (3, 4), frozenset(), (4, 5)) == frozenset()
        assert self.infer(frozenset(), (3, 4), frozenset(), (4, 3)) == {P.SQUARE}

    def test_result_square_from_dims(self):
        got = self.infer(frozenset(), (3, 4), frozenset(), (4, 3))
        assert P.SQUARE in got

    def test_result_always_closed(self):
        rng = random.Random(23)
        for _ in range(200):
            ldims = (rng.randint(1, 9), rng.randint(1, 9))
            rdims = (ldims[1], rng.randint(1, 9))
            lmenu = SQUARE_MENU if ldims[0] == ldims[1] else RECT_MENU
            rmenu = SQUARE_MENU if rdims[0] == rdims[1] else RECT_MENU
            lprops = close(rng.choice(lmenu), *ldims)
            rprops = close(rng.choice(rmenu), *rdims)
            got = infer_properties(lprops, ldims, rprops, rdims)
            assert got == close(got, ldims[0], rdims[1])


class TestSharedSets:
    """Each distinct closed set is one object, so structural keys made of
    property sets match by identity."""

    def test_operands_of_equal_structure_share_their_set(self):
        a, b = matrix("A", 4, 4), matrix("B", 9, 9)
        assert a.properties is b.properties
        assert vector("u", 3).properties is vector("v", 7).properties
        assert close([P.SPD], 5, 5) is close({P.SPD, P.SYMMETRIC}, 6, 6)

    def test_products_share_the_operands_set(self):
        a, b = matrix("A", 3, 3), matrix("B", 3, 3)
        got = infer_properties(a.properties, (3, 3), b.properties, (3, 3))
        assert got is a.properties

    def test_transpose_and_inverse_return_shared_sets(self):
        lower = close({P.LOWER_TRIANGULAR}, 4, 4)
        assert transpose_props(lower) is close({P.UPPER_TRIANGULAR}, 5, 5)
        assert transpose_props(transpose_props(lower)) is lower
        assert inverse_props(close({P.NONSINGULAR}, 4, 4)) is close({P.NONSINGULAR}, 3, 3)
        assert inverse_props(lower) is close({P.LOWER_TRIANGULAR, P.NONSINGULAR}, 2, 2)
        spd = close({P.SPD}, 4, 4)
        assert inverse_props(spd) is spd

    def test_a_raise_names_its_own_dims(self):
        close({P.SPD}, 4, 4)
        with pytest.raises(DimensionPropertyMismatchError, match="3x4"):
            close({P.SPD}, 3, 4)
        with pytest.raises(DimensionPropertyMismatchError, match="5x2"):
            close({P.SPD}, 5, 2)
        close({P.VECTOR}, 4, 1)
        with pytest.raises(DimensionPropertyMismatchError, match="4x2"):
            close({P.VECTOR}, 4, 2)


@given(st.sets(st.sampled_from([p for p in Property if p not in SQUARE_ONLY and p is not Property.VECTOR])))
def test_closure_monotone_square(props):
    got = close(frozenset(props), 6, 6)
    assert frozenset(props) <= got
    for prop in got:
        assert IMPLICATIONS.get(prop, frozenset()) <= got


@pytest.mark.parametrize("member", [*UnaryTag, *Property], ids=repr)
def test_members_survive_pickle_and_deepcopy(member):
    # Members hash by identity, so a copy must be the member itself.
    keys = {m: m.value for m in [*UnaryTag, *Property]}
    copies = [copy.deepcopy(member), copy.copy(member)]
    copies += [
        pickle.loads(pickle.dumps(member, proto))
        for proto in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for twin in copies:
        assert twin is member
        assert hash(twin) == hash(member)
        assert twin in frozenset(keys)
        assert keys[twin] == member.value
