"""Genetic sign-expansion arithmetic against the exact dyadic oracle."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.signs import (
    Dyadic,
    MINUS,
    OverlapError,
    PLUS,
    SignExpansion,
    all_sign_expansions,
    genetic_add,
    genetic_mul,
    sign_expansion_of,
    sign_value,
    simplest_between,
)


def se(q) -> SignExpansion:
    return sign_expansion_of(F(q))


class TestSimplestBetween:
    def test_empty_cut_is_zero(self):
        assert simplest_between([], []) == SignExpansion()

    def test_zero_cut_gives_one(self):
        assert sign_value(simplest_between([se(0)], [])) == 1

    def test_unit_interval_gives_half(self):
        assert sign_value(simplest_between([se(0)], [se(1)])) == F(1, 2)

    def test_overlap_raises(self):
        with pytest.raises(OverlapError):
            simplest_between([se(1)], [se(0)])

    @pytest.mark.parametrize(
        "lo,hi,expected",
        [(F(-5, 2), None, 0), (None, F(-5, 2), -3), (F(1, 4), F(3, 8), F(5, 16)), (F(5, 2), F(15, 2), 3)],
    )
    def test_interval_values(self, lo, hi, expected):
        left = [se(lo)] if lo is not None else []
        right = [se(hi)] if hi is not None else []
        assert sign_value(simplest_between(left, right)) == expected

    def test_minimal_length_exhaustive(self):
        # Against brute force: shortest expansion strictly inside random cuts.
        universe = list(all_sign_expansions(8))
        cuts = [
            ([se(0)], [se(1)]),
            ([se(F(1, 4))], [se(F(1, 2))]),
            ([se(-2), se(F(-1, 2))], [se(F(3, 4)), se(5)]),
            ([se(F(5, 8))], [se(F(11, 16)), se(1)]),
            ([], [se(F(-7, 8))]),
        ]
        for left, right in cuts:
            got = simplest_between(left, right)
            brute = min(
                (x for x in universe if all(l < x for l in left) and all(x < r for r in right)),
                key=lambda x: (len(x), x.signs),
            )
            assert len(got) == len(brute)
            assert got == brute


class TestDyadicBijection:
    def test_round_trip_all_birthday_8(self):
        for x in all_sign_expansions(8):
            assert x.to_dyadic().to_sign_expansion() == x

    def test_reduced_form(self):
        with pytest.raises(ValueError):
            Dyadic(2, 1)
        assert Dyadic.from_fraction(F(6, 4)).numerator == 3

    def test_order_agrees_with_value(self):
        xs = list(all_sign_expansions(6))
        for a in xs:
            for b in xs:
                assert (a < b) == (sign_value(a) < sign_value(b))


class TestGeneticOps:
    @pytest.mark.parametrize("x", ["0", "3/4", "-1/2", "2"])
    def test_add_zero_identity(self, x):
        assert genetic_add(se(F(x)), se(0)) == se(F(x))

    def test_add_examples(self):
        assert sign_value(genetic_add(se(F(1, 2)), se(F(1, 2)))) == 1
        assert sign_value(genetic_add(se(F(3, 4)), se(F(-1, 4)))) == F(1, 2)

    @pytest.mark.parametrize("x", ["0", "3/4", "-1/2", "2"])
    def test_mul_one_identity(self, x):
        assert genetic_mul(se(F(x)), se(1)) == se(F(x))

    def test_mul_examples(self):
        assert sign_value(genetic_mul(se(F(1, 2)), se(F(1, 2)))) == F(1, 4)
        assert sign_value(genetic_mul(se(-2), se(F(3, 4)))) == F(-3, 2)

    def test_add_matches_dyadic_oracle_birthday_4(self):
        xs = list(all_sign_expansions(4))
        for a in xs:
            for b in xs:
                assert sign_value(genetic_add(a, b)) == sign_value(a) + sign_value(b)

    def test_mul_matches_dyadic_oracle_birthday_3(self):
        xs = list(all_sign_expansions(3))
        for a in xs:
            for b in xs:
                assert sign_value(genetic_mul(a, b)) == sign_value(a) * sign_value(b)


def sign_expansions(max_birthday: int):
    return st.lists(st.sampled_from((PLUS, MINUS)), max_size=max_birthday).map(SignExpansion)


# past the exhaustive birthdays above: sums up to birthday 9, products up to 6
@settings(derandomize=True, max_examples=60, deadline=None)
@given(sign_expansions(9), sign_expansions(9))
def test_add_matches_dyadic_arithmetic(a, b):
    assert sign_value(genetic_add(a, b)) == sign_value(a) + sign_value(b)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(sign_expansions(6), sign_expansions(6))
def test_mul_matches_dyadic_arithmetic(a, b):
    assert sign_value(genetic_mul(a, b)) == sign_value(a) * sign_value(b)
