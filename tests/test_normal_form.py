"""Normal-form arithmetic, comparison, decomposition, rendering."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsr.surreal import (
    EQ,
    GT,
    LT,
    SurrealNF,
    decompose,
    nf_cmp,
    omega,
    one,
    parse_nf,
    render_nf,
)
from conftest import random_nf
from reference.surreal import nf_from_json_obj

W = omega()


def rat(q) -> SurrealNF:
    return SurrealNF.from_rational(F(q))


class TestArithmetic:
    def test_like_term_collection(self):
        assert W + 2 * W == SurrealNF.monomial(one(), 3)

    def test_poly_mul_example(self):
        # (w^w + 3) * 2w = 2*w^(w+1) + 6*w
        lhs = (SurrealNF.monomial(W) + rat(3)) * (2 * W)
        expected = SurrealNF.monomial(W + one(), 2) + SurrealNF.monomial(one(), 6)
        assert lhs == expected

    def test_monomial_inverse(self):
        # (w^y * r)^(-1) = w^(-y) * (1/r)
        m = SurrealNF.monomial(rat(2), 4)
        assert m * SurrealNF.monomial(rat(-2), F(1, 4)) == one()

    def test_field_laws_randomized(self, rng):
        for _ in range(200):
            a, b, c = (random_nf(rng) for _ in range(3))
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a - a == SurrealNF.zero()

    def test_order_compatible_with_ring(self, rng):
        for _ in range(200):
            a, b = random_nf(rng), random_nf(rng)
            diff = b - a
            if nf_cmp(a, b) == LT:
                assert not diff.is_zero() and diff.terms[0][1] > 0
            elif nf_cmp(a, b) == GT:
                assert not diff.is_zero() and diff.terms[0][1] < 0
            else:
                assert diff.is_zero()


class TestComparison:
    def test_infinite_beats_any_real(self):
        assert nf_cmp(W, rat(10**6)) == GT

    def test_equal(self):
        a = SurrealNF.monomial(rat(-1), 1)
        assert nf_cmp(a, a) == EQ

    def test_recursive_exponent_comparison(self):
        # w^w > 5*w^2 because w > 2 in the exponents
        assert nf_cmp(SurrealNF.monomial(W), SurrealNF.monomial(rat(2), 5)) == GT


class TestDecompose:
    def test_three_parts(self):
        a = 2 * W + rat(3) + SurrealNF.monomial(rat(-1), 5)
        inf, real, small = decompose(a)
        assert inf == 2 * W
        assert real == 3
        assert small == SurrealNF.monomial(rat(-1), 5)
        assert inf + SurrealNF.from_rational(real) + small == a

    def test_pure_real(self):
        assert decompose(rat(7)) == (SurrealNF.zero(), 7, SurrealNF.zero())

    def test_zero(self):
        assert decompose(SurrealNF.zero()) == (SurrealNF.zero(), 0, SurrealNF.zero())

    def test_partition_random(self, rng):
        for _ in range(100):
            a = random_nf(rng)
            inf, real, small = decompose(a)
            assert inf + SurrealNF.from_rational(real) + small == a


class TestOmegaMap:
    # the w-map y -> w^y, the leader with exponent y
    def test_basic_values(self):
        assert SurrealNF.monomial(SurrealNF.zero()) == one()
        assert SurrealNF.monomial(one()) == W
        assert SurrealNF.monomial(SurrealNF.monomial(rat(-1))) == parse_nf("w^(w^(-1))")

    def test_monotone_and_archimedean(self, rng):
        for _ in range(60):
            x, y = random_nf(rng), random_nf(rng)
            if nf_cmp(x, y) == LT:
                wx, wy = SurrealNF.monomial(x), SurrealNF.monomial(y)
                assert nf_cmp(wx, wy) == LT
                for n in (1, 1000, 10**6):
                    assert nf_cmp(n * wx, wy) == LT


class TestRendering:
    @pytest.mark.parametrize(
        "text",
        [
            "0",
            "w^w - 1",
            "w^(w-1) + w^(w-2) + 2*w^(w-3)",
            "3/4",
            "-w + 1/2",
            "w^(-1)",
            "-5 + 1/2*w^(-2)",
            "w^(-1/2)",
            "-1/3*w^(w^(-1))",
            "w^(2/3) - 3",
            "-2*w^(1/2) - 7/2*w^(-7/3) + w^(-3)",
        ],
    )
    def test_round_trip_from_text(self, text):
        assert render_nf(parse_nf(text)) == text

    def test_round_trip_random(self, rng):
        for _ in range(150):
            a = random_nf(rng)
            assert parse_nf(render_nf(a)) == a

    def test_canonical_examples(self):
        assert render_nf(SurrealNF.monomial(W) - one()) == "w^w - 1"
        assert render_nf(SurrealNF.zero()) == "0"
        assert render_nf(SurrealNF.monomial(SurrealNF.from_rational(F(-1, 2)))) == "w^(-1/2)"
        inv_w = SurrealNF.monomial(SurrealNF.from_rational(-1))
        assert render_nf(SurrealNF.monomial(inv_w, F(-1, 3))) == "-1/3*w^(w^(-1))"
        two_thirds = SurrealNF.monomial(SurrealNF.from_rational(F(2, 3))) - 3
        assert render_nf(two_thirds) == "w^(2/3) - 3"
        assert render_nf(two_thirds, compact=True) == "w^(2/3)-3"

    def test_json_round_trip(self, rng):
        for _ in range(100):
            a = random_nf(rng)
            assert nf_from_json_obj(json.loads(json.dumps(a.to_json_obj()))) == a


# -- property tests -------------------------------------------------------------
# Deterministic and bounded, so they cost the same on every run.

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)

rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 6))


def nf_terms(depth: int = 2):
    """Lists of (exponent, coefficient) terms, exponents nested to ``depth``."""
    exponents = st.builds(SurrealNF.from_rational, rationals)
    if depth > 0:
        exponents = st.one_of(exponents, nfs(depth - 1))
    return st.lists(st.tuples(exponents, rationals), max_size=3)


def nfs(depth: int = 2):
    return nf_terms(depth).map(SurrealNF)


NF = nfs()


class TestProperties:
    @PROPERTY
    @given(NF, NF, NF)
    def test_add_associative_commutative(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)

    @PROPERTY
    @given(NF, NF, NF)
    def test_mul_associative_commutative_distributive(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @PROPERTY
    @given(NF, NF, NF)
    def test_cmp_total_order_compatible_with_add(self, a, b, c):
        ab = nf_cmp(a, b)
        assert ab == -nf_cmp(b, a)
        assert (ab == EQ) == (a == b)
        if ab != GT and nf_cmp(b, c) != GT:
            assert nf_cmp(a, c) != GT
        assert nf_cmp(a + c, b + c) == ab

    @PROPERTY
    @given(NF, NF)
    def test_equal_forms_hash_equal(self, a, b):
        rebuilt = (nf_from_json_obj(json.loads(json.dumps(a.to_json_obj()))), parse_nf(render_nf(a)), a * one() + SurrealNF.zero())
        for twin in rebuilt:
            assert twin == a and hash(twin) == hash(a)
        if a == b:
            assert hash(a) == hash(b)

    @PROPERTY
    @given(nf_terms(), st.data())
    def test_construction_ignores_order_and_split_terms(self, terms, data):
        a = SurrealNF(terms)
        assert SurrealNF(data.draw(st.permutations(terms))) == a
        if terms:
            i = data.draw(st.integers(0, len(terms) - 1))
            e, c = terms[i]
            part = data.draw(rationals)
            split = terms[:i] + [(e, part), (e, c - part)] + terms[i + 1 :]
            assert SurrealNF(split) == a
            assert render_nf(SurrealNF(split)) == render_nf(a)
