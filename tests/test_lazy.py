"""LazyNF streams and Conway Limits with stabilization schedules."""

from fractions import Fraction as F
from itertools import count
from math import factorial

import pytest
from conftest import time_budget
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.surreal import NotStabilizedError, lim
from test_normal_form import nfs, rationals

from tsr.errors import UndecidableSupport
from tsr.surreal import lazy
from tsr.stream import DEFAULT_ORDER_SCAN
from tsr.surreal import LazyNF, SurrealNF, omega, one

W = omega()


def inv_omega_pow(k: int) -> SurrealNF:
    return SurrealNF.from_rational(-k)


def partial_sum(coeff, n: int) -> SurrealNF:
    total = SurrealNF.zero()
    for k in range(n + 1):
        total = total + SurrealNF.monomial(inv_omega_pow(k + 1), coeff(k))
    return total


def geometric_seq(n: int) -> SurrealNF:
    return partial_sum(lambda k: F(1, 2**k), n)


def factorial_seq(n: int) -> SurrealNF:
    return partial_sum(lambda k: factorial(k), n)


def descending_schedule(n: int):
    return [(inv_omega_pow(k + 1), k) for k in range(n)]


class TestLim:
    def test_geometric(self):
        value = lim(geometric_seq, descending_schedule(10))
        for k, (e, c) in enumerate(value.terms(6)):
            assert e == inv_omega_pow(k + 1)
            assert c == F(1, 2**k)

    def test_factorial_series_is_conway_convergent(self):
        value = lim(factorial_seq, descending_schedule(10))
        assert [c for _, c in value.terms(5)] == [1, 1, 2, 6, 24]

    def test_constant_sequence(self):
        a = SurrealNF.monomial(W, 2) - one()
        value = lim(lambda n: a, [(e, 0) for e, _ in a.terms])
        assert value.truncate(5) == a

    def test_not_stabilized_detected(self):
        def flapping(n: int) -> SurrealNF:
            return SurrealNF.from_rational(n % 2)

        value = lim(flapping, [(SurrealNF.zero(), 3)])
        with pytest.raises(NotStabilizedError):
            value.terms(1)

    def test_strictly_decreasing_enforced(self):
        bad = LazyNF(lambda: iter([(one(), F(1)), (one(), F(2))]))
        with pytest.raises(ValueError):
            bad.terms(2)


class TestLimLaws:
    def test_linearity_on_truncations(self):
        N = 6
        a, b = F(3), F(-2)
        combo = lim(
            lambda n: a * geometric_seq(n) + b * factorial_seq(n),
            descending_schedule(N + 2),
        )
        separate = lim(geometric_seq, descending_schedule(N + 2)).scale(a) + lim(
            factorial_seq, descending_schedule(N + 2)
        ).scale(b)
        assert combo.truncate(N) == separate.truncate(N)

    def test_products_on_truncations(self):
        # Lim(x_n * y_n) agrees with Lim(x_n) * Lim(y_n) termwise.
        N = 6

        def prod_seq(n: int) -> SurrealNF:
            return geometric_seq(n) * factorial_seq(n)

        # the coefficient of w^-(m) involves factors up to index m, settled by n = m
        schedule = [(inv_omega_pow(m), m) for m in range(2, N + 4)]
        left = lim(prod_seq, schedule)
        right = lim(geometric_seq, descending_schedule(N + 6)).truncate(N + 4) * lim(
            factorial_seq, descending_schedule(N + 6)
        ).truncate(N + 4)
        expect = [t for t in right.terms if t[0] >= inv_omega_pow(N + 1)]
        assert left.terms(len(expect)) == expect

    def test_render_with_ellipsis(self):
        value = lim(factorial_seq, descending_schedule(12))
        assert value.render(3) == "w^(-1) + w^(-2) + 2*w^(-3) + ..."


def test_cancelling_sum_stops_searching():
    # two infinite streams that cancel term by term: no first term exists
    a = LazyNF(lambda: ((SurrealNF.from_rational(-k), 1) for k in count(1)))
    with time_budget(10.0):
        with pytest.raises(UndecidableSupport):
            (a + a.scale(-1)).term(0)
        # a sum that cancels for a while and then differs still has its term
        b = LazyNF(lambda: ((SurrealNF.from_rational(-k), -1 if k < 20 else 1) for k in count(1)))
        assert (a + b).term(0) == (SurrealNF.from_rational(-20), 2)


def test_zero_limit_stops_searching():
    # a schedule whose coefficients are all zero: no first term exists
    zeros = lim(lambda n: SurrealNF.zero(), ((inv_omega_pow(k), 0) for k in count()))
    with time_budget(10.0):
        with pytest.raises(UndecidableSupport):
            zeros.term(0)
    # zeros for a while and then a value still give the term
    late = SurrealNF.monomial(inv_omega_pow(40), F(3))
    assert lim(lambda n: late, ((inv_omega_pow(k), 0) for k in count())).term(0) == (inv_omega_pow(40), 3)


@pytest.mark.parametrize("steps", [DEFAULT_ORDER_SCAN - 1, DEFAULT_ORDER_SCAN])
def test_the_stream_keeps_the_search_budget(steps):
    # a generator of any kind: `steps` search steps that find nothing (zero
    # terms at one shared exponent), then a term
    nothing = (SurrealNF.zero(), F(0))
    stream = LazyNF(lambda: iter([(SurrealNF.zero(), F(1))] + [nothing] * steps + [(inv_omega_pow(1), F(2))]))
    assert stream.term(0) == (SurrealNF.zero(), 1)
    if steps < DEFAULT_ORDER_SCAN:
        assert stream.terms(3) == [(SurrealNF.zero(), 1), (inv_omega_pow(1), 2)]
    else:
        with pytest.raises(UndecidableSupport):
            stream.term(1)


# -- derived streams ----------------------------------------------------------
# scale, shift, drop and the merge of a sum map terms that were checked where
# they were generated, and compare no exponents of their own.


@settings(derandomize=True, max_examples=60, deadline=None)
@given(nfs(), nfs(), rationals.filter(bool), nfs(1), st.integers(0, 8))
def test_derived_layers_agree_with_the_exact_normal_form(a, b, c, o, n):
    generated = LazyNF(lambda: iter(a.terms))
    got = (generated.scale(c).shift(o) + LazyNF.from_nf(b)).truncate(n)
    exact = a * SurrealNF.monomial(o, c) + b
    assert got.terms == exact.terms[:n] and all(type(r) is F for _, r in got.terms)


@pytest.mark.parametrize(
    "layer",
    [
        lambda s: s.scale(F(-2, 3)),
        lambda s: s.shift(W),
        lambda s: s.drop(1),
        lambda s: s.scale(2).shift(one()) + LazyNF.from_nf(SurrealNF.from_rational(-5)),
    ],
    ids=["scale", "shift", "drop", "sum"],
)
def test_an_unordered_generator_raises_through_derived_layers(layer):
    bad = LazyNF(lambda: iter([(W, F(1)), (one(), F(1)), (W, F(2))]))
    with pytest.raises(ValueError, match="not strictly decreasing"):
        layer(bad).terms(3)


def test_derived_layers_compare_each_term_once(monkeypatch):
    calls = []
    real = lazy.nf_cmp
    monkeypatch.setattr(lazy, "nf_cmp", lambda a, b: calls.append(1) or real(a, b))
    n = 40
    evens = lambda: LazyNF(lambda: ((inv_omega_pow(2 * k), F(k)) for k in count(1)))
    # one generated stream through scale and shift layers: its own order check only
    evens().scale(3).shift(W).scale(F(1, 2)).shift(one()).terms(n)
    assert len(calls) <= n
    # two generated streams (x^-2, x^-4, ... shifted to x^-3, x^-5, ...) merged
    # and scaled: each pulled term is compared once where it is generated and
    # once in the merge
    calls.clear()
    x, y = evens().scale(3).shift(inv_omega_pow(1)), evens().scale(F(-1, 2))
    summed = (x + y).scale(2).shift(W)
    assert [e for e, _ in summed.terms(n)] == [W + inv_omega_pow(k) for k in range(2, n + 2)]
    assert len(calls) <= 2 * (n + 2)
