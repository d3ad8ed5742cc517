"""Real-line oracles: the convergent-series oracles and Gamma's Taylor terms."""

import contextlib
import functools
import io
import itertools
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import libmp

from reference.elementary import exp_poly_term
from tsr.cli import run
from tsr.errors import DomainError
from tsr.operators import antidiff_no, extend
from tsr.operators.catalog import (
    catalog,
    ei_oracle,
    elementary_entry,
    erfi_integral_oracle,
    gamma_oracle,
    term_value,
)
from tsr.resummation import QuadratureConfig, special
from tsr.resummation.special import GUARD

#: (digits, extra bits): the extra bits are the precisions a nested mp.quad
#: integrand runs at, 20 bits per level
PRECISIONS = st.tuples(st.sampled_from((15, 30, 50, 100)), st.sampled_from((0, 20, 40)))


def grid(lo: int, hi: int, den: int):
    """Points n/den for n in [lo, hi], as Fractions."""
    return st.integers(lo, hi).map(lambda n: F(n, den))


def _mpf(q: F):
    return mp.mpf(q.numerator) / q.denominator


def _ulps(got, ref) -> float:
    """|got - ref| in units of the last place of a value of ref's size."""
    return float(abs(got - ref) / mp.ldexp(1, mp.mag(ref) - mp.mp.prec))


def _reference(fn, x):
    """fn(x) evaluated 40 digits above the working precision."""
    with mp.workdps(mp.mp.dps + 40):
        return fn(x)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    precision=PRECISIONS,
    ei_xs=st.lists(grid(1, 20 * 64, 64), min_size=1, max_size=3),
    erfi_xs=st.lists(grid(-12 * 64, 12 * 64, 64), min_size=1, max_size=3),
    airy_zs=st.lists(grid(-8 * 64, 16 * 64, 64), min_size=1, max_size=2),
)
@example(precision=(100, 40), ei_xs=[F(24, 64), F(20)], erfi_xs=[F(0), F(-12)], airy_zs=[F(16), F(-8)])
@example(precision=(30, 0), ei_xs=[F(1)], erfi_xs=[F(1)], airy_zs=[F(-64), F(-20)])
@example(precision=(50, 20), ei_xs=[F(1)], erfi_xs=[F(1)], airy_zs=[F(32), F(64)])
@example(precision=(30, 0), ei_xs=[F(1)], erfi_xs=[F(1)], airy_zs=[F(100), F(0)])
def test_oracles_agree_with_mpmath(precision, ei_xs, erfi_xs, airy_zs):
    # Ei, the erfi integral, Ai and Bi within 1 ulp, and so are Ai' and Bi',
    # the first Taylor terms (x = 24/64 is the grid point nearest the zero of Ei)
    dps, extra = precision
    with mp.workdps(dps):
        mp.mp.prec += extra
        for q in ei_xs:
            x = _mpf(q)
            assert _ulps(ei_oracle(x), _reference(mp.ei, x)) <= 1, q
        for q in erfi_xs:
            x = _mpf(q)
            got, ref = erfi_integral_oracle(x), _reference(lambda s: mp.sqrt(mp.pi) / 2 * mp.erfi(s), x)
            assert got == 0 if q == 0 else _ulps(got, ref) <= 1, q
        for q in airy_zs:
            z = _mpf(q)
            for name, ref in (("airy_ai", mp.airyai), ("airy_bi", mp.airybi)):
                assert _ulps(catalog()[name].oracle(z), _reference(ref, z)) <= 1, q
                derivative = catalog()[name].taylor_term(z, 1)[1]
                assert _ulps(derivative, _reference(lambda s: ref(s, derivative=1), z)) <= 1, q


@functools.lru_cache(maxsize=None)
def _airy_taylor_reference(name: str, x: tuple, k: int):
    """y^(k)(x)/k! of Ai or Bi at the raw mpf x, at 90 digits (40 above the
    highest precision tested), so the dyadic points share it across precisions."""
    with mp.workdps(90):
        return getattr(mp, name.replace("_", ""))(mp.mpf(x), derivative=k) / mp.factorial(k)


@pytest.mark.parametrize("dps", [15, 30, 50])
def test_airy_taylor_terms_agree_with_mpmath(dps):
    # y^(k)(x0)/k! for k <= 12 within 2 ulp, on both sides of 0
    with mp.workdps(dps):
        for x0 in (F(-1), F(1, 3), F(1, 2), F(2), F(5, 2), F(3), F(7, 2), F(5)):
            x = _mpf(x0)._mpf_
            for name in ("airy_ai", "airy_bi"):
                taylor = catalog()[name].taylor_term
                for k in range(13):
                    assert _ulps(taylor(x0, k)[1], _airy_taylor_reference(name, x, k)) <= 2, (name, x0, k)


def test_airy_taylor_terms_share_one_sum_per_point():
    # the 13 terms at one point read one (y, y') off the series at 0
    from tsr.operators.catalog import _airy_raw

    _airy_raw.cache_clear()
    with mp.workdps(50):
        terms = [catalog()["airy_bi"].taylor_term(F(7, 2), k) for k in range(13)]
    assert _airy_raw.cache_info().misses == 1 and len(terms) == 13


def _assert_airy_within_an_ulp(z, names=("airy_ai", "airy_bi")):
    """Ai, Bi and their derivatives (the first Taylor terms) at the mpf z
    within 1 ulp of mpmath's, at the context precision."""
    for name, ref in (("airy_ai", mp.airyai), ("airy_bi", mp.airybi)):
        if name not in names:
            continue
        assert _ulps(catalog()[name].oracle(z), _reference(ref, z)) <= 1, (name, z)
        derivative = catalog()[name].taylor_term(z, 1)[1]
        assert _ulps(derivative, _reference(lambda s: ref(s, derivative=1), z)) <= 1, (name, z)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dps=st.sampled_from((15, 30, 50, 100, 300)), q=grid(-64 * 1024, 64 * 1024, 1024))
@example(dps=300, q=F(64))
@example(dps=300, q=F(-64))
@example(dps=15, q=F(-4095, 64))
def test_airy_integer_sum_on_dyadic_points(dps, q):
    # the two term recurrences in z^3, summed in integers, over [-64, 64]
    with mp.workdps(dps):
        _assert_airy_within_an_ulp(_mpf(q))


@pytest.mark.parametrize("name, z", [("airy_bi", 1300), ("airy_ai", -570), ("airy_bi", -570)])
def test_airy_integer_sum_at_the_work_bound(name, z):
    # Bi's terms grow to about 2^45000 at 1300, with nothing cancelling;
    # at -570 they grow to about 2^13000 and cancel by as many bits
    with mp.workdps(15):
        _assert_airy_within_an_ulp(mp.mpf(z), (name,))


@pytest.mark.parametrize("dps", [15, 50, 300])
def test_airy_integer_sum_of_a_long_mantissa(dps):
    # z^3 takes three times z's bits, past a term's: it is floored to them
    with mp.workdps(dps):
        for z in (+mp.pi, -mp.mpf(1) / 3, 10 * mp.e, -mp.sqrt(300)):
            _assert_airy_within_an_ulp(z)


@pytest.mark.parametrize("dps", [15, 50, 300])
@pytest.mark.parametrize(
    "z",
    [(0, 0), (1, -30), (-1, -30), (1, -1000), (-3, -1000), (1, -1)],
    ids=["0", "2^-30", "-2^-30", "2^-1000", "-3*2^-1000", "1/2"],
)
def test_airy_integer_sum_stopping_at_the_peak(dps, z):
    # past the peak from k = 1 on (|z| <= 3^(1/3)), and at |z| <= 2^-30 the
    # sum stops there with one term of each series; y' is summed in units
    # |z| times y's, so dividing by a tiny z keeps it
    with mp.workdps(dps):
        _assert_airy_within_an_ulp(mp.ldexp(*z))


@pytest.mark.parametrize("z, dps", [("1400", 15), ("-600", 15), ("1e300", 15), ("-1e300", 15), ("200", 10000)])
def test_airy_past_the_work_bound_is_a_domain_error(z, dps):
    # the series' terms times its working bits past 2^30: refused before
    # any term is summed, at 10000 digits for a smaller |z|
    for name in ("airy_ai", "airy_bi"):
        with mp.workdps(dps), pytest.raises(DomainError, match="work bound"):
            catalog()[name].oracle(mp.mpf(z))


@pytest.mark.parametrize("z", [400, -400])
def test_airy_ai_within_the_work_bound(z):
    # the largest points the step-by-step oracle before the series was timed
    # at still get values
    with mp.workdps(15):
        assert _ulps(catalog()["airy_ai"].oracle(z), _reference(mp.airyai, z)) <= 2


#: the nearest doubles to the seventh zero of Bi and the third of Ai
_BI_ZERO_7, _AI_ZERO_3 = -9.538194379346239, -5.520559828095551


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    dps=st.integers(15, 100),
    z=st.one_of(grid(-30 * 1024, 30 * 1024, 1024).map(_mpf), st.floats(-30, 30).map(mp.mpf)),
    name=st.sampled_from(("airy_ai", "airy_bi")),
)
@example(dps=15, z=mp.mpf(_BI_ZERO_7), name="airy_bi")
@example(dps=30, z=mp.mpf(_AI_ZERO_3), name="airy_ai")
@example(dps=100, z=mp.mpf(30), name="airy_ai")
@example(dps=64, z=mp.mpf(-30), name="airy_bi")
def test_airy_oracles_within_their_rounding_of_mpmath(dps, z, name):
    # at dyadic points and at doubles (full 53-bit mantissas): the value is
    # mpmath's at 20 more digits rounded to the precision, within half a
    # unit of its last place; on z < 0, where the sum is good to its guard
    # bits of the modulus |z|^(-1/4) / sqrt(pi) (DLMF 9.8) and a value near
    # a zero is smaller, also within 2^-(prec+10) of the modulus
    oracle = catalog()[name].oracle
    with mp.workdps(dps):
        got, prec = oracle(z), mp.mp.prec
    with mp.workdps(dps + 20):
        ref = getattr(mp, name.replace("_", ""))(z)
        _, man, exp, bc = got._mpf_
        slack = mp.ldexp(1, exp + bc - prec - 1)  # half a unit of got's last place
        if z < 0:
            slack += mp.ldexp(abs(z) ** mp.mpf(-0.25) / mp.sqrt(mp.pi), -prec - 10)
        assert abs(got - ref) <= slack * (1 + mp.ldexp(1, -10)), (name, z, dps)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(order=st.permutations(range(12)))
def test_airy_values_do_not_depend_on_the_order_of_precisions(order):
    # Ai and Bi, their values at 0 and the Airy Borel sums at precisions in
    # one class and across classes: every value is bit-identical whichever
    # order they are asked for in from cleared caches
    from tsr.operators.catalog import _airy_at_zero_class, _airy_raw

    z = libmp.from_rational(-29, 8, 53, libmp.round_nearest)
    t = libmp.from_int(3)
    precs = (53, 60, 64, 65, 100, 128, 129, 200, 333, 64 * 7, 449, 1000)

    def values(indices):
        _airy_raw.cache_clear()
        _airy_at_zero_class.cache_clear()
        special._gamma_third_class.cache_clear()
        out = {}
        for i in indices:
            p = precs[i]
            out[i] = (
                _airy_raw("ai", z, p),
                _airy_raw("bi", libmp.mpf_neg(z), p),
                _airy_raw("ai", libmp.fzero, p),
                special.airy_laplace(t, 1 if i % 2 else -1, p),
                special.gamma_third(p),
            )
        return [out[i] for i in range(len(precs))]

    assert values(order) == values(range(len(precs)))


@pytest.mark.parametrize("dps", [15, 30, 50, 100])
def test_ei_oracle_at_its_zero(dps):
    # at the mpf nearest the zero of Ei the three parts of the sum cancel
    # to about the working precision; the value still lies within 1 ulp.
    # mp.ei cancels as well, so the reference works twice as many digits.
    with mp.workdps(2 * dps + 40):
        root = mp.findroot(mp.ei, mp.mpf("0.3725"))
        x = mp.mpf(mp.libmp.mpf_pos(root._mpf_, mp.libmp.dps_to_prec(dps), "n"))
        ref = mp.ei(x)
    with mp.workdps(dps):
        assert _ulps(ei_oracle(x), ref) <= 1


@pytest.mark.parametrize("x", ["300", "1e5", "1e300"])
def test_ei_oracle_past_the_working_bits(x):
    # beyond x = working bits the oracle sums the asymptotic series
    with mp.workdps(50):
        x = mp.mpf(x)
        assert _ulps(ei_oracle(x), _reference(mp.ei, x)) <= 1


@pytest.mark.parametrize("dps", [15, 30, 50, 100])
def test_erfi_integral_oracle_past_the_working_bits(dps):
    # beyond x^2 = working bits the oracle sums the asymptotic series; the
    # first point lies just past that switch
    with mp.workdps(dps):
        switch = mp.sqrt(mp.mp.prec + GUARD)
        for x in (switch + mp.mpf(1) / 1000, 20, -20, 100, 1000, -1000):
            x = mp.mpf(x)
            ref = _reference(lambda s: mp.sqrt(mp.pi) / 2 * mp.erfi(s), x)
            assert _ulps(erfi_integral_oracle(x), ref) <= 1, x


def test_series_oracles_make_no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("mp.quad called")

    monkeypatch.setattr(mp, "quad", refuse)
    monkeypatch.setattr(mp.mp, "quad", refuse)
    with mp.workdps(30):
        for x in ("0.25", "1", "7.5", "20"):
            ei_oracle(mp.mpf(x))
            erfi_integral_oracle(-mp.mpf(x))
    # Ei and its Taylor facility at a finite point, and the antiderivatives
    # of the decaying entries at real points, through the CLI
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["eval", "ei", "5/2+w^-1", "--terms", "4", "--prec", "30"]) == 0
        assert run(["integrate", "exp_neg", "1", "3"]) == 0
        assert run(["integrate", "exp_neg_over_x", "2", "5"]) == 0


@pytest.mark.parametrize("dps", [15, 30, 100])
def test_decaying_antiderivative_is_minus_e1(dps):
    # A_No(e^(-x)/x) is -E1(x), the Borel sum of its antiderivative series
    anti = antidiff_no(catalog()["exp_neg_over_x"])
    for q in (F(1, 10), F(1, 2), F(2), F(5), F(30), F(200)):
        got = extend(anti, q, cfg=QuadratureConfig(precision=dps))
        with mp.workdps(dps):
            assert _ulps(got, _reference(lambda s: -mp.e1(s), _mpf(q))) <= 4, q


@pytest.mark.parametrize("x0", [F(5, 2), F(3), F(47, 16)])
def test_gamma_taylor_terms_match_numeric_derivatives(x0):
    gamma = catalog()["gamma"]
    with mp.workdps(50):
        x = mp.mpf(x0.numerator) / x0.denominator
        assert gamma.taylor_term(x0, 0) == ("num", gamma_oracle(x))
        for k in range(1, 9):
            kind, got = gamma.taylor_term(x0, k)
            want = mp.diff(mp.gamma, x, k) / mp.factorial(k)
            assert kind == "num"
            assert abs(got / want - 1) < mp.mpf(10) ** -45


def test_gamma_taylor_computes_each_log_gamma_term_once(monkeypatch):
    # terms 1..11 of log Gamma come from one shifted sum, and no polygamma
    # function is evaluated
    calls = []
    loggamma_taylor = special.loggamma_taylor

    def psi(*args):
        raise AssertionError("mp.psi called")

    monkeypatch.setattr(mp, "psi", psi)
    monkeypatch.setattr(special, "loggamma_taylor", lambda *args: calls.append(args) or loggamma_taylor(*args))
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["eval", "gamma", "29/8+w^-1", "--terms", "12", "--prec", "50"]) == 0
    assert len(calls) == 1


#: dyadic points n / 2^m in (0, 64], m <= 10
DYADIC = st.integers(0, 10).flatmap(lambda m: st.integers(1, 64 << m).map(lambda n: F(n, 1 << m)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from((15, 30, 50, 100, 300)), DYADIC, st.integers(1, 24))
@example(50, F(5987, 4096), 1)  # psi near its zero at 1.4616...: 15 bits cancel
@example(15, F(1, 1024), 24)
@example(300, F(64), 24)
def test_loggamma_taylor_terms_within_two_ulp(dps, x0, K):
    # every term psi(x0) and (-1)^k zeta(k, x0) / k against mpmath's
    # polygamma at 20 more digits
    prec = libmp.dps_to_prec(dps)
    x = libmp.from_rational(x0.numerator, x0.denominator, prec)  # exact: a dyadic
    got = special.loggamma_taylor(x, K, prec)
    assert len(got) == K
    with mp.workdps(dps + 20):
        for k, (val, bound) in enumerate(got, 1):
            want = mp.psi(k - 1, mp.make_mpf(x)) / mp.factorial(k)
            rounded = mp.make_mpf(libmp.mpf_pos(val, prec, libmp.round_nearest))
            ulp = mp.mpf(2) ** (mp.floor(mp.log(abs(want), 2)) + 1 - prec)
            assert abs(rounded - want) <= 2 * ulp, (k, x0)
            assert abs(mp.make_mpf(val) - want) <= mp.make_mpf(bound) + abs(want) * mp.mpf(2) ** (-prec - 40), (k, x0)


#: (n, rate, p, c) of c x^n e^(rate x^p)
ELEMENTARY_SPECS = list(
    itertools.product(range(-2, 4), (F(2), F(-2), F(1), F(-1), F(1, 2), F(-1, 2)), (1, 2), (F(1), F(-3, 2)))
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.fractions(1, 12, max_denominator=1000), st.sampled_from((15, 30, 50)))
def test_erfi_integrand_is_within_a_unit_of_mpmath(x, digits):
    # e^(x^2) moves by x^2 times a rounding of x^2, up to 144 units at x = 12,
    # so x^2 is formed exactly from the mpf x and e^(x^2) past the precision,
    # then rounded: the oracle and the Taylor terms 0 and 1 each stay within
    # a unit, 2^(1 - prec) of the value
    entry = catalog()["erfi_integrand"]
    with mp.workdps(digits):
        x = _mpf(x)
        got = (entry.oracle(x), entry.taylor_term(x, 0)[1], entry.taylor_term(x, 1)[1])
    with mp.workdps(digits + 40):
        e = mp.exp(x * x)
        for value, ref in zip(got, (e, e, 2 * x * e)):
            assert abs(value - ref) <= abs(ref) * mp.ldexp(1, 1 - libmp.dps_to_prec(digits)), (x, digits)


@pytest.mark.parametrize("spec", ELEMENTARY_SPECS, ids=str)
def test_elementary_entry_views_agree(spec):
    # the finite group's Borel sum and the Taylor facility's term 0, at an
    # exact and at a rounded point, against the oracle: a wrong offset n/p + 1
    # or critical power is off by a power of x
    n, rate, p, c = spec
    entry = elementary_entry("f", n, rate, p=p, c=c)
    for x, dps in itertools.product((F(3, 2), F(5), F(41, 4)), (30, 50)):
        with mp.workdps(dps):
            want = entry.oracle(_mpf(x))
            # x and phi = rate x^p are exact binary numbers at these points, so
            # e^phi, x^n, the factor c and the sums each add a rounding unit or so
            bound = 8 * mp.eps * abs(want)
            views = (entry.eb_value(_mpf(x))[0], *(term_value(entry.taylor_term(x0, 0)) for x0 in (x, _mpf(x))))
            for got in views:
                assert abs(got - want) <= bound, (x, dps, got, want)


#: the five elementary entries c x^n e^(rate x^p) as (n, rate, p, c)
ELEMENTARY = {
    "exp": (0, F(1), 1, F(1)),
    "exp_neg": (0, F(-1), 1, F(1)),
    "ei_integrand": (-1, F(1), 1, F(1)),
    "exp_neg_over_x": (-1, F(-1), 1, F(1)),
    "erfi_integrand": (0, F(1), 2, F(1)),
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(ELEMENTARY)),
    k=st.sampled_from((0, 1, 3, 12)),
    precision=PRECISIONS,
    q=st.fractions(-30, 30, max_denominator=10**6).filter(bool),
)
@example(name="erfi_integrand", k=12, precision=(100, 40), q=F(-30))
@example(name="exp_neg_over_x", k=3, precision=(15, 0), q=F(-1, 3))
@example(name="exp", k=0, precision=(50, 0), q=F(1, 2**40))
def test_decimal_taylor_terms_bit_identical_to_the_reference(name, k, precision, q):
    # one exponential and raw libmp arithmetic give the mpf operators' bits,
    # at points given at the precision and 20 or 40 bits past it, which the
    # term rounds to the precision first
    digits, extra = precision
    with mp.workdps(digits + extra // 3):
        x = _mpf(q)
    with mp.workdps(digits):
        got = catalog()[name].taylor_term(x, k)
        want = exp_poly_term(*ELEMENTARY[name], x, k)
        assert got[0] == "num" and got[1]._mpf_ == want._mpf_, (name, k, digits, q)
        if k == 0:
            assert catalog()[name].oracle(x)._mpf_ == want._mpf_


@pytest.mark.parametrize("name", sorted(ELEMENTARY))
@pytest.mark.parametrize("x", [mp.inf, -mp.inf, mp.nan, float("inf"), float("nan")], ids=repr)
def test_elementary_terms_at_a_non_finite_point_are_a_domain_error(name, x):
    entry = catalog()[name]
    with pytest.raises(DomainError, match="non-finite point"):
        entry.oracle(x)
    for k in (0, 1):
        with pytest.raises(DomainError, match="non-finite point"):
            entry.taylor_term(x, k)


@pytest.mark.parametrize("x", [F(0), mp.mpf(0), 0, 0.0], ids=repr)
def test_a_negative_power_at_zero_is_a_domain_error(x):
    for name in ("ei_integrand", "exp_neg_over_x"):
        with pytest.raises(DomainError, match=r"x\^\(-1\) has no value at x = 0"):
            catalog()[name].taylor_term(x, 0)
        with pytest.raises(DomainError, match=r"x\^\(-4\) has no value at x = 0"):
            catalog()[name].taylor_term(x, 3)
        with pytest.raises(DomainError, match="has no value at x = 0"):
            catalog()[name].oracle(x)
    # no negative power: a value
    assert catalog()["exp"].taylor_term(x, 1)[-1] == 1


@pytest.mark.parametrize("name", sorted(catalog()))
@pytest.mark.parametrize("dps", [15, 50])
def test_an_oracle_reads_a_fraction_at_the_working_precision(name, dps):
    # a Fraction point is its quotient at the working precision, bit for bit
    # the value at that mpf
    with mp.workdps(dps):
        assert catalog()[name].oracle(F(7, 3))._mpf_ == catalog()[name].oracle(mp.mpf(7) / 3)._mpf_
