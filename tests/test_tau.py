"""The tau-map's series stream at r*w + s, against the window-and-horizon algorithm,
and the exponential of an infinitesimal stream on its exponent grid."""

from fractions import Fraction as F
from itertools import count
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsr.errors import UndecidableSupport, UnsupportedPointError
from tsr.operators import SurrealValue, analyze_point, catalog, exp_surreal_value, extend, monomial_entry, tau_eval
from tsr.operators.tau import conway_sum, eval_series_at, exp_grid, tau_eval_group
from tsr.surreal import GT, LazyNF, SurrealNF, decompose, nf_cmp, omega, one, parse_nf
from tsr.surreal import normal_form
from tsr.transseries import PowerSeries, ts_parse
from tsr.stream import DEFAULT_ORDER_SCAN
from conftest import time_budget
from reference.surreal import exp_infinitesimal

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)

#: leader-count slack of the reference algorithm's windows
WINDOW_SLACK = 4


def reference_tilt(u: SurrealNF, q: F, window: int) -> SurrealNF:
    """(1 + u)^q through u^window, one add-and-multiply round per order."""
    if u.is_zero():
        return one()
    if q.denominator == 1 and 0 <= q < window:
        window = int(q)  # binom(q, j) vanishes for j > q
    acc, uk, binom = SurrealNF.zero(), one(), F(1)
    for j in range(window + 1):
        acc = acc + uk * binom
        uk = uk * u
        binom *= (q - j) / (j + 1)
    return acc


def reference_series_stream(ps: PowerSeries, pt, offset: F, min_terms: int) -> LazyNF:
    """sum(c_l t0^(offset - l)) by re-summing a widening window of l from 1.

    The coefficient of a fixed leader receives finitely many (l, j)
    contributions, so the terms above e1 * (offset - n) are final once the
    first n series terms and enough powers of the tilt are summed.
    """
    e1 = pt.t0_lead_exp
    b = pt.t0_lead_coef

    def materialize(n_leaders: int) -> tuple[list, bool]:
        total = SurrealNF.zero()
        exhausted = False
        exact_tilts = True
        tilt_window = int(e1 * n_leaders) + 1 + WINDOW_SLACK
        for l in range(1, n_leaders + 1):
            if ps.length is not None and l > ps.length:
                exhausted = True
                break
            c = ps.coeff(l)
            if c == 0:
                continue
            q = offset - l
            if not (q.denominator == 1 and 0 <= q <= tilt_window):
                exact_tilts = False  # the binomial series for (1+u)^q is infinite
            tilt = reference_tilt(pt.u, q, tilt_window)
            total = total + SurrealNF.monomial(SurrealNF.from_rational(e1 * q), c * b**-l) * tilt
        if exhausted and (pt.u.is_zero() or exact_tilts):
            return list(total.terms), True
        horizon = SurrealNF.from_rational(e1 * (offset - n_leaders))
        return [t for t in total.terms if nf_cmp(t[0], horizon) == GT], False

    def gen():
        n = min_terms + WINDOW_SLACK
        emitted = 0
        while True:
            safe, final = materialize(n)
            while emitted < len(safe):
                yield safe[emitted]
                emitted += 1
            if final:
                return
            n += max(min_terms, 4)

    return LazyNF(gen)


small = st.builds(F, st.integers(-5, 5), st.integers(1, 4))
positive = st.builds(F, st.integers(1, 5), st.integers(1, 3))


@st.composite
def points(draw):
    """(point, critical coefficient, critical power) with r*w + s in the grammar."""
    s = draw(st.one_of(st.just(F(0)), small, small))
    if s == 0 and draw(st.booleans()):
        # a fractional power needs s = 0 and an integer r^p
        r, p = draw(st.sampled_from([F(1), F(4)])), F(3, 2)
    else:
        r, p = draw(positive), F(draw(st.integers(1, 3)))
    nu = SurrealNF.monomial(one(), r) + SurrealNF.from_rational(s)
    return nu, draw(positive), p


@st.composite
def series(draw):
    """Finite series, or divergent ones with short zero runs.

    A rational generating function (a cycle of coefficients, say) can sum to
    a finite normal form, whose end no algorithm can see: sum((w+1)^-l) = 1/w.
    """
    coeffs = draw(st.lists(small, min_size=1, max_size=5))
    if draw(st.booleans()):
        return PowerSeries.from_coeffs(coeffs)
    if not any(coeffs):
        coeffs[0] = F(1)
    return PowerSeries(lambda l: coeffs[l % len(coeffs)] * factorial(l - 1))


offsets = st.one_of(
    st.integers(-2, 6).map(F),
    st.builds(F, st.integers(-9, 9), st.sampled_from([2, 3, 4])).filter(lambda q: q.denominator != 1),
)


@PROPERTY
@given(points(), series(), offsets, st.integers(1, 6))
def test_leader_stream_matches_window_algorithm(point, ps, offset, n):
    nu, coef, power = point
    pt = analyze_point(nu, crit_coef=coef, crit_power=power)
    pref, stream = eval_series_at(ps, pt, offset)
    want = reference_series_stream(ps, pt, offset, n)
    assert stream.terms(n + 1) == want.terms(n + 1)
    assert pref == eval_series_at(ps, pt, offset)[0]


def binomial_leaders(ps: PowerSeries, pt, offset: F, terms: int) -> list:
    """The first ``terms`` nonzero coefficients of w^(p offset - m), m >= p,
    as the binomial sum sum(c_l b^-l binom(p (offset - l), m - p l) x^(m - p l))
    written directly in Fractions, for s != 0 (so p = e1 is an integer).
    Past DEFAULT_ORDER_SCAN zero leaders in a row the sum counts as ended."""
    p, b, x = int(pt.t0_lead_exp), pt.t0_lead_coef, pt.s / pt.r

    def binom(q: F, k: int) -> F:
        out = F(1)
        for i in range(k):
            out = out * (q - i) / (i + 1)
        return out

    out, zeros = [], 0
    for m in count(p):
        top = m // p if ps.length is None else min(m // p, ps.length)
        coef = sum((ps.coeff(l) * b**-l * binom(p * (offset - l), m - p * l) * x ** (m - p * l) for l in range(1, top + 1)), F(0))
        if coef:
            out.append((SurrealNF.from_rational(p * offset - m), coef))
            zeros = 0
        else:
            zeros += 1
        if len(out) == terms or zeros > DEFAULT_ORDER_SCAN:
            return out


@pytest.mark.parametrize("name,point,p", [("ei", "2*w+1", 1), ("erfi_integral", "w-3", 2)])
def test_catalog_streams_match_the_binomial_sum(name, point, p):
    entry = catalog()[name]
    (group,) = entry.transseries.plus
    pt = analyze_point(parse_nf(point), crit_coef=entry.crit_coef, crit_power=entry.crit_power)
    assert pt.t0_lead_exp == p
    want = binomial_leaders(group.series, pt, group.offset, 48)
    assert len(want) == 48
    assert eval_series_at(group.series, pt, group.offset)[1].terms(48) == want


late_primes = st.sampled_from([53, 59, 61, 67, 71, 73])


@PROPERTY
@given(
    st.builds(F, st.integers(1, 9), st.integers(2, 4)).filter(lambda r: r.denominator != 1),
    st.builds(F, st.integers(-7, -1), st.integers(1, 5)),
    st.integers(1, 3),
    positive,
    offsets,
    st.lists(st.integers(-4, 4).filter(bool), min_size=8, max_size=8),
    late_primes,
    late_primes,
    st.booleans(),
)
def test_a_late_denominator_rescales_the_live_terms(r, s, p, coef, offset, nums, q5, q7, finite):
    # c_5 and c_7 bring primes that no earlier term's denominator holds, so
    # the shared denominator grows while earlier terms are live
    coeffs = [F(k) for k in nums]
    coeffs[4] /= q5
    coeffs[6] /= q7
    if finite:
        ps = PowerSeries.from_coeffs(coeffs)
    else:
        ps = PowerSeries(lambda l: coeffs[(l - 1) % 8] * factorial(l - 1))
    nu = SurrealNF.monomial(one(), r) + SurrealNF.from_rational(s)
    pt = analyze_point(nu, crit_coef=coef, crit_power=F(p))
    want = binomial_leaders(ps, pt, offset, 12 * p)
    assert eval_series_at(ps, pt, offset)[1].terms(12 * p) == want


rates = st.builds(F, st.integers(-5, 5).filter(bool), st.integers(1, 4))


@PROPERTY
@given(points(), rates, series(), offsets, st.integers(1, 6))
def test_group_exponential_is_one_monomial(point, mu, ps, offset, n):
    # mu*t0 has exponents p, ..., 0 only, so e^(mu t0) = w^E e^q, and a
    # group's value is its series stream shifted by E
    nu, coef, power = point
    pt = analyze_point(nu, crit_coef=coef, crit_power=power)
    mu_t0 = SurrealNF.monomial(SurrealNF.from_rational(pt.t0_lead_exp), mu * pt.t0_lead_coef) * (one() + pt.u)
    assert decompose(mu_t0)[2].is_zero()
    (exp_group,) = exp_surreal_value(SurrealValue.from_nf(mu_t0)).groups
    (lead,) = exp_group.stream.terms(2)
    series_pref, series_stream = eval_series_at(ps, pt, offset)
    got = tau_eval_group(mu, offset, ps, pt)
    assert got.prefactor == exp_group.prefactor * series_pref
    want = [(e + lead[0], c * lead[1]) for e, c in series_stream.terms(n)]
    assert got.stream.terms(n) == want


@pytest.mark.parametrize("power", [F(0), F(-1, 2), F(-1)])
def test_critical_time_must_be_positive_infinite(power):
    with pytest.raises(UnsupportedPointError, match="critical power"):
        analyze_point(omega(), crit_power=power)
    with pytest.raises(UnsupportedPointError, match="critical power"):
        tau_eval(ts_parse("exp(x)/x"), omega(), crit_power=power)


def test_finite_series_stream_ends():
    # t0 = w + 1: (w+1)^2 + 3(w+1) = w^2 + 5w + 4, and nothing after it
    ps = PowerSeries.from_coeffs([F(1), F(3)])
    _, stream = eval_series_at(ps, analyze_point(parse_nf("w+1")), F(3))
    assert stream.render(8) == "w^2 + 5*w + 4"
    assert stream.term(3) is None


def test_unbounded_series_with_finite_support_stops_searching():
    ps = PowerSeries(lambda l: 1 if l <= 2 else 0)
    _, stream = eval_series_at(ps, analyze_point(parse_nf("w+1")), F(3))
    with time_budget(10.0):
        assert stream.truncate(3) == parse_nf("w^2 + 3*w + 2")
        with pytest.raises(UndecidableSupport):
            stream.render(8)


def test_extend_work_does_not_grow_with_terms(monkeypatch):
    ei, point = catalog()["ei"], parse_nf("w+1")
    calls = []
    real = normal_form.nf_mul
    monkeypatch.setattr(normal_form, "nf_mul", lambda a, b: calls.append(1) or real(a, b))
    counts = []
    for n in (16, 64):
        calls.clear()
        (group,) = extend(ei, point, n).merged().groups
        assert len(group.stream.terms(n)) == n
        counts.append(len(calls))
    assert counts[0] == counts[1]


# -- exp on the exponent grid ---------------------------------------------------


def w_power(e) -> SurrealNF:
    return SurrealNF.monomial(SurrealNF.from_rational(e))


nonzero = small.filter(bool)


@st.composite
def grid_infinitesimals(draw):
    """sum(c_d w^(step d)) over depths 1 < d_2 < ...: integer or fractional
    steps, gaps up to a dozen grid points, and maybe one off-grid depth."""
    step = -draw(st.sampled_from([F(1), F(2), F(1, 2), F(2, 3), F(3, 2)]))
    depths = {F(1)} | set(draw(st.lists(st.integers(2, 14).map(F), max_size=4)))
    if draw(st.booleans()):
        depths.add(draw(st.builds(F, st.integers(3, 20), st.sampled_from([2, 3])).filter(lambda d: d.denominator != 1)))
    return SurrealNF([(SurrealNF.from_rational(step * d), draw(nonzero)) for d in sorted(depths)])


@PROPERTY
@given(grid_infinitesimals())
def test_grid_exp_matches_the_conway_sum(z):
    assert exp_grid(LazyNF.from_nf(z)).terms(10) == exp_infinitesimal(z).terms(10)


def test_grid_exp_of_an_empty_stream_is_one():
    stream = exp_grid(LazyNF.from_nf(SurrealNF.zero()))
    assert stream.truncate(2) == one() and stream.term(1) is None


def test_grid_exp_of_a_log_stops_searching():
    # log(1 + m) = sum((-1)^(j+1) m^j / j) with m = 1/w: its exp is 1 + m
    log1p = LazyNF(lambda: ((SurrealNF.from_rational(-j), F((-1) ** (j + 1), j)) for j in count(1)))
    stream = exp_grid(log1p)
    with time_budget(10.0):
        assert stream.truncate(2) == one() + w_power(-1)
        with pytest.raises(UndecidableSupport):
            stream.term(2)


@pytest.mark.parametrize(
    "z", [SurrealNF.monomial(-omega()), w_power(-1) + SurrealNF.monomial(-omega())], ids=["first", "later"]
)
def test_grid_exp_refuses_a_non_rational_exponent(z):
    with pytest.raises(UnsupportedPointError, match="non-rational"):
        exp_grid(LazyNF.from_nf(z)).terms(3)


def test_conway_sum_with_vanishing_coefficients_stops_searching():
    def coeff(k):
        return F(1) if k < 2 else F(0)

    with time_budget(10.0):
        stream = conway_sum(coeff, w_power(-1))
        assert stream.truncate(2) == one() + w_power(-1)
        with pytest.raises(UndecidableSupport):
            stream.term(2)
        # a partial-sum term still below the horizon comes out past the budget
        stream = conway_sum(coeff, w_power(-1) + w_power(-100))
        assert stream.truncate(3) == one() + w_power(-1) + w_power(-100)
        with pytest.raises(UndecidableSupport):
            stream.term(3)


def test_conway_sum_with_a_length_runs_past_a_long_zero_run():
    # x^70 at 1/w: the Taylor sum at 0 has 70 zero coefficients before its last
    with time_budget(10.0):
        assert conway_sum(lambda k: F(int(k == 70)), w_power(-1), length=71).truncate(5) == w_power(-70)
        (group,) = extend(monomial_entry(70), parse_nf("w^-1")).merged().groups
        assert group.stream.truncate(5) == w_power(-70)
