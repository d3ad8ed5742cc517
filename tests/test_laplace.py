"""Averaged Laplace numerics: PV poles, branch points, Pade, Watson, eb_sum."""

import importlib
from fractions import Fraction as F
from math import factorial

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tsr.errors import DegenerateTableError, GrowthBoundViolated, SingularPointError
from tsr.coefficients import NAMED_SERIES, named_series
from tsr.operators import antidiff_no, catalog
from tsr.resummation import (
    BorelPoly,
    ClosedFormKernel,
    CothKernel,
    KernelEntry,
    PadeKernel,
    QuadratureConfig,
    average_eval,
    borel_transform,
    catalan_weight,
    eb_sum,
    laplace,
    log_kernel,
    pade_continue,
    pole_kernel,
    resolve_default,
    sqrt_branch_kernel,
    watson_check,
)
from tsr.transseries import PowerSeries, ts_antidiff, ts_parse
from tsr.transseries.grid import groups_of

CFG = QuadratureConfig()


def poly_kernel(*coeffs):
    """The polynomial sum(c_k p^k) as a closed-form kernel with no singular terms."""
    return ClosedFormKernel(F(-1), [], BorelPoly(tuple(map(F, coeffs))))


def mpf_close(a, b, tol):
    return abs(mp.mpf(a) - mp.mpf(b)) <= tol * max(1, abs(mp.mpf(b)))


class TestAverageEval:
    def test_log_kernel_at_two_vanishes(self):
        # man(-log(1-p)) = -log|1-p| = 0 at p = 2
        assert abs(average_eval(log_kernel(1), 2, cfg=CFG)) < 1e-40

    def test_below_first_singularity_is_plain_value(self):
        f = pole_kernel(1)
        assert mpf_close(average_eval(f, 0.5, cfg=CFG), 2.0, 1e-30)

    def test_branch_below(self):
        f = sqrt_branch_kernel(1, 1)
        assert mpf_close(average_eval(f, F(3, 4), cfg=CFG), 2.0, 1e-30)

    def test_branch_average_vanishes_beyond(self):
        f = sqrt_branch_kernel(1, 1)
        # the generic weighted sum leaves only rounding noise of cos(pi/2)
        assert abs(average_eval(f, 2, cfg=CFG)) < 1e-40
        # the closed-form average is exactly zero
        assert f.value(mp.mpf(2)) == 0

    def test_singular_point_raises(self):
        with pytest.raises(SingularPointError):
            average_eval(pole_kernel(1), 1, cfg=CFG)

    def test_weighted_sum_matches_half_sum(self):
        f = log_kernel(1)
        p = mp.mpf("1.7")
        averaged = average_eval(f, p, weights=catalan_weight, cfg=CFG)
        half = (f.lateral(p, +1) + f.lateral(p, -1)).real / 2
        assert mpf_close(averaged, half, 1e-35)


class TestLaplace:
    def test_constant_kernel(self):
        val, err = laplace(poly_kernel(1), 2, CFG)
        assert abs(val - mp.mpf("0.5")) <= err

    def test_pv_pole_is_ei(self):
        # e^x PV L[1/(1-p)] = Ei(x)
        for x in (4, 8):
            val, _ = laplace(pole_kernel(1), x, CFG)
            ref = mp.exp(-x) * mp.ei(x)
            assert mpf_close(val, ref, 1e-12)

    def test_log_route_matches_pv_route(self):
        # x L[-log|1-p|] = PV L[1/(1-p)] (integration by parts)
        x = 6
        pv, _ = laplace(pole_kernel(1), x, CFG)
        lg, _ = laplace(pole_kernel(1).p_integral(1), x, CFG)
        assert mpf_close(x * lg, pv, 1e-12)

    def test_branch_kernel_is_erfi_integral(self):
        # (x/2) e^(x^2) int_0^1 e^(-x^2 p) (1-p)^(-1/2) dp = int_0^x e^(s^2) ds
        for x in (1, 2):
            t = mp.mpf(x) ** 2
            val, _ = laplace(sqrt_branch_kernel(1, F(1, 2)), t, CFG)
            lhs = mp.mpf(x) * mp.exp(t) * val
            ref = mp.quad(lambda s: mp.exp(s * s), [0, x])
            assert mpf_close(lhs, ref, 1e-14)

    def test_growth_bound(self):
        k = log_kernel(1)  # c3 = 1/4
        with pytest.raises(GrowthBoundViolated):
            laplace(k, 0.1, CFG)

    def test_halving_tolerance_stays_within_estimate(self):
        # quadrature convergence: refining changes results less than the estimate
        for kernel in (pole_kernel(1), sqrt_branch_kernel(1, F(1, 2)), CothKernel()):
            loose = QuadratureConfig(abs_tol=1e-8, rel_tol=1e-7, precision=30)
            tight = QuadratureConfig(abs_tol=1e-16, rel_tol=1e-14, precision=60)
            v1, e1 = laplace(kernel, 6, loose)
            v2, e2 = laplace(kernel, 6, tight)
            assert abs(v1 - v2) <= e1 + e2


class TestPade:
    def test_reproduces_rational_input(self):
        b = BorelPoly((F(1),) * 6)
        k = pade_continue(b, (0, 1))
        assert k.num == (1,) and k.den == (1, -1)

    def test_exponential_accuracy(self):
        b = BorelPoly(tuple(F(1, factorial(k)) for k in range(8)))
        k2 = pade_continue(b, (2, 2))
        k3 = pade_continue(b, (3, 3))
        errs2 = [abs(k2.value(p) - mp.exp(p)) for p in (0.25, 0.5, 0.75, 1.0)]
        errs3 = [abs(k3.value(p) - mp.exp(p)) for p in (0.25, 0.5, 0.75, 1.0)]
        assert max(errs2) < 5e-3  # the (2,2) entry reaches only ~4e-3 at p=1
        assert max(errs3) < 1e-3

    def test_branch_proxy_pole_cluster(self):
        b = BorelPoly(tuple(sqrt_branch_kernel(1, 1).taylor(8)))
        k = pade_continue(b, (4, 4))
        poles = k.real_positive_poles()
        assert len(poles) >= 3
        assert all(p > 1 for p in poles)
        assert min(poles) < 1.05  # accumulation toward the branch point

    def test_degenerate_table(self):
        with pytest.raises(DegenerateTableError):
            pade_continue(BorelPoly((F(1), F(0), F(0), F(0))), (1, 2))

    def test_taylor_matches_input(self):
        b = BorelPoly((F(1), F(2), F(3), F(1), F(5), F(2), F(1)))
        k = pade_continue(b, (3, 3))
        assert k.taylor(6) == list(b.coeffs)


class TestWatson:
    def test_monomial_exact(self):
        # f(p) = p: Laplace = 1/x^2 = Gamma(2)/x^2, up to the quadrature error
        kernel = poly_kernel(0, 1)
        rep = watson_check(kernel, a=1, b=1, K=0, cfg=CFG)
        assert rep.passed
        for x, diff, _ in rep.points:
            assert diff <= laplace(kernel, x, CFG)[1]

    def test_sqrt_branch_coefficients(self):
        rep = watson_check(sqrt_branch_kernel(1, 1), a=1, b=0, K=4, xs=(4.0, 6.0, 8.0, 12.0), cfg=CFG)
        assert rep.passed

    def test_coth_kernel_leading_twelfth(self):
        assert CothKernel().taylor(0)[0] == F(1, 12)
        rep = watson_check(CothKernel(), a=2, b=0, K=3, xs=(4.0, 6.0, 8.0), cfg=CFG)
        assert rep.passed


class TestEbSum:
    def test_convergent_series_is_direct_sum(self):
        conv = ts_parse("series![1/2, 1/4, 1/8, 1/16, 1/32, 1/64]")
        val, _ = eb_sum(conv, 3, CFG)
        with mp.workdps(CFG.precision):
            direct = sum(mp.mpf(1) / 2**k / mp.mpf(3) ** k for k in range(1, 7))
            assert mpf_close(val, direct, mp.mpf(10) ** -40)

    def test_ei_transseries(self):
        ei_ts = ts_antidiff(ts_parse("exp(x)/x"))
        val, err = eb_sum(ei_ts, 10, CFG, resolver=lambda s: KernelEntry(pole_kernel(1), 1))
        ref = mp.ei(10)
        assert mpf_close(val, ref, 1e-10)

    def test_ei_generic_pade_route(self):
        ei_ts = ts_antidiff(ts_parse("exp(x)/x"))  # its series carries a derived kernel
        val, err = eb_sum(ei_ts, 8, CFG, resolver=resolve_default)
        assert mpf_close(val, mp.ei(8), 1e-9)

    def test_monomial_fixed_point(self):
        ts = ts_parse("x^(3)*exp(2*x)*series![1]")  # x^3 e^(2x) / x = x^2 e^(2x)
        val, _ = eb_sum(ts, 5, CFG)
        assert mpf_close(val, mp.mpf(25) * mp.exp(10), 1e-20)

    def test_log_part_exact(self):
        ts = ts_parse("x^2*log(x) + 3 - 2/x")
        val, _ = eb_sum(ts, 7, CFG)
        ref = 49 * mp.log(7) + 3 - mp.mpf(2) / 7
        assert mpf_close(val, ref, 1e-25)

    def test_finite_series_with_a_kernel_is_its_own_sum(self, monkeypatch):
        def no_laplace(*args, **kwargs):
            raise AssertionError("a finite series was Laplace-integrated")

        monkeypatch.setattr(_laplace_mod, "laplace", no_laplace)
        anti = antidiff_no(catalog()["exp_neg"])  # -e^(-x), a finite series
        (group,) = groups_of(anti.transseries)
        assert group.series.is_finite() and group.series.kernel is not None
        val, err = anti.eb_value(3, QuadratureConfig(precision=30))
        with mp.workdps(30):
            assert abs(val + mp.exp(-3)) <= mp.eps * mp.exp(-3)
        assert err == 0


# -- the panel stopping rule ------------------------------------------------------
# Each panel refines until two successive levels differ by at most abs_tol/100,
# and reports that difference as its error.

_laplace_mod = importlib.import_module("tsr.resummation.laplace")


def named_closed_form(name: str, x):
    """The Borel sum of #name at x, from mpmath at the working precision."""
    if name == "ei":
        return mp.exp(-x) * mp.ei(x)
    if name == "erfi":
        return mp.exp(-x) * mp.sqrt(mp.pi / x) * mp.erfi(mp.sqrt(x)) / 2
    # #stirling is log Gamma less its Stirling head
    return mp.loggamma(x) - ((x - mp.mpf(1) / 2) * mp.log(x) - x + mp.log(2 * mp.pi) / 2)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    st.fractions(-20, 20, max_denominator=12).filter(bool),
    st.sampled_from(("ei", "erfi", "stirling")),
    st.floats(4.5, 16, allow_nan=False),
    st.sampled_from((15, 30, 50, 100)),
)
def test_named_sum_is_within_its_reported_error(c, name, x, digits):
    cfg = QuadratureConfig(precision=digits)
    val, err = eb_sum(ts_parse(f"{c}*#{name}"), x, cfg)
    with mp.workdps(digits + 20):
        ref = mp.mpf(c.numerator) / c.denominator * named_closed_form(name, mp.mpf(x))
        assert abs(val - ref) <= err <= max(cfg.abs_tol, cfg.rel_tol * abs(val))


def mp_fraction(q):
    return mp.mpf(q.numerator) / q.denominator


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    st.fractions(F(1, 4), 4, max_denominator=16),
    st.fractions(-8, 8, max_denominator=6).filter(bool),
    st.fractions(3, 15, max_denominator=8),
    st.sampled_from((30, 50)),
)
def test_pole_fold_is_the_principal_value(s, c, x, digits):
    # PV L[c/(1 - p/s)](x) = c s e^(-xs) Ei(xs)
    val, err = laplace(pole_kernel(s, c), x, QuadratureConfig(precision=digits))
    with mp.workdps(digits + 20):
        s, c, x = map(mp_fraction, (s, c, x))
        assert abs(val - c * s * mp.exp(-x * s) * mp.ei(x * s)) <= err


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    st.sampled_from(((F(1), F(3)), (F(1, 3), F(7, 3)))),
    st.sampled_from((1, 8)),
    st.fractions(3, 15, max_denominator=8),
    st.sampled_from((30, 50)),
)
def test_pade_folds_at_both_poles(poles, c, x, digits):
    # c/((1 - p/a)(1 - p/b)) = c A/(1 - p/a) + c B/(1 - p/b): one fold per pole
    a, b = poles
    pade = PadeKernel([F(c)], [F(1), -1 / a - 1 / b, 1 / (a * b)])
    locations = [s.location for s in pade.singularities()]
    assert len(locations) == 2 and all(abs(s - r) < F(1, 10**20) for s, r in zip(locations, poles))
    val, err = laplace(pade, x, QuadratureConfig(precision=digits))
    with mp.workdps(digits + 20):
        a, b, x = map(mp_fraction, (a, b, x))
        ref = sum(r * s * mp.exp(-x * s) * mp.ei(x * s) for r, s in ((1 / (1 - a / b), a), (1 / (1 - b / a), b)))
        assert abs(val - c * ref) <= err


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    st.sampled_from(NAMED_SERIES),
    st.fractions(-20, 20, max_denominator=12).filter(lambda c: c not in (0, 1)),
    st.floats(4.5, 16, allow_nan=False),
    st.sampled_from((30, 50)),
)
def test_a_multiple_sums_through_the_registered_kernel(name, c, x, digits):
    # the Laplace transform is linear: c*#a integrates #a's own kernel once
    # and scales its value and its error by c
    entry = groups_of(ts_parse(f"{c}*#{name}"))[0].series.kernel
    assert entry.kernel is named_series(name).kernel.kernel and entry.c == c
    cfg = QuadratureConfig(precision=digits)
    val, err = eb_sum(ts_parse(f"{c}*#{name}"), x, cfg)
    one, one_err = eb_sum(ts_parse(f"#{name}"), x, cfg)
    with mp.workdps(digits):
        c = mp_fraction(c)
        assert abs(val - c * one) <= 4 * mp.eps * abs(c * one)
        assert err == abs(c) * one_err


class CountingKernel:
    """Forwards to a kernel and counts its evaluations."""

    def __init__(self, inner, counter):
        self._inner, self._counter = inner, counter

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name not in ("value", "lateral", "usub_value"):
            return attr

        def counted(*args):
            self._counter[0] += 1
            return attr(*args)

        return counted


@pytest.mark.parametrize("name", ["ei", "erfi", "stirling"])
def test_work_does_not_grow_with_the_precision(monkeypatch, name):
    # the panels stop at the tolerance, so 100 digits cost about what 30 do
    plain = _laplace_mod.laplace
    counter = [0]
    monkeypatch.setattr(_laplace_mod, "laplace", lambda f, *a: plain(CountingKernel(f, counter), *a))
    evals = {}
    for digits in (30, 100):
        counter[0] = 0
        eb_sum(ts_parse(f"#{name}"), 10, QuadratureConfig(precision=digits))
        evals[digits] = counter[0]
    assert evals[100] <= 1.5 * evals[30]


def test_erfi_integral_at_high_precision_meets_its_tolerance():
    # 100 digits stop at the same tolerance as 30, and the reported error
    # (level differences, not an extrapolated estimate) still covers the value
    f = catalog()["erfi_integral"]
    val, err = f.eb_value(15.42, QuadratureConfig(precision=100))
    with mp.workdps(120):
        ref = mp.sqrt(mp.pi) / 2 * mp.erfi(mp.mpf(15.42))
        assert abs(val - ref) <= min(err, f.tolerance * abs(ref))


CATALOG_REFS = {
    "ei": mp.ei,
    "erfi_integral": lambda t: mp.sqrt(mp.pi) / 2 * mp.erfi(t),
    "loggamma": mp.loggamma,
    "gamma": mp.gamma,
    "airy_ai": mp.airyai,
    "airy_bi": mp.airybi,
}
#: the calibration grid, each entry at every point and precision, and the
#: cases pinned before it (30 digits is the id's default)
CALIBRATION = sorted(
    {(name, x, d) for name in CATALOG_REFS for x in (3, 5, 9.7, 14.7) for d in (30, 50, 100)}
    | {("airy_bi", 8, 30), ("airy_bi", 15, 30), ("airy_ai", 15, 30), ("erfi_integral", 8, 30), ("erfi_integral", 15, 30)}
)


@pytest.mark.parametrize(
    "name, x, digits", CALIBRATION, ids=[f"{n}-{x}" + (f"-{d}" if d != 30 else "") for n, x, d in CALIBRATION]
)
def test_catalog_value_is_within_its_reported_error(name, x, digits):
    # every catalog kernel is a closed form, so the quadrature's error is the
    # whole error, down to airy_bi at 3 (a Pade fit's was not in the report)
    val, err = catalog()[name].eb_value(x, QuadratureConfig(precision=digits))
    with mp.workdps(digits + 30):
        assert abs(val - CATALOG_REFS[name](mp.mpf(x))) <= err


@pytest.mark.parametrize("name, x, parent", [("ei", 5, 642), ("erfi_integral", 9.7, 421), ("loggamma", 3, 812)])
def test_spans_take_half_the_kernel_evaluations(monkeypatch, name, x, parent):
    # parent: the count when tanh-sinh summed the smooth spans; the nested
    # Clenshaw-Curtis panels make 248, 180 and 190 evaluations
    plain = _laplace_mod.laplace
    counter = [0]
    monkeypatch.setattr(_laplace_mod, "laplace", lambda f, *a: plain(CountingKernel(f, counter), *a))
    catalog()[name].eb_value(x, QuadratureConfig(precision=50))
    assert counter[0] <= parent / 2


def test_kernel_infinite_at_the_branch_point_keeps_tanh_sinh():
    # (1-p)^(-1/2)/2 + log(1-p): its usub_value takes log 0 at u = 0, which
    # a Clenshaw-Curtis panel would evaluate, so that piece stays on tanh-sinh
    kernel = ClosedFormKernel(F(1), [(F(1, 2), F(-1, 2), 0), (F(1), F(0), 1)], growth=(4.0, 0.25))
    assert not mp.isfinite(kernel.usub_value(mp.mpf(0)))
    val, err = laplace(kernel, 3, QuadratureConfig(precision=30))
    with mp.workdps(60):
        x = mp.mpf(3)
        ref = mp.exp(-x) * (mp.sqrt(mp.pi / x) / 2 * mp.erfi(mp.sqrt(x)) - mp.ei(x) / x)
        assert abs(val - ref) <= err


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(24, 400), st.data())
def test_clenshaw_curtis_rule_is_exact_on_polynomials(log_n, prec, data):
    n = 2**log_n
    nodes, weights = _laplace_mod._cc_rule(n, prec)
    assert len(nodes) == len(weights) == n + 1
    assert all(w > 0 for w in weights)
    with mp.workprec(prec + 40):
        for d in (0, n, data.draw(st.integers(0, n), label="degree")):
            exact = mp.mpf(2) / (d + 1) if d % 2 == 0 else 0
            assert abs(mp.fsum(w * t**d for t, w in zip(nodes, weights)) - exact) <= mp.ldexp(1, -prec)


@pytest.mark.parametrize("prec", [53, 103, 169, 336])
def test_clenshaw_curtis_levels_nest(prec):
    # level n's nodes are level 2n's even nodes, bit for bit
    for n in (2, 4, 8, 16, 32, 64, 128):
        coarse, fine = _laplace_mod._cc_rule(n, prec)[0], _laplace_mod._cc_rule(2 * n, prec)[0]
        assert [t._mpf_ for t in coarse] == [t._mpf_ for t in fine[::2]]


def test_laplace_leaves_mpmath_node_caches_alone():
    rules = (mp.mp._tanh_sinh, mp.mp._gauss_legendre)
    sizes = [(len(r.interval_count), len(r.transformed_cache)) for r in rules]
    cfg = QuadratureConfig(precision=15)
    for i in range(50):
        # #ei has a Gauss-Legendre PV window, #stirling only tanh-sinh panels
        eb_sum(ts_parse("#stirling" if i % 2 else "#ei"), 5 + mp.mpf(i) / 7, cfg)
    assert [(len(r.interval_count), len(r.transformed_cache)) for r in rules] == sizes


class TestL1Norms:
    def test_convolution_submultiplicative(self, rng):
        # ||F*G||_(1,c) <= ||F||_(1,c) ||G||_(1,c) on sampled polynomials
        from tsr.resummation import convolve

        c = mp.mpf(1)
        T = 30

        def norm(poly):
            return mp.quad(lambda p: abs(poly(p)) * mp.exp(-c * p), [0, T])

        for _ in range(5):
            f = BorelPoly(tuple(F(rng.randint(-3, 3)) for _ in range(5)))
            g = BorelPoly(tuple(F(rng.randint(-3, 3)) for _ in range(5)))
            lhs = norm(convolve(f, g))
            rhs = norm(f) * norm(g)
            assert lhs <= rhs * (1 + mp.mpf(1e-20)) + mp.mpf(1e-12)


# -- property tests -------------------------------------------------------------
# Deterministic and bounded; values are compared with ==, bit for bit.

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)

#: big rationals, so every mpf conversion rounds and depends on the precision
big_rationals = st.builds(F, st.integers(-(10**40), 10**40), st.integers(1, 10**30))
DIGITS = st.permutations([15, 30, 60, 100])
POINTS = st.floats(0, 12, allow_nan=False)


def pade_kernels():
    num = st.lists(big_rationals, min_size=1, max_size=6)
    den = st.lists(big_rationals, min_size=0, max_size=5).map(lambda tail: [F(1)] + tail)
    return st.builds(PadeKernel, num, den)


def fraction_horner(coeffs, p):
    """Horner over Fraction coefficients, each converted at the precision in force."""
    out = mp.mpf(0)
    for c in reversed(coeffs):
        out = out * p + mp.mpf(c.numerator) / c.denominator
    return out


def half_sum(f, p):
    return (f.lateral(p, +1) + f.lateral(p, -1)).real / 2


class TestKernelProperties:
    @PROPERTY
    @given(pade_kernels(), DIGITS, st.lists(POINTS, min_size=1, max_size=3))
    def test_pade_value_follows_the_precision_in_force(self, k, digits, points):
        # one instance evaluated at every precision in turn: converted
        # coefficients kept from an earlier precision must never be reused
        for dps in digits + digits[::-1]:
            with mp.workdps(dps):
                for x in points:
                    p = mp.mpf(x)
                    den = fraction_horner(k.den, p)
                    assume(den != 0)
                    assert k.value(p) == fraction_horner(k.num, p) / den

    @PROPERTY
    @given(pade_kernels(), st.sampled_from([15, 30, 60]), POINTS)
    def test_averaged_is_half_sum_of_laterals(self, pade, dps, x):
        poly = poly_kernel(*pade.num)
        with mp.workdps(dps):
            p = mp.mpf(x)
            assume(fraction_horner(pade.den, p) != 0)
            for f in (pade, poly, CothKernel()):
                assert f.value(p) == half_sum(f, p)

    def test_coth_value_is_closed_form_or_taylor(self):
        from tsr.coefficients import coth_kernel_coeff

        k = CothKernel()
        with mp.workdps(40):
            for p in (mp.mpf("0.01"), mp.mpf("-0.03"), mp.mpf("0.05"), mp.mpf(3), mp.mpf(17)):
                if abs(p) < mp.mpf("0.05"):
                    ref = mp.mpf(0)
                    for j in range(0, 24, 2):
                        c = coth_kernel_coeff(j)
                        ref += mp.mpf(c.numerator) / c.denominator * p**j
                else:
                    ref = (p * mp.coth(p / 2) - 2) / (2 * p**2)
                assert k.value(p) == ref
