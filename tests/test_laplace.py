"""Averaged Laplace numerics: PV poles, branch points, Pade, Watson, eb_sum."""

import importlib
from fractions import Fraction as F
from math import factorial

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mpmath import libmp

from conftest import QuadratureOnly
from reference import roots
from reference.kernels import AiryReference, CothReference
from reference.resummation import convolve
from tsr.errors import DegenerateTableError, DomainError, GrowthBoundViolated, SingularPointError, ToleranceNotMet
from tsr.coefficients import NAMED_SERIES, named_series
from tsr.operators import antidiff_no, catalog
from tsr.operators.laws import QUAD_TOL, _quad
from tsr.resummation import (
    AiryKernel,
    BorelPoly,
    ClosedFormKernel,
    CothKernel,
    KernelEntry,
    PadeKernel,
    QuadratureConfig,
    borel_transform,
    eb_sum,
    laplace,
    pade_continue,
    pole_kernel,
    resolve_default,
    special,
    sqrt_branch_kernel,
    watson_check,
)
from tsr.resummation import kernels
from tsr.resummation.kernels import _interval, positive_roots
from tsr.resummation.laplace import _exp_rate
from tsr.transseries import PowerSeries, ts_antidiff, ts_parse
from tsr.transseries.grid import groups_of

CFG = QuadratureConfig()


def poly_kernel(*coeffs):
    """The polynomial sum(c_k p^k) as a closed-form kernel with no singular terms."""
    return ClosedFormKernel(F(-1), [], BorelPoly(tuple(map(F, coeffs))))


def mpf_close(a, b, tol):
    return abs(mp.mpf(a) - mp.mpf(b)) <= tol * max(1, abs(mp.mpf(b)))


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
        lg, _ = laplace(pole_kernel(1).p_integral(), x, CFG)
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
        # a closed form sums at every x > 0: the log kernel's x L[-log|1-p|]
        # is e^(-x) Ei(x), here at x = 1/10; x <= 0 is refused
        k = pole_kernel(1).p_integral()
        val, err = laplace(k, F(1, 10), CFG)
        with mp.workdps(CFG.precision + 30):
            x = mp.mpf(1) / 10
            assert abs(val - mp.exp(-x) * mp.ei(x) / x) <= err
        for x in (0, -1):
            with pytest.raises(GrowthBoundViolated):
                laplace(k, x, CFG)

    def test_halving_tolerance_stays_within_estimate(self):
        # quadrature convergence: refining changes results less than the estimate
        for kernel in (pole_kernel(1), sqrt_branch_kernel(1, F(1, 2)), QuadratureOnly(CothKernel())):
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
        found = positive_roots(k.den, 53)
        assert all(order == 1 for _, order in found)
        poles = [p for p, _ in found]
        assert len(poles) >= 3
        assert all(p > 1 for p in poles)
        assert min(poles) < 1.05  # accumulation toward the branch point

    def test_poles_follow_the_precision(self):
        # poles found for a 15-digit sum are found again for a 100-digit one:
        # 8/(1 - 3p) sums to 8/3 e^(-x/3) Ei(x/3)
        k = PadeKernel([F(8)], [F(1), F(-3)])
        laplace(k, 3, QuadratureConfig(precision=15))
        val, err = laplace(k, 3, QuadratureConfig(precision=100, abs_tol=1e-24, rel_tol=1e-22))
        with mp.workdps(120):
            assert abs(val - 8 * mp.exp(-1) * mp.ei(1) / 3) <= err

    def test_a_double_pole_is_refused_before_quadrature(self):
        # 1/(1 - p)^2, the Borel transform of the Ei antiderivative's series
        class Unvalued(PadeKernel):
            def value(self, p):
                raise AssertionError("quadrature reached the kernel")

        with pytest.raises(SingularPointError, match="order 2 at p = 1 "):
            laplace(Unvalued([F(1)], [F(1), F(-2), F(1)]), 3, CFG)

    def test_zero_leading_denominator_coefficient(self):
        k = PadeKernel([F(1)], [F(1), F(-1), F(0), F(0)])
        with pytest.raises(DegenerateTableError, match="from 3 to 1"):
            laplace(k, 3, CFG)

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
        rep = watson_check(sqrt_branch_kernel(1, 1), a=1, b=0, K=4, cfg=CFG)
        assert rep.passed

    def test_coth_kernel_leading_twelfth(self):
        assert CothKernel().taylor(0)[0] == F(1, 12)
        rep = watson_check(CothKernel(), a=2, b=0, K=3, cfg=CFG)
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
        val, err = eb_sum(ei_ts, 10, CFG, resolver=lambda s: KernelEntry(pole_kernel(1)))
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
            unit = mp.eps * mp.exp(-3)
        # e^(-3) is rounded, so the error is a few units of it, not zero
        with mp.workdps(60):
            assert abs(val + mp.exp(-3)) <= err <= 16 * unit


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


@pytest.mark.parametrize(
    "expr, x, ref",
    [
        ("exp(-x)", 5.203125, lambda x: mp.exp(-x)),
        ("#stirling - exp(-x) - #stirling", 5.203125, lambda x: -mp.exp(-x)),
        ("exp(-3*x)*(1/x + 2/x^2)", 5.203125, lambda x: mp.exp(-3 * x) * (1 / x + 2 / x**2)),
        ("5/3 / exp(-2*x) + #erfi", 10, lambda x: mp.mpf(5) / 3 * mp.exp(2 * x) + named_closed_form("erfi", x)),
        # a Fraction x is rounded too, and x^12 takes twelve times its rounding
        ("x^12", F(117, 50), lambda x: x**12),
        ("x^12*log(x)", F(96, 41), lambda x: x**12 * mp.log(x)),
        ("exp(-x)*x^(-12)", F(96, 41), lambda x: mp.exp(-x) / x**12),
    ],
)
def test_rounded_exact_parts_report_their_rounding(expr, x, ref):
    # e^(mu x), the finite sum and the log part are rounded at the working
    # precision, so each counts its rounding: never zero, and it covers the
    # value, but stays a few units of it
    val, err = eb_sum(ts_parse(expr), x, QuadratureConfig(precision=30))
    with mp.workdps(60):
        exact = ref(mp_fraction(F(x)))
        assert 0 < abs(val - exact) <= err <= 100 * abs(exact) * mp.mpf(10) ** -30


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


@pytest.mark.parametrize(
    "expr, parts",
    [
        ("exp(-x)*x*#ei + exp(-2*x)*#ei", [(-1, 1, "ei"), (-2, 0, "ei")]),
        ("exp(-x)/x + exp(-3*x)*x^2*#ei", [(-1, -1, None), (-3, 2, "ei")]),
        ("exp(-x)*x^(1/2)/x + exp(-2*x)*#ei", [(-1, -0.5, None), (-2, 0, "ei")]),
        ("exp(-x)*x^(1/2)*#erfi + exp(-2*x)*#stirling", [(-1, 0.5, "erfi"), (-2, 0, "stirling")]),
    ],
)
def test_groups_at_commensurate_rates_keep_their_kernels(expr, parts):
    # each group is summed at its own offset through its own kernel: no grid
    # common to both rates pads a series and drops its kernel for a Pade fit
    val, err = eb_sum(ts_parse(expr), 3, QuadratureConfig(precision=30))
    with mp.workdps(50):
        x = mp.mpf(3)
        ref = sum(mp.exp(mu * x) * x**b * (named_closed_form(name, x) if name else 1) for mu, b, name in parts)
        assert abs(val - ref) <= err


@pytest.mark.parametrize("name", ["stirling", "airy_u_alt"])
@pytest.mark.parametrize("x", [10**3, 2 * 10**3, 10**5, 10**8])
def test_quadrature_sum_at_large_x(name, x):
    # e^(-xp) F(p) lives in p < 1/x: the first panel is cut at 64/x, 128/x, ...
    # (#stirling's closed form at large x, and the Ai-side Airy kernel's
    # quadrature)
    if name == "stirling":
        val, err = eb_sum(ts_parse(f"#{name}"), x, CFG)
    else:
        val, err = laplace(quadrature_kernel(name), x, CFG)
    with mp.workdps(CFG.precision + 20):
        if name == "stirling":
            ref = named_closed_form(name, mp.mpf(x))
        else:
            ref = airy_sum(-1, mp.mpf(x))
        assert abs(val - ref) <= err
        assert mp.nstr(val, 20) == mp.nstr(ref, 20)


def test_near_zero_cuts_only_past_64_over_x():
    assert _laplace_mod._cuts_near_zero(mp.mpf(64), mp.mpf(1)) == []
    assert _laplace_mod._cuts_near_zero(mp.mpf(1000), mp.mpf(1)) == [mp.mpf(64) / 1000 * 2**k for k in range(4)]


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
    # c/((1 - p/a)(1 - p/b)) = c A/(1 - p/a) + c B/(1 - p/b): each pole's
    # part is subtracted and summed in closed form, and the quadrature sums
    # what is left, which is zero up to the poles' rounding
    a, b = poles
    pade = PadeKernel([F(c)], [F(1), -1 / a - 1 / b, 1 / (a * b)])
    locations = pade.singularities()
    assert len(locations) == 2 and all(abs(s - r) < F(1, 10**20) for s, r in zip(locations, poles))
    val, err = laplace(pade, x, QuadratureConfig(precision=digits))
    with mp.workdps(digits + 20):
        a, b, x = map(mp_fraction, (a, b, x))
        ref = sum(r * s * mp.exp(-x * s) * mp.ei(x * s) for r, s in ((1 / (1 - a / b), a), (1 / (1 - b / a), b)))
        assert abs(val - c * ref) <= err


def _product(factors: list) -> list:
    """The product of polynomials, coefficients lowest degree first."""
    out = [F(1)]
    for f in factors:
        prod = [F(0)] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    st.lists(st.fractions(F(1, 16), 64, max_denominator=40), min_size=1, max_size=4, unique=True),
    st.lists(st.sampled_from((1, 2)), min_size=4, max_size=4),
    st.lists(st.tuples(st.fractions(-4, 4, max_denominator=8), st.fractions(F(1, 4), 4, max_denominator=8)), max_size=2),
    st.sampled_from((15, 30, 100)),
)
@example(qs=[F(1), F(36, 35)], orders=[1, 1, 1, 1], pairs=[], digits=30)  # an exact root at the end of the other's interval
@example(qs=[F(1, 3), F(7, 3)], orders=[2, 1, 1, 1], pairs=[(F(1), F(1, 4))], digits=100)
def test_pole_search_finds_each_pole_with_its_order(qs, orders, pairs, digits):
    # den = prod (1 - p/q)^e times (1 - p/z)(1 - p/conj(z)), z = a + bi, b > 0,
    # which has no positive root: exactly the q come back, within 2^-prec,
    # with their orders, and a pole of order 2 is refused
    expected = sorted(zip(qs, orders))
    factors = [[F(1), -1 / q] for q, e in expected for _ in range(e)]
    factors += [[F(1), -2 * a / (a * a + b * b), 1 / (a * a + b * b)] for a, b in pairs]
    den = _product(factors)
    prec = libmp.dps_to_prec(digits)
    found = positive_roots(den, prec)
    assert [e for _, e in found] == [e for _, e in expected]
    assert all(abs(p - q) <= q / 2**prec for (p, _), (q, _) in zip(found, expected))
    # each simple pole is bisection's, at no more than 1.25 times its
    # evaluations, at the draw's precision and at 1000 digits
    for bits in (prec, libmp.dps_to_prec(1000)):
        _, calls = refinements(den, bits)
        check_refinements(calls, full=bits == prec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_refine", lambda *args: roots.refine(*args)[0])
        assert positive_roots(den, prec) == found
    kernel = PadeKernel([F(1)], den)
    with mp.workprec(prec):
        if max(e for _, e in expected) > 1:
            with pytest.raises(SingularPointError, match="order 2"):
                kernel.singularities()
        else:
            assert kernel.singularities() == [p for p, _ in found]


def refinements(den: list, prec: int) -> tuple:
    """positive_roots(den, prec), and for each simple root that ``_refine``
    refined its arguments, its root and its Horner evaluations (value and
    derivative)."""
    calls, count = [], [0]
    refine, horner = kernels._refine, kernels._horner

    def counted(coeffs, m):
        count[0] += 1
        return horner(coeffs, m)

    def recorded(*args):
        count[0] = 0
        root = refine(*args)
        calls.append((args, root, count[0]))
        return root

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_refine", recorded)
        patch.setattr(kernels, "_horner", counted)
        found = positive_roots(den, prec)
    return found, calls


def check_refinements(calls: list, full: bool):
    """Each refinement returned bisection's root, at no more than 1.25
    times bisection's evaluations.  Unless ``full``, bisection runs only
    until it has made n/1.25 of them, n the refinement's: past that the
    cost holds, and the roots are compared only where it stopped before."""
    for args, root, n in calls:
        ref, evals = roots.refine(*args, budget=None if full else -(-4 * n // 5))
        assert ref is not None or not full
        if ref is not None:
            assert ref == root and n <= 1.25 * evals, (args[1:], n, evals)


#: series that carry no kernel, so each is summed through its Pade fit
PADE_FITS = ["#ei + #erfi", "#ei*#ei", "#ei/x", "3*#ei - 1/2*#stirling"]


def pade_fit(expr: str) -> PadeKernel:
    return resolve_default(groups_of(ts_parse(expr))[0].series).kernel


@pytest.mark.parametrize("digits", [15, 30, 100, 300, 1000])
@pytest.mark.parametrize("expr", PADE_FITS)
def test_newton_refinement_costs_no_more_than_bisection(expr, digits):
    # bisection is run in full up to 100 digits, where it takes one
    # evaluation per bit; past that only as far as the cost comparison needs
    _, calls = refinements(pade_fit(expr).den, libmp.dps_to_prec(digits))
    check_refinements(calls, full=digits <= 100)


@pytest.mark.parametrize("expr", ["#ei + #erfi", "#ei*#ei"])
def test_newton_refines_a_pole_to_1000_digits_in_few_evaluations(expr):
    # bisection takes about 3358, one per bit
    _, calls = refinements(pade_fit(expr).den, libmp.dps_to_prec(1000))
    assert calls and max(n for *_, n in calls) <= 64


@pytest.mark.parametrize("expr, most, parent", [("3*#ei - 1/2*#stirling", 170, 306), ("#ei + #erfi", 400, 1688)])
def test_subtracted_poles_halve_the_kernel_evaluations(monkeypatch, expr, most, parent):
    # parent: the count when each pole's principal value was a fold of a
    # window around it; its part is now summed in closed form
    run = lambda: eb_sum(ts_parse(expr), 5, QuadratureConfig(precision=30))
    assert 0 < counted_evaluations(monkeypatch, run) <= most < parent


@st.composite
def pole_sets(draw):
    """(poles, pair): one to four simple positive poles, among them maybe
    a pole 2^-20 above the first, one below 1/16 and one past the natural
    cutoff T of the tail (at most 15 at x >= 3), and maybe a complex pair
    a +- bi, b > 0, which is no pole on the ray."""
    poles = draw(st.lists(st.fractions(F(1, 16), 20, max_denominator=64), min_size=1, max_size=2, unique=True))
    if draw(st.booleans()):
        poles.append(poles[0] + F(1, 2**20))
    if draw(st.booleans()):
        poles.append(draw(st.fractions(F(1, 1000), F(1, 16), max_denominator=1000).filter(lambda q: q < F(1, 16))))
    if draw(st.booleans()):
        poles.append(draw(st.fractions(20, 60, max_denominator=4)))
    pair = draw(st.none() | st.tuples(st.fractions(-4, 4, max_denominator=8), st.fractions(F(1, 4), 4, max_denominator=8)))
    return sorted(set(poles))[:4], pair


def partial_fraction_sum(c, poles: list, pair, x):
    """L[c/den](x), den = prod(1 - p/q) (1 - p/z)(1 - p/conj z), z = a + bi,
    from its partial fractions A/(1 - p/q), A = c / prod(1 - q/q') over the
    other roots q', at the working precision: A q e^(-xq) Ei(xq) at a
    positive pole, the principal value, and -A z e^(-xz) E1(-xz) at z."""
    qs = [mp_fraction(q) for q in poles] + ([mp.mpc(*map(mp_fraction, pair)), mp.mpc(mp_fraction(pair[0]), -mp_fraction(pair[1]))] if pair else [])
    x, total = mp_fraction(x), 0
    for i, q in enumerate(qs):
        A = mp_fraction(c) / mp.fprod(1 - q / r for j, r in enumerate(qs) if j != i)
        total += A * q * mp.exp(-x * q) * (mp.ei(x * q) if i < len(poles) else -mp.e1(-x * q))
    return mp.re(total)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(pole_sets(), st.fractions(-8, 8, max_denominator=6).filter(bool), st.fractions(3, 12, max_denominator=8), st.sampled_from((15, 30, 50)))
@example(case=([F(1), 1 + F(1, 2**20)], None), c=F(1), x=F(5), digits=30)
@example(case=([F(1, 3), F(1003, 3000)], None), c=F(1), x=F(5), digits=30)
def test_subtracted_poles_are_within_the_reported_error(case, c, x, digits):
    # each pole's part r/(p - s) is summed in closed form and the rest by
    # quadrature, so the sum lies within its reported error of the partial
    # fractions' at every spacing of the poles: the two examples were
    # refused with ToleranceNotMet when a window folded at each pole
    poles, pair = case
    factors = [[F(1), -1 / q] for q in poles]
    if pair:
        a, b = pair
        factors.append([F(1), -2 * a / (a * a + b * b), 1 / (a * a + b * b)])
    val, err = laplace(PadeKernel([c], _product(factors)), x, QuadratureConfig(precision=digits))
    with mp.workdps(digits + 20):
        assert abs(val - partial_fraction_sum(c, poles, pair, x)) <= err


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
    # the multiple's enclosure holds the ball of #a's sum times c, and adds
    # no more than its own rounding to it
    with mp.workdps(digits + 20):
        c = mp_fraction(c)
        assert abs(val - c * one) <= err + abs(c) * one_err
        assert err <= abs(c) * one_err + abs(val) * mp.ldexp(1, 1 - libmp.dps_to_prec(digits))


class CountingKernel:
    """Forwards to a kernel and counts its evaluations."""

    def __init__(self, inner, counter):
        self._inner, self._counter = inner, counter

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name != "value":
            return attr

        def counted(*args):
            self._counter[0] += 1
            return attr(*args)

        return counted


def counted_evaluations(monkeypatch, run) -> int:
    """The kernel evaluations ``laplace`` makes while run() runs."""
    plain = _laplace_mod.laplace
    counter = [0]
    monkeypatch.setattr(_laplace_mod, "laplace", lambda f, *a: plain(CountingKernel(f, counter), *a))
    run()
    monkeypatch.setattr(_laplace_mod, "laplace", plain)
    return counter[0]


def quadrature_kernel(name: str) -> QuadratureOnly:
    """The registered kernel of #name, summed by quadrature."""
    return QuadratureOnly(named_series(name).kernel.kernel)


@pytest.mark.parametrize("name", ["pade", "airy_u_alt"])
def test_work_does_not_grow_with_the_precision(monkeypatch, name):
    # the quadrature's panels stop at the tolerance, so 100 digits cost about
    # what 30 do, with poles subtracted (the Pade fit of #ei + #erfi) or
    # without
    if name == "pade":
        kernel = resolve_default(groups_of(ts_parse("#ei + #erfi"))[0].series).kernel
    else:
        kernel = quadrature_kernel(name)
    evals = {
        digits: counted_evaluations(monkeypatch, lambda: _laplace_mod.laplace(kernel, 10, QuadratureConfig(precision=digits)))
        for digits in (30, 100)
    }
    assert 0 < evals[100] <= 1.5 * evals[30]


CATALOG_SUMS = ("loggamma", "gamma", "airy_ai", "airy_bi")


@pytest.mark.parametrize(
    "expr",
    ["#ei", "-3/7*#erfi", "#stirling", "#airy_u", "#airy_u_alt", "exp(x)/x", "exp(-x)/x", "x*exp(2*x)*series![1, 2, 3]", *CATALOG_SUMS],
)
def test_closed_form_kernels_evaluate_no_node(monkeypatch, expr):
    # #ei, #erfi, #stirling (Binet's function), both Airy series (Bessel
    # functions of order 1/3) and the kernels ts_antidiff derives (a pole at
    # 1 taken at m = 1, a pole at -1, a log at 2) sum their Laplace integrals
    # in closed form, and so do log Gamma, Gamma, Ai and Bi, at every precision
    if expr in CATALOG_SUMS:
        runs = [lambda d=d: catalog()[expr].eb_value(3, QuadratureConfig(precision=d)) for d in (30, 50, 100)]
    else:
        ts = ts_parse(expr) if "#" in expr else ts_antidiff(ts_parse(expr))
        assert all(isinstance(g.series.kernel.kernel, (ClosedFormKernel, CothKernel, AiryKernel)) for g in groups_of(ts))
        runs = [lambda d=d: eb_sum(ts, 7, QuadratureConfig(precision=d)) for d in (30, 40, 100)]
    assert [counted_evaluations(monkeypatch, run) for run in runs] == [0, 0, 0]


@pytest.mark.parametrize("digits", [30, 50])
@pytest.mark.parametrize("x", [3, 10, 1000])
def test_binet_closed_form_is_the_kernel_quadrature(x, digits):
    # Binet's formula checked against the kernel itself: the coth kernel's
    # values summed by quadrature, to 8 digits short of the precision, give
    # the closed form within the quadrature's error
    tol = 10.0 ** (8 - digits)
    quad, quad_err = laplace(QuadratureOnly(CothKernel()), x, QuadratureConfig(abs_tol=tol, rel_tol=100 * tol, precision=digits))
    val, err = CothKernel().laplace(x, libmp.dps_to_prec(digits))
    assert abs(quad - val) <= quad_err + err


@pytest.mark.parametrize("digits", [30, 50])
@pytest.mark.parametrize("x", [3, 10, 1000])
@pytest.mark.parametrize("side", [1, -1])
def test_airy_closed_form_is_the_kernel_quadrature(side, x, digits):
    # the Bessel form checked against the kernel itself, as for Binet: the
    # 2F1 values summed by quadrature give the closed form within the
    # quadrature's error.  The Bi side has a log branch point at p = 2, at
    # which tsr's quadrature does not split, so mpmath's sums it, split there,
    # and the two agree to the precision
    val, err = AiryKernel(side).laplace(x, libmp.dps_to_prec(digits))
    if side > 0:
        kernel = AiryReference(side)
        with mp.workdps(digits):
            quad = mp.quad(lambda p: mp.exp(-x * p) * kernel.value(p), [0, 2, mp.inf])
        assert abs(quad - val) <= err + abs(val) * mp.mpf(10) ** -digits
        return
    tol = 10.0 ** (8 - digits)
    cfg = QuadratureConfig(abs_tol=tol, rel_tol=100 * tol, precision=digits)
    quad, quad_err = laplace(QuadratureOnly(AiryKernel(side)), x, cfg)
    assert abs(quad - val) <= quad_err + err


def test_erfi_integral_at_high_precision_meets_its_tolerance():
    # 100 digits in closed form: the reported error covers the value, and
    # both stay within a few units of the precision
    val, err = catalog()["erfi_integral"].eb_value(15.42, QuadratureConfig(precision=100))
    with mp.workdps(120):
        ref = mp.sqrt(mp.pi) / 2 * mp.erfi(mp.mpf(15.42))
        assert abs(val - ref) <= min(err, abs(ref) * mp.ldexp(1, 8 - libmp.dps_to_prec(100)))


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
    # every catalog kernel is a closed form, so the reported error bounds
    # the rounding, down to airy_bi at 3 (a Pade fit's was not in the report)
    val, err = catalog()[name].eb_value(x, QuadratureConfig(precision=digits))
    with mp.workdps(digits + 30):
        assert abs(val - CATALOG_REFS[name](mp.mpf(x))) <= err


def airy_sum(side: int, x):
    """The Borel sum of #airy_u (side 1) or #airy_u_alt (side -1) at x, from
    mpmath's Bi or Ai at z = (3x/2)^(2/3) (DLMF 9.7.5, 9.7.7)."""
    z = (3 * x / 2) ** (mp.mpf(2) / 3)
    if side > 0:
        return mp.sqrt(mp.pi) * z ** (mp.mpf(1) / 4) * mp.exp(-x) * mp.airybi(z) / x
    return 2 * mp.sqrt(mp.pi) * z ** (mp.mpf(1) / 4) * mp.exp(x) * mp.airyai(z) / x


@pytest.mark.parametrize("digits", [15, 30, 50, 100])
@pytest.mark.parametrize("x", ["1/2", "3", "15", "1000", "1000000"])
@pytest.mark.parametrize("name", ["#airy_u", "#airy_u_alt", "airy_ai", "airy_bi"])
def test_airy_sums_within_their_reported_error(name, x, digits):
    # the Airy Borel sums in closed form, from x = 1/2, where the power
    # series of I_(+-1/3) are summed, to 10^6, where the asymptotic series is
    x = F(x)
    cfg = QuadratureConfig(precision=digits)
    if name.startswith("#"):
        val, err = eb_sum(ts_parse(name), x, cfg)
    else:
        val, err = catalog()[name].eb_value(x, cfg)
    with mp.workdps(digits + 30):
        if name.startswith("#"):
            ref = airy_sum(1 if name == "#airy_u" else -1, mp_fraction(x))
        else:
            ref = CATALOG_REFS[name](mp_fraction(x))
        assert abs(val - ref) <= err


@pytest.mark.parametrize("digits", [15, 30, 50, 100])
@pytest.mark.parametrize("x", ["1/10", "1", "3", "10", "1000", "100000000"])
@pytest.mark.parametrize("name", ["loggamma", "gamma"])
def test_gamma_and_log_gamma_within_their_reported_error(name, x, digits):
    # Binet's function in closed form, from near the pole at 0 to 10^8, with
    # x rounded to the precision first; each error is at the precision, not
    # at a quadrature's tolerance, Gamma's too, since its log Gamma is summed
    # past the precision
    with mp.workdps(digits):
        x = mp_fraction(F(x))
    val, err = catalog()[name].eb_value(x, QuadratureConfig(precision=digits))
    with mp.workdps(digits + 30):
        ref = CATALOG_REFS[name](x)
        assert abs(val - ref) <= err
        assert err <= max(1, abs(ref)) * mp.mpf(10) ** (2 - digits)


#: each entry eb_value sums, with mpmath's value and the interval x is drawn
#: from; Airy's critical time (2/3) x^(3/2) is rounded, every other is exact
EB_VALUE_REFS = {
    "airy_ai": (mp.airyai, 2, 60),
    "airy_bi": (mp.airybi, 2, 60),
    "erfi_integral": (CATALOG_REFS["erfi_integral"], 1, 12),
    "ei": (mp.ei, 3, 30),
    "loggamma": (mp.loggamma, 3, 30),
    "gamma": (mp.gamma, 3, 30),
    "exp": (mp.exp, 1, 60),
    "exp_neg": (lambda t: mp.exp(-t), 1, 60),
    "erfi_integrand": (lambda t: mp.exp(t * t), 1, 12),
}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(sorted(EB_VALUE_REFS)), st.sampled_from((15, 30, 50)), st.data())
def test_eb_value_is_within_its_reported_error_of_mpmath(name, digits, data):
    # eb_sum sums at the critical time t it is given, exact for an integer
    # power; Airy's t is rounded at guard bits, and eb_value pays a unit for
    # it, so no |mu t| allowance is paid at non-dyadic x
    ref, lo, hi = EB_VALUE_REFS[name]
    x = data.draw(st.fractions(lo, hi, max_denominator=1000).filter(lambda q: q.denominator & (q.denominator - 1)), label="x")
    val, err = catalog()[name].eb_value(x, QuadratureConfig(precision=digits))
    with mp.workdps(digits + 40):
        assert abs(val - ref(mp_fraction(x))) <= err


#: sums of closed-form kernels, each with mpmath's closed form of it
RATIONAL_POINT_SUMS = {
    "#ei": lambda x: mp.exp(-x) * mp.ei(x),
    "x*exp(x)*#ei": lambda x: x * mp.ei(x),
    "exp(-x)*#ei": lambda x: mp.exp(-2 * x) * mp.ei(x),
    "exp(3*x)*#ei": lambda x: mp.exp(2 * x) * mp.ei(x),
    "exp(-5*x)*#ei": lambda x: mp.exp(-6 * x) * mp.ei(x),
    "antidiff exp(x)/x": mp.ei,
    "#erfi": lambda x: mp.exp(-x) * mp.sqrt(mp.pi / x) / 2 * mp.erfi(mp.sqrt(x)),
    "#stirling": lambda x: mp.loggamma(x) - (x - mp.mpf(1) / 2) * mp.log(x) + x - mp.log(2 * mp.pi) / 2,
}
#: 37250741/10^8 lies 8e-10 from Ei's zero, where a rounded x moves e^(-x) Ei(x)
#: by about 2 parts in 10^8
NEAR_EI_ZERO = F(37250741, 10**8)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(RATIONAL_POINT_SUMS)),
    st.sampled_from((15, 30)),
    st.sampled_from((3, 7, 999983, 1000003)).flatmap(lambda d: st.integers(d // 20 + 1, 40 * d).map(lambda n: F(n, d))),
)
@example(expr="#ei", digits=15, x=NEAR_EI_ZERO)
@example(expr="#ei", digits=30, x=NEAR_EI_ZERO)
@example(expr="x*exp(x)*#ei", digits=15, x=NEAR_EI_ZERO)
@example(expr="antidiff exp(x)/x", digits=15, x=NEAR_EI_ZERO)
def test_a_sum_at_a_rational_point_is_within_its_error(expr, digits, x):
    # eb_sum sums each kernel at the x it is given, a non-dyadic rational
    # here, and forms e^(mu x) from it too: no |mu x| allowance is paid
    ts = ts_antidiff(ts_parse("exp(x)/x")) if expr.startswith("antidiff") else ts_parse(expr)
    val, err = eb_sum(ts, x, QuadratureConfig(precision=digits))
    with mp.workdps(digits + 40):
        assert abs(val - RATIONAL_POINT_SUMS[expr](mp_fraction(x))) <= err


#: a point of up to 101 digits, about evenly spread over its digit count
LARGE_X = st.integers(0, 99).flatmap(lambda e: st.integers(10**e, 10**(e + 1)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.sampled_from((1, -1)),
    st.sampled_from((F(1, 3), F(2, 3), F(5, 6), F(-1, 3))),
    st.sampled_from(("ei", "erfi", "stirling", "airy_u_alt")),
    LARGE_X,
    st.sampled_from((15, 30)),
)
@example(sign=1, q=F(5, 6), name="ei", x=10**6, digits=30)
@example(sign=1, q=F(5, 6), name="ei", x=10**100, digits=30)
def test_a_kernel_group_at_large_x_is_within_its_error(sign, q, name, x, digits):
    # x^q for a q that is no binary fraction moves by |ln x| times q's
    # rounding, e^(+-x) by x times that of +-x: both are enclosed, so the
    # error covers them at any x.  #stirling's reference cancels about
    # 2 log10 x digits, so it is taken at 3 log10 x more.
    expr = f"exp({'-' if sign < 0 else ''}x)*x^({q})*#{name}"
    val, err = eb_sum(ts_parse(expr), x, QuadratureConfig(precision=digits))
    with mp.workdps(digits + 60 + 3 * len(str(x))):
        X = mp.mpf(x)
        ref = mp.exp(sign * X) * X ** mp_fraction(q) * (airy_sum(-1, X) if name == "airy_u_alt" else named_closed_form(name, X))
        assert abs(val - ref) <= err


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(("airy_ai", "airy_bi")), st.integers(0, 29).flatmap(lambda e: st.integers(10**e, 10**(e + 1))), st.sampled_from((15, 30)))
@example(name="airy_ai", x=10**10, digits=15)
@example(name="airy_ai", x=10**30, digits=30)
def test_airy_eb_value_at_large_x_is_within_its_error(name, x, digits):
    # t = (2/3) x^(3/2) up to 10^45, where t^(5/6) moves by |ln t| times
    # the rounding of 5/6
    val, err = catalog()[name].eb_value(x, QuadratureConfig(precision=digits))
    with mp.workdps(digits + 60 + len(str(x))):
        assert abs(val - CATALOG_REFS[name](mp.mpf(x))) <= err


@pytest.mark.parametrize("name", ["erfi_integral", "airy_ai", "airy_bi"])
def test_a_critical_power_other_than_1_refuses_a_negative_point(name):
    # the transseries in t = c x^p describes x > 0: at x = -3 the erfi
    # integral's t = 9 would sum to +1444.5 for a true -1444.5, and Airy's
    # x^(3/2) has no real value
    for x in (-3, F(-1, 3), -2.5, mp.mpf(-3)):
        with pytest.raises(DomainError, match="x > 0 only"):
            catalog()[name].eb_value(x, CFG)
    # a critical power of 1 takes the point as it is
    with mp.workdps(CFG.precision + 20):
        for entry, ref in (("exp", mp.exp(-3)), ("exp_neg", mp.exp(3)), ("ei_integrand", -mp.exp(-3) / 3)):
            val, err = catalog()[entry].eb_value(-3, CFG)
            assert abs(val - ref) <= err


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf"), mp.nan, mp.inf, -mp.inf], ids=repr)
def test_a_non_finite_point_is_a_domain_error(x):
    # a kernel group, a finite group and the log part under eb_sum and
    # eb_value, and a closed-form and a Pade kernel under laplace
    for expr in ("#ei", "exp(-x)", "x^2 + log(x)"):
        with pytest.raises(DomainError, match="non-finite"):
            eb_sum(ts_parse(expr), x, CFG)
    with pytest.raises(DomainError, match="non-finite"):
        catalog()["ei"].eb_value(x, CFG)
    for kernel in (pole_kernel(1), PadeKernel([F(8)], [F(1), F(-3)])):
        with pytest.raises(DomainError, match="non-finite"):
            laplace(kernel, x, CFG)


@pytest.mark.parametrize("name, x, parent", [("airy_ai", 3, 847), ("airy_ai", 8, 282)])
def test_spans_take_half_the_kernel_evaluations(monkeypatch, name, x, parent):
    # parent: the count when tanh-sinh summed the smooth spans; the nested
    # open panels make 231 and 94 evaluations of the entry's kernel, summed
    # by quadrature at its critical time
    entry = catalog()[name]
    t = entry.critical_time(x, libmp.dps_to_prec(50))
    kernel = QuadratureOnly(groups_of(entry.transseries)[0].series.kernel.kernel)
    run = lambda: _laplace_mod.laplace(kernel, t, QuadratureConfig(precision=50))
    assert 0 < counted_evaluations(monkeypatch, run) <= parent / 2


def test_kernel_infinite_at_the_branch_point_sums_in_closed_form():
    # (1-p)^(-1/2)/2 + log(1-p), infinite at p = 1 in both terms, which a
    # quadrature could not evaluate there: the closed form adds the terms'
    # own transforms
    kernel = ClosedFormKernel(F(1), [(F(1, 2), F(-1, 2), 0), (F(1), F(0), 1)])
    val, err = laplace(kernel, 3, QuadratureConfig(precision=30))
    with mp.workdps(60):
        x = mp.mpf(3)
        ref = mp.exp(-x) * (mp.sqrt(mp.pi / x) / 2 * mp.erfi(mp.sqrt(x)) - mp.ei(x) / x)
        assert abs(val - ref) <= err


def averaged_power_transform(s, a, b, x):
    """L[v^a log(v)^b](x), v = 1 - p/s, the average past s, from mpmath's
    Ei, erfi, erfc, incomplete gamma and Kummer functions at the working
    precision; the log is the derivative in a."""
    z = x * abs(s)
    if a == -1 and s > 0:
        return s * mp.exp(-z) * mp.ei(z)
    if a == -1:
        return abs(s) * mp.exp(z) * mp.gammainc(0, z)  # E1
    if a == -mp.mpf(1) / 2 and s > 0:
        return 2 * s * mp.exp(-z) * mp.sqrt(mp.pi) / 2 * mp.erfi(mp.sqrt(z)) / mp.sqrt(z)
    if a == -mp.mpf(1) / 2:
        return abs(s) * mp.exp(z) * mp.sqrt(mp.pi / z) * mp.erfc(mp.sqrt(z))
    if s < 0:  # |s| e^z z^(-a-1) Gamma(a+1, z)
        G = lambda a: abs(s) * mp.exp(z) * z ** (-a - 1) * mp.gammainc(a + 1, z)
    else:  # below s, integral(e^(zu) u^a, u = 0..1) = 1F1(a+1; a+2; z)/(a+1); the average past it
        G = lambda a: s * mp.exp(-z) * (mp.hyp1f1(a + 1, a + 2, z) / (a + 1) + mp.cospi(a) * mp.gamma(a + 1) * z ** (-a - 1))
    return mp.diff(G, a) if b else G(a)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    st.fractions(F(1, 8), 40, max_denominator=8),
    st.booleans(),
    st.integers(-2, 10).map(lambda n: F(n, 2)),
    st.sampled_from((0, 1)),
    st.one_of(st.fractions(F(1, 1024), F(1, 4), max_denominator=1024), st.fractions(F(17, 64), F(3857, 64), max_denominator=64)),
    st.integers(15, 120),
)
@example(s=F(1), decaying=False, a=F(-1), b=0, x=F(1, 1000), digits=30)
@example(s=F(1), decaying=False, a=F(0), b=1, x=F(1, 100), digits=30)
@example(s=F(1, 8), decaying=True, a=F(-1, 2), b=0, x=F(1, 64), digits=50)
def test_closed_form_matches_mpmath(s, decaying, a, b, x, digits):
    # every exponent the family takes, a sign of s each way, and x from near
    # 0 to 60: a closed form sums at every x > 0
    assume(not b or (a.denominator == 1 and a >= 0))
    s = -s if decaying else s
    kernel = ClosedFormKernel(s, [(F(1), a, b)])
    val, err = laplace(kernel, x, QuadratureConfig(precision=digits))
    with mp.workdps(digits + 40):
        # the reference is good to about 10^-(digits + 35) of itself
        ref = averaged_power_transform(mp_fraction(s), mp_fraction(a), b, mp_fraction(x))
        assert abs(val - ref) <= err + abs(ref) * mp.mpf(10) ** -(digits + 35)
        assert err <= abs(ref) * mp.ldexp(1, 3 - mp.libmp.dps_to_prec(digits))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(24, 400), st.data())
def test_clenshaw_curtis_rule_is_exact_on_polynomials(log_n, prec, data):
    # Fejer's second rule, the open member of the family: n - 1 interior
    # nodes, positive weights, exact to degree n - 1
    n = 2**log_n
    nodes, weights = _laplace_mod._fejer_rule(n, prec)
    assert len(nodes) == len(weights) == n - 1
    assert all(-1 < t < 1 for t in nodes) and all(w > 0 for w in weights)
    with mp.workprec(prec + 40):
        for d in (0, n - 1, data.draw(st.integers(0, n - 1), label="degree")):
            exact = mp.mpf(2) / (d + 1) if d % 2 == 0 else 0
            assert abs(mp.fsum(w * t**d for t, w in zip(nodes, weights)) - exact) <= mp.ldexp(1, -prec)


@pytest.mark.parametrize("prec", [53, 103, 169, 336])
def test_clenshaw_curtis_levels_nest(prec):
    # level n's nodes are level 2n's even nodes, bit for bit
    for n in (2, 4, 8, 16, 32, 64, 128):
        coarse, fine = _laplace_mod._fejer_rule(n, prec)[0], _laplace_mod._fejer_rule(2 * n, prec)[0]
        assert [t._mpf_ for t in coarse] == [t._mpf_ for t in fine[1::2]]


QUAD_CASES = {
    "ei": (lambda s: mp.exp(s) / s, 2, 3, lambda: mp.ei(3) - mp.ei(2)),
    "cos": (mp.cos, 0, 5, lambda: mp.sin(5)),
    "atan": (lambda s: 1 / (1 + s * s), 0, 10, lambda: mp.atan(10)),
    "gauss": (lambda s: mp.exp(-s * s), -3, 7, lambda: mp.sqrt(mp.pi) * (mp.erf(7) + mp.erf(3)) / 2),
}


@pytest.mark.parametrize("digits", [15, 30, 50, 100])
@pytest.mark.parametrize("case", sorted(QUAD_CASES))
def test_law_quadrature_meets_its_tolerance(case, digits):
    # each panel stops where two levels agree to QUAD_TOL, a thousandth of
    # the laws' tightest tolerance
    fn, a, b, exact = QUAD_CASES[case]
    got = _quad(fn, a, b, libmp.dps_to_prec(digits))
    with mp.workdps(digits + 40):
        ref = exact()
        assert abs(got - ref) <= mp.mpf(1e-13) * max(1, abs(ref))


def quad_factor(kind, arg=None):
    """One factor of a law quadrature's integrand, read at the working
    precision, and its pole (None for an entire factor)."""
    if kind == "exp":
        return (lambda s: mp.exp(mp_fraction(arg) * s)), None
    if kind == "exp_over_s":
        return (lambda s: mp.exp(s) / s), F(0)
    if kind == "pole":
        return (lambda s: 1 / (s - mp_fraction(arg))), arg
    if kind == "sin":
        return (lambda s: mp.sin(arg * s)), None
    return (lambda s: mp.polyval(arg, s)), None


@st.composite
def quad_cases(draw):
    """(a, b, factors): an interval of up to three panels and one or two
    factors e^(alpha s), e^s/s, 1/(s - c), sin(k s) or an integer polynomial,
    each pole (c, and 0 for e^s/s) at least 1/8 outside [a, b]."""
    a = F(draw(st.integers(-8, 8)), 4)
    b = a + F(draw(st.integers(1, 12)), 4)
    kinds = ["exp", "pole", "sin", "poly"] + ([] if a - F(1, 8) < 0 < b + F(1, 8) else ["exp_over_s"])
    factors = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=2)):
        if kind == "exp":
            factors.append((kind, F(draw(st.integers(-8, 8)), 2)))
        elif kind == "pole":
            gap = F(draw(st.integers(1, 16)), 8)
            factors.append((kind, draw(st.sampled_from([a - gap, b + gap]))))
        elif kind == "sin":
            factors.append((kind, draw(st.integers(1, 8))))
        elif kind == "poly":
            factors.append((kind, draw(st.lists(st.integers(-5, 5), min_size=1, max_size=7))))
        else:
            factors.append((kind,))
    return a, b, factors


def reference_integral(fn, a, b, poles):
    """integral(fn, a..b) by mpmath's tanh-sinh rule at the working
    precision, with its error estimate: [a, b] is cut toward each pole at
    distances d, 3d, 7d, ... from the nearer end, d the pole's distance from
    it, so that no piece is longer than its distance from the pole."""
    cuts = {a, b}
    for p in poles:
        end, sign = (a, 1) if p < a else (b, -1)
        step = abs(end - p)
        while step < b - a:
            cuts.add(end + sign * step)
            step = 2 * step + abs(end - p)
    return mp.quad(fn, [mp_fraction(c) for c in sorted(cuts)], error=True)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(quad_cases(), st.sampled_from([15, 30, 50, 100]))
@example((F(1), F(5, 4), [("sin", 6), ("pole", F(-7, 8))]), 100)
@example((F(1), F(5, 4), [("exp", F(-7, 2)), ("pole", F(21, 8))]), 50)
@example((F(2), F(3), [("exp_over_s",)]), 50)
# about 3e7: its rounding at 15 digits, |I| 2^-73, is above QUAD_TOL, so
# the panel [4, 5] is refused there and summed at 30 digits
@example((F(3), F(5), [("exp", F(4)), ("sin", 4)]), 15)
@example((F(3), F(5), [("exp", F(4)), ("sin", 4)]), 30)
def test_law_quadrature_is_within_its_tolerance_or_refuses(case, digits):
    a, b, factors = case
    fns, poles = zip(*(quad_factor(*f) for f in factors))
    poles = [p for p in poles if p is not None]
    fn = fns[0] if len(fns) == 1 else lambda s: fns[0](s) * fns[1](s)
    prec = libmp.dps_to_prec(digits)
    try:
        got = _quad(fn, mp_fraction(a), mp_fraction(b), prec)
    except ToleranceNotMet:
        # right only where the integrand's rounding at prec + 20 bits keeps
        # two levels from agreeing to QUAD_TOL; each pole lies at least 1/8
        # outside, so the top level of every panel of unit length settles it
        with mp.workdps(digits + 40):
            mass = reference_integral(lambda s: abs(fn(s)), a, b, poles)[0]
        assert mass * mp.ldexp(1, -prec - 20) > QUAD_TOL / 1024, (case, digits)
        return
    with mp.workdps(digits + 40):
        ref, err = reference_integral(fn, a, b, poles)
        assert err <= mp.mpf(1e-20) * max(1, abs(ref))
        assert abs(got - ref) <= mp.mpf(1e-13) * max(1, abs(ref)), (case, digits)


@pytest.mark.parametrize(
    "fn, a, b, digits",
    [
        *((lambda s: 1 / (s - mp.mpf(999) / 1000), 1, 2, digits) for digits in (15, 50, 100)),
        (lambda s: mp.exp(8 * s) * mp.sin(8 * s), 3, 5, 15),
    ],
    ids=["pole_a_thousandth_outside-15", "pole_a_thousandth_outside-50", "pole_a_thousandth_outside-100", "large-15"],
)
def test_law_quadrature_refuses_a_panel_that_does_not_settle(fn, a, b, digits):
    # the pole leaves the top two levels 1.6e-4 apart at every precision;
    # the integral of about 2^54 has levels that agree only to its
    # rounding at 73 bits, about 2^-19, far above QUAD_TOL
    with pytest.raises(ToleranceNotMet, match=r"panel \[.*\] does not settle"):
        _quad(fn, a, b, libmp.dps_to_prec(digits))


def test_laplace_leaves_mpmath_node_caches_alone():
    rules = (mp.mp._tanh_sinh, mp.mp._gauss_legendre)
    sizes = [(len(r.interval_count), len(r.transformed_cache)) for r in rules]
    cfg = QuadratureConfig(precision=15)
    pade = PadeKernel([F(1)], [F(1), F(-1)])
    for i in range(25):
        # a Pade pole's closed-form part and the spans beside it build no
        # mpmath nodes
        laplace(pade, 5 + mp.mpf(2 * i + 1) / 7, cfg)
    assert [(len(r.interval_count), len(r.transformed_cache)) for r in rules] == sizes


def pade_transform(kernel: PadeKernel, x):
    """L[R](x) of R = num/den exactly, at the working precision, from R's
    partial fractions: -e^(-xa) Ei(xa) (the principal value) at a real
    positive pole a, e^(-xa) E1(-xa) at every other, times the residue, plus
    c/x for the quotient c."""
    num, den = ([mp_fraction(c) for c in cs] for cs in (kernel.num, kernel.den))
    while not den[-1]:
        den.pop()
    total = num[-1] / den[-1] / x if len(num) == len(den) else 0
    slope = [i * d for i, d in enumerate(den)][1:]
    for a in mp.polyroots(den[::-1], maxsteps=200, extraprec=200):
        residue = mp.polyval(num[::-1], a) / mp.polyval(slope[::-1], a)
        if mp.re(a) > 0 and abs(mp.im(a)) <= abs(a) * mp.eps * 1000:
            total -= residue * mp.exp(-x * mp.re(a)) * mp.ei(x * mp.re(a))
        else:
            total += residue * mp.exp(-x * a) * mp.e1(-x * a)
    return mp.re(total)


@pytest.mark.parametrize("digits", [15, 30, 50])
@pytest.mark.parametrize("x", [3, 5.2, 10])
@pytest.mark.parametrize("expr", ["#ei + #erfi", "#ei*#ei", "#ei/x", "3*#ei - 1/2*#stirling"])
def test_pade_sum_is_within_its_reported_error_of_its_fit(expr, x, digits):
    # each series carries no kernel, so it is summed through its Pade fit R;
    # the reported error is the quadrature's, so the sum lies within it of
    # L[R](x), the exact transform of the same R.  Each pole's part is
    # subtracted at the pole's binary fraction, with its residue there, and
    # summed in closed form; the level differences see what that leaves
    ts = ts_parse(expr)
    val, err = eb_sum(ts, x, QuadratureConfig(precision=digits))
    with mp.workdps(60):
        ref = 0
        for grp in groups_of(ts):
            entry = resolve_default(grp.series)
            scale = mp.mpf(x) ** mp_fraction(grp.offset) * mp.exp(mp_fraction(grp.mu) * x) * mp_fraction(entry.c)
            ref += scale * pade_transform(entry.kernel, mp.mpf(x))
        assert abs(val - ref) <= err


def test_no_point_is_evaluated_twice(monkeypatch):
    # the open rule evaluates no panel's end: adjacent panels share no point
    # and no panel meets the pole at its end
    seen = []
    plain = PadeKernel.value
    monkeypatch.setattr(PadeKernel, "value", lambda self, p: seen.append(p._mpf_) or plain(self, p))
    eb_sum(ts_parse("3*#ei - 1/2*#stirling"), 5.203125, QuadratureConfig(precision=30))
    points = []
    _quad(lambda s: points.append(s._mpf_) or mp.exp(s) / s, 2, 9, 166)
    for got in (seen, points):
        assert got and len(set(got)) == len(got)


class TestL1Norms:
    def test_convolution_submultiplicative(self, rng):
        # ||F*G||_(1,c) <= ||F||_(1,c) ||G||_(1,c) on sampled polynomials
        c = mp.mpf(1)
        T = 30

        def norm(poly):
            return mp.quad(lambda p: abs(sum(b * p**k for k, b in enumerate(poly.coeffs))) * mp.exp(-c * p), [0, T])

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


def dyadic(p) -> F:
    """An mpf's exact value."""
    sign, man, exp, _ = p._mpf_
    return F(-man if sign else man) * F(2) ** exp


def rounded(k, p):
    """num(p)/den(p) in Fractions at p's exact value, rounded once to nearest
    at the precision in force; None when den(p) = 0."""
    x = dyadic(p)
    den = sum(c * x**i for i, c in enumerate(k.den))
    if den == 0:
        return None
    r = sum(c * x**i for i, c in enumerate(k.num)) / den
    return mp.make_mpf(libmp.from_rational(r.numerator, r.denominator, mp.mp.prec, libmp.round_nearest))


class TestKernelProperties:
    @PROPERTY
    @given(pade_kernels(), DIGITS, st.lists(POINTS, min_size=1, max_size=3))
    def test_pade_value_follows_the_precision_in_force(self, k, digits, points):
        # one instance evaluated at every precision in turn, up and down: each
        # value is the exact R(p) rounded once at the precision in force
        for dps in digits + digits[::-1]:
            with mp.workdps(dps):
                for x in points:
                    p = mp.mpf(x)
                    ref = rounded(k, p)
                    if ref is None:
                        with pytest.raises(SingularPointError):
                            k.value(p)
                    else:
                        assert k.value(p) == ref

    @pytest.mark.parametrize(
        "num, den, p",
        [
            ([F(-3, 4), F(1)], [F(1), F(1, 7)], mp.mpf(0.75)),  # a dyadic zero of num
            ([F(-3, 4), F(1)], [F(1), F(1, 7)], F(3, 4)),
            ([F(1)], [F(1), F(-4, 5)], mp.mpf(1.25)),  # a dyadic root of den
            ([F(1)], [F(1), F(2)], mp.mpf(-0.5)),
            ([F(-1, 2**200), F(1)], [F(1), F(1)], mp.ldexp(1, -200)),
            ([F(1)], [F(1), F(2**200)], -mp.ldexp(1, -200)),
            ([F(1, 3), F(-2, 3), F(1, 3)], [F(1), F(-3, 2)], mp.mpf(1) + mp.ldexp(1, -60)),  # num 2^-120/3
            ([F(1, 3), F(2, 3), F(1, 3)], [F(1), F(-3, 2)], -mp.mpf(1) - mp.ldexp(1, -60)),
        ],
    )
    def test_pade_value_exact_fallback(self, monkeypatch, num, den, p):
        # where the fixed-point quotient cannot decide the rounding, num and den
        # are evaluated exactly on p's mantissa: a zero is exactly 0, a root
        # of den raises, anything else is rounded once
        from tsr.resummation import kernels

        calls, horner = [], kernels._horner
        monkeypatch.setattr(kernels, "_horner", lambda c, x: calls.append(x) or horner(c, x))
        k = PadeKernel(num, den)
        for dps in (15, 50, 15):
            with mp.workdps(dps):
                ref = rounded(k, p if isinstance(p, mp.mpf) else mp.mpf(p.numerator) / p.denominator)
                if ref is None:
                    with pytest.raises(SingularPointError):
                        k.value(p)
                else:
                    assert k.value(p) == ref
        assert calls

    def test_pade_value_refuses_a_non_finite_point(self):
        k = PadeKernel([F(1), F(2)], [F(1), F(1, 3)])
        for p in (mp.inf, -mp.inf, mp.nan):
            with pytest.raises(DomainError):
                k.value(p)

    def test_pade_value_takes_a_fraction_as_laplace_does(self):
        k = PadeKernel([F(1), F(2)], [F(1), F(1, 3)])
        with mp.workdps(40):
            assert k.value(F(1, 3)) == k.value(mp.mpf(1) / 3) == rounded(k, mp.mpf(1) / 3)

    def test_coth_value_is_closed_form_or_taylor(self):
        from tsr.coefficients import coth_kernel_coeff

        k = CothReference()
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


def reference_pade(b, m, n):
    """(num, den) of the (m, n) Pade approximant to b, by Gauss-Jordan
    elimination over Fractions with the first nonzero pivot down each column;
    None where that finds the Toeplitz system singular."""
    c = [b.coeff(k) for k in range(m + n + 1)]
    a = [[c[m + i - j] if m + i - j >= 0 else F(0) for j in range(1, n + 1)] + [-c[m + i]] for i in range(1, n + 1)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        a[col] = [v / a[col][col] for v in a[col]]
        for r in range(n):
            f = a[r][col]
            if r != col and f:
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    den = [F(1)] + [row[n] for row in a]
    return [sum(den[j] * c[k - j] for j in range(min(k, n) + 1)) for k in range(m + 1)], den


def borel_polys(size=25):
    """Small rationals, each followed by a run of up to 8 zeros: the runs
    make many Toeplitz blocks singular."""
    small = st.builds(F, st.integers(-9, 9), st.integers(1, 9))
    runs = st.lists(st.tuples(small, st.integers(0, 8)), min_size=1, max_size=size)
    return runs.map(lambda rs: BorelPoly(tuple(([x for c, z in rs for x in [c] + [F(0)] * z] + [F(0)] * size)[:size])))


class TestFractionFreeSolve:
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(borel_polys(), st.integers(0, 11), st.integers(1, 11))
    @example(BorelPoly((F(1),) + (F(0),) * 24), 1, 2)
    @example(BorelPoly((F(1),) * 25), 11, 11)
    def test_pade_continue_matches_gauss_jordan(self, b, m, n):
        ref = reference_pade(b, m, n)
        if ref is None:
            with pytest.raises(DegenerateTableError):
                pade_continue(b, (m, n))
        else:
            k = pade_continue(b, (m, n))
            assert (list(k.num), list(k.den)) == ref

    @PROPERTY
    @given(borel_polys())
    @example(BorelPoly((F(1),) * 25))
    @example(BorelPoly((F(0),) * 25))
    @example(BorelPoly(tuple(F(1, factorial(k)) for k in range(25))))
    def test_resolve_default_steps_down_alike(self, b):
        # the series whose Borel transform truncates to b
        series = PowerSeries.from_coeffs([c * factorial(k) for k, c in enumerate(b.coeffs)])
        found = ((d, reference_pade(b, d, d)) for d in range(11, 0, -1))
        d, ref = next(((d, ref) for d, ref in found if ref is not None), (None, None))
        if ref is None:
            with pytest.raises(DegenerateTableError):
                resolve_default(series)
        else:
            k = resolve_default(series).kernel
            assert k.name == f"pade({d},{d})"
            assert (list(k.num), list(k.den)) == ref


def _points():
    """ints, floats and mpf of 15 to 1000 digits, of both signs, with 0 and
    10^300, each with its mantissa's bits."""
    for x in (0, 1, -7, 10**300, 0.0, 2.5, -0.1, 1e-300, 1e300):
        yield x, _interval(x, 53)[0][3]
    for digits in (15, 50, 300, 1000):
        with mp.workdps(digits):
            for x in (mp.mpf(1) / 3, -mp.sqrt(2) * 10**5, mp.pi / 10**40):
                yield x, x._mpf_[3]


@pytest.mark.parametrize("mu", [F(1), F(-1), F(2), F(1, 2), F(-3, 4)], ids=str)
@pytest.mark.parametrize("prec", [53, 186, 3342])
def test_exp_rate_encloses_as_tightly_as_mpi_exp(monkeypatch, mu, prec):
    # e^(mu x) lies inside the bounds, which are mpi_exp's of the same mu x
    # wherever e^(mu x) is more than 2^-12 units from the prec-bit grid;
    # nearer it (as at x = pi 10^-40) each may be a unit wider.  An exact mu
    # x, as from a mantissa of at most prec bits, is one exponential
    calls = []
    mpf_exp = libmp.mpf_exp
    monkeypatch.setattr(libmp, "mpf_exp", lambda *a: calls.append(a) or mpf_exp(*a))

    def check(x):
        wp = prec + max(special.mag(_interval(x, 53)[0]) + mu.numerator.bit_length(), 0) + 10
        want = libmp.mpi_exp(libmp.mpi_mul(_interval(mu, wp), _interval(x, wp), wp), prec)
        calls.clear()
        got = _exp_rate(mu, x, prec)
        n = len(calls)
        if not x:
            assert got == (libmp.fone, libmp.fone)
            return n
        with mp.workprec(wp + prec + 2 * abs(special.mag(_interval(x, 53)[0])) + 400):  # e^(mu x) past a unit
            xm = mp.mpf(x.numerator) / x.denominator if isinstance(x, F) else mp.mpf(x)
            exact = mp.exp(mu.numerator * xm / mu.denominator)
            lo, hi = mp.make_mpf(got[0]), mp.make_mpf(got[1])
            assert lo < exact < hi, (mu, x, prec)
            units = mp.ldexp(exact, prec - mp.mag(exact))
            if abs(units - mp.nint(units)) > mp.ldexp(1, -12):
                assert got == want, (mu, x, prec)
            else:
                unit = mp.ldexp(1, mp.mag(exact) - prec)
                assert lo >= mp.make_mpf(want[0]) - unit and hi <= mp.make_mpf(want[1]) + 2 * unit, (mu, x, prec)
        return n

    for x, bits in _points():
        n = check(x)
        assert n == 1 or bits > prec, (mu, x, prec)
    # a Fraction x that is no binary fraction is enclosed: two exponentials
    for x in (F(1, 3), F(-10**30, 7), F(1, 10**40)):
        assert check(x) == 2
    # a binary fraction is exact
    assert check(F(3, 2**140)) == 1


@pytest.mark.parametrize("x", [15, 1000, 10**8])
def test_gamma_eb_value_keeps_every_digit(x):
    # e^(ln Gamma) moves by a factor e^d when ln Gamma moves by d, so its
    # sum is taken |ln Gamma(x)|'s integer bits past the precision
    val, err = catalog()["gamma"].eb_value(x, QuadratureConfig(precision=30))
    with mp.workdps(80):
        ref = mp.gamma(x)
        assert abs(val - ref) <= err
        assert abs(val - ref) <= abs(ref) * mp.ldexp(1, 2 - libmp.dps_to_prec(30))


@pytest.mark.parametrize("x", [F(1, 2**133), F(-1, 2**133), 3 * mp.ldexp(1, -140), 2.0**-100], ids=str)
@pytest.mark.parametrize("expr", ["exp(x)", "exp(-x)", "x*exp(2*x)"])
def test_a_rate_at_a_tiny_point_is_within_its_error(expr, x):
    # e^(mu x) = 1 + mu x + ..., where 1 + mu x is a binary fraction at the
    # working bits: an enclosure [1 + mu x, 1 + mu x] would report no error
    val, err = eb_sum(ts_parse(expr), x, QuadratureConfig(precision=50))
    with mp.workdps(200):
        xm = mp.mpf(x.numerator) / x.denominator if isinstance(x, F) else mp.mpf(x)
        ref = {"exp(x)": mp.exp(xm), "exp(-x)": mp.exp(-xm), "x*exp(2*x)": xm * mp.exp(2 * xm)}[expr]
        assert 0 < abs(val - ref) <= err
