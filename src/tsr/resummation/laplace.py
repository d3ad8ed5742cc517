"""Averaged Laplace transforms and Ecalle-Borel summation numerics.

The Borel sum of a series at a real x is the Laplace integral of the
balanced average of its Borel transform along the positive axis.  A
closed-form kernel (``ClosedFormKernel``: the ``#ei`` pole, the ``#erfi``
square-root branch, their P-integrals and every kernel ``ts_antidiff``
derives) sums that integral exactly, through Ei, erfi and erfc and
integration by parts, without evaluating the kernel at any point, and so
do the Binet (coth) kernel of ``#stirling``, through ln Gamma (Binet's
formula), and the Airy kernels of ``#airy_u`` and ``#airy_u_alt``, through
modified Bessel functions of order 1/3; each sums at every x > 0, and its
reported error is a bound on the rounding.

Quadrature, with level-difference estimates, remains for the Pade kernels
and for the tests, which sum a closed-form kernel's values by quadrature to
check its transform.  A Pade kernel gives its value at a point, correctly
rounded from integer coefficients with no per-precision mpf cache, its
simple poles on the ray (``singularities``) and the residue at each
(``residue``).  The poles are its denominator's real positive roots,
isolated exactly over Q and refined by Newton steps inside a bisection
bracket at the working precision to binary fractions
(``kernels.positive_roots``).  A pole of order 2 or more has no principal
value, so ``singularities`` refuses it with SingularPointError before any
quadrature.  Each simple pole s is subtracted, not folded at (Davis &
Rabinowitz, Methods of Numerical Integration, 2nd ed., 1984, 2.12): its
part r/(p - s), r = num(s)/den'(s) exactly at s's binary fraction, has the
principal value -r e^(-xs) Ei(xs), which ``pole_kernel(s, -r/s)`` sums in
closed form with its own error ball, and the quadrature sums the rest,
e^(-xp) (F(p) - sum(r/(p - s))), over spans cut at the poles, [0, s_1],
..., [s_k, T], each cut into panels.  The far tail is bounded by the
kernel's exponential growth constants (c1, c3), so a quadrature sums at
x > c3 only, and T >= s_k + 1.

Every panel is summed by one nested open rule, Fejer's second (Waldvogel,
BIT 46, 2006): its levels have n = 2, 4, ..., 256 intervals and the nodes
cos(j pi/n), 0 < j < n, so level n's nodes are level 2n's even nodes and
each level evaluates the integrand only at its n new odd nodes.  No level
evaluates the end of a panel: no pole is evaluated, and adjacent panels
share no point.  Working precision and tolerances come from
:class:`QuadratureConfig`; panel sizes are fixed (``_SPAN_PANELS``),
because each panel refines itself to the tolerance, so they decide where
the work goes, not how accurate the sum is.  ``_levels`` yields a panel's
levels in turn, and ``_panel`` stops at the first that meets the test
below.  The law suites of ``tsr check laws`` sum their integrals over
[a, b] by the same panels and the same test (``operators.laws._quad``).

The absolute tolerance governs the quadrature's work, not the working
precision.  Each panel is summed by the rule at rising level until two
successive levels differ by at most ``abs_tol/100``, or by the working
precision's floor if that is coarser, and T is where the tail's bound
falls to ``abs_tol/10``.  The error reported with a value (the CLI's
"(error <= E)"; its ``--tol T`` sets ``rel_tol = T`` and
``abs_tol = T/100``) is then the sum of the poles' balls, which hold their
rounding, of those last level differences, one per panel, and of the tail
bounds: the kernel's, c1 e^(-(x - c3) T)/(x - c3), and the subtracted
terms', sum(|r|) e^(-xT)/x, plus the rounding of the total.  A level
difference estimates a panel's error; it is not a proof, and the error of a
Pade fit is not part of it.  Either way a value whose error exceeds
max(abs_tol, rel_tol |value|) raises ``ToleranceNotMet``.

``eb_sum`` sums each series through the kernel it carries (the registered
closed form of a ``#name``, see ``tsr.coefficients``, times the rational
multiple its ``KernelEntry`` keeps, or the one ``ts_antidiff`` derives).
The tolerance applies to the kernel's own Laplace integral, before the
multiple and the transmonomial scale it.  A finite series is its own sum.
Only an infinite series that carries no kernel is summed through an exact
Pade fit.  Three operations drop a kernel: a sum (``PowerSeries.sum``) of
series with different kernels or with a shifted part, ``PowerSeries.mul``
and ``diff_combo``; so does an antiderivative for which ``ts_antidiff``
derives no kernel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import mpmath as mp
from mpmath import libmp

from ..errors import DegenerateTableError, DomainError, GrowthBoundViolated, ToleranceNotMet
from ..transseries.grid import TransseriesT1, groups_of
from ..transseries.series import PowerSeries
from .borel import borel_transform
from . import special
from .kernels import _ZERO, BorelFunction, KernelEntry, _ball, _c2mp, _exp, _interval, _rounded, pade_continue, pole_kernel


#: Most equal panels a span between poles is cut into.
_SPAN_PANELS = 16


@dataclass
class QuadratureConfig:
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    precision: int = 50

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):  # a NaN tolerance is never missed
            raise DomainError("tolerances must be positive")
        if self.precision < 1:
            raise DomainError("precision must be at least one digit")


def laplace(f: BorelFunction, x, cfg: QuadratureConfig = None) -> tuple[mp.mpf, mp.mpf]:
    """integral(e^(-xp) avg(f)(p), p = 0..inf) with an error estimate.

    A kernel with a ``laplace(x, prec)`` method (the closed forms) sums
    itself at every x > 0, and its error is a rounding bound; every other
    kernel is summed at x > c3 (its ``growth``): each pole's part in closed
    form, at the x given, and the rest by quadrature, at x rounded to the
    working precision, in one loop over the panels of the spans between the
    poles.  The parts are added as balls in one interval at 20 guard bits.
    The kernel is asked, not its type checked, so a wrapper that forwards
    attributes takes the same path.
    """
    cfg = cfg or QuadratureConfig()
    _finite(x)
    if not x > 0:
        raise GrowthBoundViolated(f"need x > 0, got {x}")
    closed = getattr(f, "laplace", None)
    if closed is not None:
        total, err = closed(x, libmp.dps_to_prec(cfg.precision))
        return _within_tolerance(total, err, cfg)
    c1, c3 = f.growth
    if not x > c3:
        raise GrowthBoundViolated(f"need x > {c3}, got {x}")
    with mp.workdps(cfg.precision):
        prec = mp.mp.prec
        wp = prec + 20
        X = _c2mp(x)
        abs_tol = mp.mpf(cfg.abs_tol)

        # each pole's principal value in closed form, at the x given and the
        # guard bits, as a ball
        poles = [(s, f.residue(s)) for s in f.singularities()]
        total = _ZERO
        for s, r in poles:
            total = libmp.mpi_add(total, _ball(*pole_kernel(s, -r / s).laplace(x, wp), wp), wp)

        # each pole's binary fraction exactly: mp.mpf and _c2mp would round it
        locs = [mp.make_mpf(libmp.from_man_exp(s.numerator, 1 - s.denominator.bit_length())) for s, _ in poles]
        # the tail past T, the kernel's by its growth and the subtracted
        # terms' by |r/(p - s)| <= |r|, falls to a tenth of the tolerance
        R = mp.fsum(abs(_c2mp(r)) for _, r in poles)
        T = mp.log(10 * c1 / (abs_tol * (X - c3))) / (X - c3)
        if R:
            T = max(T, mp.log(10 * R / (abs_tol * X)) / X)
        T = max([T, mp.mpf(2)] + [mp.fadd(loc, 1, exact=True) for loc in locs])
        tail = c1 * mp.exp(-(X - c3) * T) / (X - c3) + R * mp.exp(-X * T) / X

        # each panel stops refining at a hundredth of the absolute tolerance,
        # or at the working precision's floor if that is coarser
        eps = max(abs_tol / 100, mp.eps / 8)
        edges = [mp.mpf(0)] + locs + [T]
        panels = []
        for a, b in zip(edges, edges[1:]):
            pts = _split_span(a, b)
            if not a:
                pts[1:1] = _cuts_near_zero(X, pts[1])
            panels += zip(pts, pts[1:])
        with mp.workprec(wp):  # guard bits for the node sums
            rs = [_c2mp(r) for _, r in poles]
            remainder = lambda p: mp.exp(-X * p) * (f.value(p) - mp.fsum(r / (p - s) for s, r in zip(locs, rs)))
            for a, b in panels:
                total = libmp.mpi_add(total, _ball(*_panel(remainder, a, b, eps, prec), wp), wp)
        val, err = _rounded(libmp.mpi_add(total, _ball(mp.mpf(0), tail, wp), wp), prec)
        return _within_tolerance(val, err, cfg)


def _finite(x):
    """Raise DomainError for a non-finite float or mpf x."""
    finite = math.isfinite(x) if isinstance(x, float) else not isinstance(x, mp.mpf) or mp.isfinite(x)
    if not finite:
        raise DomainError(f"no Laplace sum at the non-finite point x = {x}")


def _within_tolerance(total, err, cfg: QuadratureConfig) -> tuple:
    """(total, err), unless err exceeds max(abs_tol, rel_tol |total|), which
    raises ToleranceNotMet; the comparison is exact."""
    rel = libmp.mpf_mul(libmp.from_float(cfg.rel_tol), libmp.mpf_abs(total._mpf_))
    if libmp.mpf_gt(err._mpf_, libmp.from_float(cfg.abs_tol)) and libmp.mpf_gt(err._mpf_, rel):
        limit = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        raise ToleranceNotMet(f"achieved error {mp.nstr(err, 5)} above tolerance {mp.nstr(limit, 5)}")
    return total, err


def _cuts_near_zero(x, h):
    """Cuts 64/x, 128/x, 256/x, ... below h for the panel [0, h].  The
    integrand e^(-xp) F(p) lives in p < 1/x, so a panel with x h > 64 is
    cut where it changes; none is cut when x h <= 64."""
    cuts, c = [], 64 / x
    while c < h:
        cuts.append(c)
        c *= 2
    return cuts


def _split_span(a, b):
    """Edges of equal panels over [a, b], a and b themselves at the ends:
    one panel per unit of length, at least one and at most _SPAN_PANELS."""
    n = min(max(int(mp.ceil((b - a))), 1), _SPAN_PANELS)
    return [a] + [a + (b - a) * mp.mpf(i) / n for i in range(1, n)] + [b]


# -- panel quadrature ------------------------------------------------------------

#: Intervals at the top level of the nested rule; its levels have
#: n = 2, 4, ..., _TOP intervals.
_TOP = 256


@functools.lru_cache(maxsize=None)
def _cos_sin(m: int, prec: int) -> tuple:
    """cos and sin of m pi / _TOP, 0 <= m <= _TOP/4, as fixed-point
    integers with prec + 40 fraction bits, from raw ``libmp`` at an explicit
    precision."""
    bits = prec + 40
    c, s = libmp.mpf_cos_sin_pi(libmp.from_rational(m, _TOP, bits), bits + 10)
    return libmp.to_fixed(c, bits), libmp.to_fixed(s, bits)


def _cosine(k: int, prec: int) -> int:
    """cos(k pi / _TOP), 0 <= k <= _TOP, as ``_cos_sin`` gives it: the
    cosine of k < _TOP/4, the sine of _TOP/2 - k up to _TOP/2, and the
    negated cosine of _TOP - k past it."""
    if k > _TOP // 2:
        return -_cosine(_TOP - k, prec)
    return _cos_sin(k, prec)[0] if k < _TOP // 4 else _cos_sin(_TOP // 2 - k, prec)[1]


@functools.lru_cache(maxsize=None)
def _fejer_rule(n: int, prec: int) -> tuple:
    """(nodes, weights) of Fejer's second rule with n intervals on [-1, 1],
    for sums at ``prec`` bits: nodes cos(theta_j), theta_j = j pi/n,
    j = 1..n-1, and

        w_j = 4 sin(theta_j)/n * sum(sin((2k - 1) theta_j) / (2k - 1), k = 1..n/2)

    (Waldvogel, BIT 46, 2006).  The weights are positive and the rule is
    exact to degree n - 1.  The sums run in fixed-point integers with 20
    bits beyond the node sums' prec + 20, from the n/4 + 1 cosines and
    sines of m pi/_TOP that level n reaches (``_cos_sin``), with
    sin(m pi/n) = cos((n/2 - m) pi/n), so level n's nodes are level 2n's
    even nodes bit for bit.  Nothing reads or writes a context's precision;
    the results are mpf rounded to prec + 20 bits.
    """
    bits = prec + 40
    cos = tuple(_cosine(m * (_TOP // n), prec) for m in range(n + 1))  # cos(m pi/n)
    period = cos + cos[-2:0:-1]  # cos(m pi/n), m = 0..2n-1
    sin = lambda m: period[(n // 2 - m) % (2 * n)]
    d = [(1 << bits) // (2 * k - 1) for k in range(1, n // 2 + 1)]
    shift = n.bit_length() + bits - 3  # 4/n = 2^(2 - log2 n), and one 2^-bits
    half = []
    for j in range(1, n // 2 + 1):
        s = sum(dk * sin((2 * k + 1) * j) for k, dk in enumerate(d)) >> bits
        half.append(sin(j) * s >> shift)
    weights = half + half[-2::-1]
    make = lambda v: mp.mp.make_mpf(libmp.from_man_exp(v, -bits, prec + 20, libmp.round_nearest))
    return tuple(map(make, cos[1:-1])), tuple(map(make, weights))


def _levels(fn, a, b, prec: int):
    """I_2, I_4, ..., I_256: integral(fn, a..b) by the nested rule at each
    level in turn.  Each level keeps the values it has, at its even nodes,
    and evaluates fn only at its new odd ones, mapped from [-1, 1] onto
    [a, b]."""
    half, mid = (b - a) / 2, (b + a) / 2
    ys, n = [], 2
    while n <= _TOP:
        nodes, weights = _fejer_rule(n, prec)
        new = [fn(mid + half * t) for t in nodes[::2]]
        ys = [y for pair in zip(new, ys) for y in pair] + new[-1:]
        yield half * mp.fdot(weights, ys)
        n *= 2


def _panel(fn, a, b, eps, prec: int):
    """integral(fn, a..b) by the nested rule, raising its level until two
    successive levels I_k, I_(k-1) differ by at most eps; |I_k - I_(k-1)|
    is the error."""
    levels = _levels(fn, a, b, prec)
    prev = next(levels)
    for level in levels:
        diff = abs(level - prev)
        if diff <= eps:
            break
        prev = level
    return level, diff


# -- Ecalle-Borel summation ------------------------------------------------------


KernelResolver = Callable[[PowerSeries], Optional[KernelEntry]]


def resolve_default(series: PowerSeries) -> KernelEntry:
    """Generic fallback: the exact (11, 11) Pade continuation of the Borel
    transform truncated after p^24.

    Degenerate Pade blocks (rank-deficient Toeplitz systems) are resolved by
    stepping down to the largest solvable balanced table entry.
    """
    poly = borel_transform(series, 24)
    m = n = 11
    while n >= 1:
        try:
            return KernelEntry(pade_continue(poly, (m, n)))
        except DegenerateTableError:
            m -= 1
            n -= 1
    raise DegenerateTableError("no solvable Pade entry down to (1, 1)")


def eb_sum(
    ts: TransseriesT1,
    x,
    cfg: QuadratureConfig = None,
    *,
    resolver: KernelResolver = None,
) -> tuple[mp.mpf, mp.mpf]:
    """Numeric Ecalle-Borel sum of a T1 transseries at real x.

    A finite grid series and the log part evaluate exactly.  Every other
    series y is summed through its Borel kernel entry c K (resolver-supplied,
    else the series' own, else a generic Pade fit), as c L[K](x) at the x
    given (a closed form encloses a Fraction), times its transmonomial
    x^beta e^(mu x), e^(mu x) formed from that x too; a non-finite x is a
    DomainError.

    The sum is one raw interval at ``GUARD`` bits past the precision, built
    from an enclosure of x: each power, log and exponential is an interval,
    and each Laplace sum the ball of its value and error.  Returns its
    midpoint rounded to the precision, and as the error the radius plus that
    rounding (``_rounded``).  No context precision is read or set.
    """
    cfg = cfg or QuadratureConfig()
    _finite(x)
    prec = libmp.dps_to_prec(cfg.precision)
    wp = prec + special.GUARD
    X = _interval(x, wp)
    total = _ZERO

    lp = ts.log
    if lp.P and x <= 0:
        raise DomainError(f"log x has no real value at x = {libmp.to_str(X[0], cfg.precision)}")
    if not lp.is_zero():
        LX = libmp.mpi_log(X, wp) if lp.P else None
        for i, c, logs in [(i, c, 1) for i, c in enumerate(lp.P)] + [(i, c, 0) for i, c in enumerate(lp.Q)]:
            t = libmp.mpi_mul(_interval(c, wp), libmp.mpi_pow_int(X, i, wp), wp)
            total = libmp.mpi_add(total, libmp.mpi_mul(t, LX, wp) if logs else t, wp)

    for grp in groups_of(ts):
        series = grp.series
        if series.length == 0:
            continue
        if series.is_finite():
            # finite sums are their own Borel sums: e^(mu x) sum(c_l x^(offset - l))
            val = _ZERO
            for l in range(1, series.length + 1):
                if c := series.coeff(l):
                    q = grp.offset - l
                    if not x and q < 0:
                        raise DomainError(f"x^({q}) has no value at x = 0")
                    if x < 0 and q.denominator != 1:
                        raise DomainError(f"x^({q}) has no real value at x = {libmp.to_str(X[0], cfg.precision)}")
                    t = _interval(c, wp)
                    if q:
                        t = libmp.mpi_mul(t, libmp.mpi_pow(X, _interval(q, wp), wp), wp)
                    val = libmp.mpi_add(val, t, wp)
        else:
            entry = (resolver(series) if resolver is not None else series.kernel) or resolve_default(series)
            val = _ball(*laplace(entry.kernel, x, cfg), wp)
            if entry.c != 1:
                val = libmp.mpi_mul(_interval(entry.c, wp), val, wp)
            if grp.offset:
                val = libmp.mpi_mul(libmp.mpi_pow(X, _interval(grp.offset, wp), wp), val, wp)
        # each val has at most wp bits, so a factor of exactly 1 (c, x^0,
        # e^(0 x)) would leave it as it is, and is skipped
        if grp.mu:
            val = libmp.mpi_mul(_exp_rate(grp.mu, x, wp), val, wp)
        total = libmp.mpi_add(total, val, wp)
    return _rounded(total, prec)


def _exp_rate(mu: Fraction, x, prec: int) -> tuple:
    """An interval at prec bits holding e^(mu x) (``kernels._exp``), with mu x
    enclosed at enough bits past prec that its width widens e^(mu x) by under
    a unit.  Rounding x to prec bits, at x = 10^300 and 50 digits, would move
    it by a factor e^(10^250).  Where mu x is exact at those bits (a dyadic
    mu at an int, float or mpf x), the enclosure is a point: one
    exponential."""
    wp = prec + max(special.mag(_interval(x, 53)[0]) + mu.numerator.bit_length(), 0) + 10
    return _exp(libmp.mpi_mul(_interval(mu, wp), _interval(x, wp), wp), prec)


# -- Watson's Lemma diagnostic ---------------------------------------------------


@dataclass
class WatsonReport:
    a: int
    b: int
    K: int
    points: list[tuple[float, float, float]] = field(default_factory=list)  # (x, |diff|, ratio)
    fitted_C: float = 0.0
    passed: bool = True

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"watson a={self.a} b={self.b} K={self.K}: remainder <= {self.fitted_C:.3e} "
            f"x^-({(self.K + 1) * self.a + self.b + 1}) on the grid [{verdict}]"
        )


def watson_check(
    f: BorelFunction,
    *,
    a: int = 1,
    b: int = 0,
    K: int = 4,
    cfg: QuadratureConfig = None,
) -> WatsonReport:
    """Check L[f](x) against sum(f_k Gamma(ka+b+1) x^(-ka-b-1), k <= K).

    The remainder must be O(x^-((K+1)a+b+1)); the fitted constant is the
    largest rescaled deviation on the grid.
    """
    cfg = cfg or QuadratureConfig()
    report = WatsonReport(a=a, b=b, K=K)
    taylor = f.taylor(a * K + b)
    with mp.workdps(cfg.precision):
        power = (K + 1) * a + b + 1
        ratios = []
        diffs = []
        for x in map(mp.mpf, (4, 6, 8, 12)):
            val, _ = laplace(f, x, cfg)
            partial = mp.mpf(0)
            for k in range(K + 1):
                fk = taylor[k * a + b]
                partial += _c2mp(fk) * mp.factorial(k * a + b) * x ** (-(k * a + b + 1))
            diff = abs(val - partial)
            diffs.append(diff)
            ratio = diff * x**power
            ratios.append(ratio)
            report.points.append((float(x), float(diff), float(ratio)))
        report.fitted_C = float(max(ratios))
        # the empirical content of the bound: on the largest grid points the
        # remainder must decay at least like x^-power (slope margin 3/4, so
        # pre-asymptotic contamination at the small-x end cannot fail it)
        tiny = mp.mpf(cfg.abs_tol) * 100
        if max(diffs) <= tiny:
            report.passed = True
        else:
            slope = mp.log(diffs[-1] / diffs[-2]) / mp.log(mp.mpf(12) / 8)  # the last two points
            report.passed = bool(slope <= -(power - 0.75))
    return report
