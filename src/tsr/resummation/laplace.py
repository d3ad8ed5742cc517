"""Averaged Laplace transforms and Ecalle-Borel summation numerics.

The Borel sum of a series at a real x is the Laplace integral of the
balanced average of its Borel transform along the positive axis.  A
closed-form kernel (``ClosedFormKernel``: the ``#ei`` pole, the ``#erfi``
square-root branch, their P-integrals and every kernel ``ts_antidiff``
derives) sums that integral exactly, through Ei, erfi and erfc and
integration by parts, without evaluating the kernel at any point, and so
do the Binet (coth) kernel of ``#stirling``, through ln Gamma (Binet's
formula), and the Airy kernels of ``#airy_u`` and ``#airy_u_alt``, through
modified Bessel functions of order 1/3; their reported error is a bound on
the rounding.

Quadrature, with level-difference estimates, remains for the Pade kernels,
which give their value at a point, correctly rounded from integer
coefficients with no per-precision mpf cache, and their singularities on
the ray (the poles), and for the tests, which sum a closed-form kernel's values by
quadrature to check its transform (the Airy kernel's log branch point
takes the tanh-sinh halves).  A Pade kernel's poles are its denominator's
real positive roots, isolated exactly over Q and refined by bisection at
the working precision (``kernels.positive_roots``); a pole of order 2 or
more has no principal value, so ``singularities`` refuses it with
SingularPointError before any quadrature.  Their Laplace integrals are
evaluated over panels whose edges sit at those singularities: a simple
pole's symmetric window is the principal value, summed as the fold
integrand(s - t) + integrand(s + t) over 0 < t < w, in which the pole's
+-A/t terms cancel; log endpoints are left to tanh-sinh panels, and the
far tail is bounded by the kernel's exponential growth constants.  The
smooth spans between windows are summed by a nested
Clenshaw-Curtis rule: its levels have n = 2, 4, ..., 256 intervals, and each
level keeps the integrand's values at the level below's nodes, its own even
nodes.  A pole's fold is summed by Gauss-Legendre, whose nodes stay away
from t = 0.  Working precision and tolerances come from
:class:`QuadratureConfig`; window and panel sizes are fixed (``PV_WINDOW``,
``_SPAN_PANELS``), because each panel refines itself to the tolerance, so
they decide where the work goes, not how accurate the sum is.

The absolute tolerance governs the quadrature's work, not the working
precision.  Each panel is summed by its rule at rising level until two
successive levels differ by at most ``abs_tol/100``, or by the working
precision's floor if that is coarser, and the tail is cut where its bound
falls to ``abs_tol/10``.  The error reported with a value (the CLI's
"(error <= E)"; its ``--tol T`` sets ``rel_tol = T`` and
``abs_tol = T/100``) is then the sum of those last level differences, one
per panel, and the tail bound.  A level difference estimates a panel's
error; it is not a proof, and the error of a Pade fit is not part of it.
Either way a value whose error exceeds max(abs_tol, rel_tol |value|) raises
``ToleranceNotMet``.

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
import operator
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import mpmath as mp
from mpmath import libmp
from mpmath.calculus.quadrature import GaussLegendre, TanhSinh

from ..errors import DomainError, GrowthBoundViolated, ToleranceNotMet
from ..transseries.grid import TransseriesT1, groups_of
from ..transseries.series import PowerSeries
from .borel import borel_transform
from .kernels import BorelFunction, KernelEntry, _c2mp, pade_continue


#: Half-width of a singularity's window, narrowed to half the first
#: singularity's distance from 0 and to a third of each gap between two.
PV_WINDOW = 0.25
#: Most equal panels a smooth span between windows is cut into.
_SPAN_PANELS = 16


@dataclass
class QuadratureConfig:
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    precision: int = 50

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):  # a NaN tolerance is never missed
            raise ValueError("tolerances must be positive")
        if self.precision < 1:
            raise ValueError("precision must be at least one digit")


def laplace(f: BorelFunction, x, cfg: QuadratureConfig = None) -> tuple[mp.mpf, mp.mpf]:
    """integral(e^(-xp) avg(f)(p), p = 0..inf) with an error estimate.

    A kernel with a ``laplace(x, prec)`` method (the closed forms) sums
    itself, and its error is a rounding bound; every other kernel is summed
    in one loop over the pieces ``_pieces`` lays out.  The kernel is asked,
    not its type checked, so a wrapper that forwards attributes takes the
    same path.
    """
    cfg = cfg or QuadratureConfig()
    c1, c3 = f.growth
    if _exact(x) <= Fraction(c3):
        raise GrowthBoundViolated(f"need x > {c3}, got {x}")
    closed = getattr(f, "laplace", None)
    if closed is not None:
        total, err = closed(x, libmp.dps_to_prec(cfg.precision))
        return _within_tolerance(total, err, cfg)
    with mp.workdps(cfg.precision):
        x = _c2mp(x) if isinstance(x, Fraction) else mp.mpf(x)
        c1, c3 = mp.mpf(c1), mp.mpf(c3)
        abs_tol = mp.mpf(cfg.abs_tol)

        sings = sorted(f.singularities(), key=lambda s: s.location)
        locs = [_c2mp(s.location) for s in sings]
        w = mp.mpf(PV_WINDOW)
        if locs:
            w = min([w, min(locs) / 2] + [(b - a) / 3 for a, b in zip(locs, locs[1:])])
        # T is rounded through a float; the pinned golden values depend on it
        T = mp.mpf(float(mp.log(10 * c1 / (abs_tol * (x - c3))) / (x - c3)))
        if locs:
            T = max(T, locs[-1] + 2 * w + 1)
        T = max(T, mp.mpf(2))

        total = err = mp.mpf(0)
        # each panel stops refining at a hundredth of the absolute tolerance,
        # or at the working precision's floor if that is coarser
        eps = max(abs_tol / 100, mp.eps / 8)
        prec = mp.mp.prec
        for fn, pts, rule in _pieces(f, x, sings, locs, w, T):
            v = e = mp.mpf(0)
            with mp.workprec(prec + 20):  # guard bits for the node sums
                for a, b in zip(pts, pts[1:]):
                    if a != b:
                        pv, pe = _panel(fn, a, b, rule, eps, prec)
                        v += pv
                        e += pe
            total += +v
            err += abs(e)

        # exponential tail bound for p > T
        err += c1 * mp.exp(-(x - c3) * T) / (x - c3)
        return _within_tolerance(total, err, cfg)


def _exact(x) -> Fraction:
    """x (a Fraction, int, float or mpf) as an exact Fraction."""
    return Fraction(*libmp.to_rational(x._mpf_)) if hasattr(x, "_mpf_") else Fraction(x)


def _within_tolerance(total, err, cfg: QuadratureConfig) -> tuple:
    """(total, err), unless err exceeds max(abs_tol, rel_tol |total|), which
    raises ToleranceNotMet; the comparison is exact."""
    rel = libmp.mpf_mul(libmp.from_float(cfg.rel_tol), libmp.mpf_abs(total._mpf_))
    if libmp.mpf_gt(err._mpf_, libmp.from_float(cfg.abs_tol)) and libmp.mpf_gt(err._mpf_, rel):
        raise ToleranceNotMet(
            f"achieved error {mp.nstr(err, 5)} above tolerance {mp.nstr(max(cfg.abs_tol, cfg.rel_tol * abs(total)), 5)}",
            achieved=float(err),
        )
    return total, err


def _pieces(f: BorelFunction, x, sings, locs, w, T):
    """The (integrand, panel edges, rule) pieces of a Laplace integral, in
    the order they are summed: the smooth spans between windows, then each
    singularity's window.  Each is built only when the one before has been
    summed, so the first piece to fail is the one that raises.  A pole's
    window is one fold; a log point's two halves go to tanh-sinh."""
    integrand = lambda p: mp.exp(-x * p) * f.value(p)
    edges = [mp.mpf(0)] + [e for loc in locs for e in (loc - w, loc + w)] + [T]
    for a, b in zip(edges[::2], edges[1::2]):
        if a < b:
            pts = _split_span(a, b)
            if a == 0:
                pts[1:1] = _cuts_near_zero(x, pts[1])
            yield integrand, pts, "clenshaw-curtis"
    for s, loc in zip(sings, locs):
        if s.kind == "pole":
            # the principal value as a fold: the pole's +-A/t cancel, so the
            # sum is analytic in t.  Gauss-Legendre keeps its nodes away from
            # t = 0, so the cancellation loses only a few of the guard bits.
            fold = lambda t, loc=loc: integrand(loc - t) + integrand(loc + t)
            yield fold, [0, w], "gauss-legendre"
            continue
        yield integrand, [loc - w, loc], "tanh-sinh"
        yield integrand, [loc, loc + w], "tanh-sinh"


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
    """Edges of equal panels over [a, b]: one per unit of length, at least
    one and at most _SPAN_PANELS."""
    n = min(max(int(mp.ceil((b - a))), 1), _SPAN_PANELS)
    return [a + (b - a) * mp.mpf(i) / n for i in range(n + 1)]


# -- panel quadrature ------------------------------------------------------------

#: The mpmath rules with their highest degree.  Gauss-Legendre node sets grow
#: exponentially with the degree and dominate setup cost; analytic window
#: integrands converge by 6.  Tanh-sinh takes the endpoint singularities.
_NODE_CTX = mp.MPContext()
_RULES = {"tanh-sinh": (TanhSinh(_NODE_CTX), 8), "gauss-legendre": (GaussLegendre(_NODE_CTX), 6)}
_NODE_LOCK = threading.Lock()
#: Intervals at the top level of the nested Clenshaw-Curtis rule, which sums
#: the smooth spans; its levels have n = 2, 4, ..., _CC_TOP intervals.
_CC_TOP = 256


@functools.lru_cache(maxsize=None)
def _standard_nodes(method: str, degree: int, prec: int) -> tuple:
    """The (node, weight) pairs of one degree of a rule on [-1, 1], for sums
    at ``prec`` bits, computed once as mpmath's ``quad`` computes them.

    They are computed in a private context, so no other thread's precision
    can change them, and handed out as mpf of the global context.  The cache
    holds one entry per (rule, degree, precision) in use, as mpmath's own
    node cache does; nothing in it depends on a panel.
    """
    with _NODE_LOCK:
        _NODE_CTX.prec = prec + 20
        nodes = _RULES[method][0].calc_nodes(degree, prec)
    make = mp.mp.make_mpf
    return tuple((make(t._mpf_), make(w._mpf_)) for t, w in nodes)


@functools.lru_cache(maxsize=None)
def _cc_cosines(prec: int) -> tuple:
    """cos(m pi / _CC_TOP), m = 0.._CC_TOP, as fixed-point integers with
    prec + 40 fraction bits, from raw ``libmp`` at an explicit precision.
    One cosine and sine of m pi / _CC_TOP, m <= _CC_TOP/4, give the rest."""
    bits, q = prec + 40, _CC_TOP // 4
    out = [0] * (_CC_TOP + 1)
    for m in range(q + 1):
        c, s = libmp.mpf_cos_sin_pi(libmp.from_rational(m, _CC_TOP, bits), bits + 10)
        out[m], out[2 * q - m] = libmp.to_fixed(c, bits), libmp.to_fixed(s, bits)
    for m in range(2 * q):
        out[_CC_TOP - m] = -out[m]
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _cc_rule(n: int, prec: int) -> tuple:
    """(nodes, weights) of the n-interval Clenshaw-Curtis rule on [-1, 1], for
    sums at ``prec`` bits: nodes cos(j pi/n), j = 0..n, and

        w_j = c_j/n * (1 - sum(b_k cos(2 k j pi/n) / (4k^2 - 1), k = 1..n/2))

    with c_0 = c_n = 1, else 2, and b_(n/2) = 1, else 2 (Waldvogel, BIT 46,
    2006).  The sums run in fixed-point integers with 20 bits beyond the
    node sums' prec + 20, from one table of cosines, so level n's nodes are
    level 2n's even nodes bit for bit.  Nothing reads or writes a context's
    precision; the results are mpf rounded to prec + 20 bits.
    """
    bits = prec + 40
    cos = _cc_cosines(prec)[:: _CC_TOP // n]  # cos(m pi/n), m = 0..n
    period = cos + cos[-2:0:-1]  # cos(m pi/n), m = 0..2n-1
    ks = range(1, n // 2 + 1)
    d = [((1 if k == n // 2 else 2) << bits) // (4 * k * k - 1) for k in ks]
    shift = n.bit_length() - 1  # n = 2^shift
    half = []
    for j in range(n // 2 + 1):
        s = sum(map(operator.mul, d, [period[2 * k * j % (2 * n)] for k in ks]))
        half.append((((1 << bits) - (s >> bits)) << (j > 0)) >> shift)
    weights = half + half[-2::-1]
    make = lambda v: mp.mp.make_mpf(libmp.from_man_exp(v, -bits, prec + 20, libmp.round_nearest))
    return tuple(map(make, cos)), tuple(map(make, weights))


def _cc_levels(fn, half, mid, prec: int):
    """The nested Clenshaw-Curtis levels I_k of integral(fn, mid - half..mid + half).

    Level n's nodes are level 2n's even nodes, so each level keeps the
    values it has and evaluates fn only at its n/2 new odd nodes, starting
    from the two ends."""
    ys = [fn(mid + half), fn(mid - half)]
    n = 2
    while n <= _CC_TOP:
        nodes, weights = _cc_rule(n, prec)
        new = [fn(mid + half * t) for t in nodes[1::2]]
        ys = [y for pair in zip(ys, new) for y in pair] + ys[-1:]
        yield half * mp.fdot(weights, ys)
        n *= 2


def _mpmath_levels(method: str, fn, half, mid, prec: int):
    """The levels of one of mpmath's rules, by rising degree.  A tanh-sinh
    level halves the step, so it adds only the new nodes to half the level
    below; a Gauss-Legendre level is a fresh rule of 3 * 2^(k-1) nodes."""
    level = mp.mpf(0)
    for degree in range(1, _RULES[method][1] + 1):
        s = half * mp.fdot((w, fn(mid + half * t)) for t, w in _standard_nodes(method, degree, prec))
        level = mp.ldexp(s, -degree) + level / 2 if method == "tanh-sinh" else s
        yield level


def _panel(fn, a, b, method: str, eps, prec: int):
    """integral(fn, a..b) by one rule, raising its level until two successive
    levels I_k, I_(k-1) differ by at most eps; |I_k - I_(k-1)| is the error.
    The standard nodes on [-1, 1] are mapped onto [a, b] here."""
    half, mid = (b - a) / 2, (b + a) / 2
    if method == "clenshaw-curtis":
        levels = _cc_levels(fn, half, mid, prec)
    else:
        levels = _mpmath_levels(method, fn, half, mid, prec)
    level = next(levels)
    for nxt in levels:
        prev, level = level, nxt
        if abs(level - prev) <= eps:
            break
    return level, abs(level - prev)


def quad_interval(fn, a, b, prec: int) -> mp.mpf:
    """integral(fn, a..b) of an fn analytic on [a, b], at ``prec`` bits.

    [a, b] is cut as a smooth Laplace span is (``_split_span``), and each
    panel is summed by the nested Clenshaw-Curtis rule until two levels
    differ by at most 2^-prec; fn is evaluated at prec + 20 bits.  Returns
    the value alone: no error estimate comes with it.
    """
    with mp.workprec(prec + 20):
        pts = _split_span(mp.mpf(a), mp.mpf(b))
        eps = mp.ldexp(1, -prec)
        parts = (_panel(fn, lo, hi, "clenshaw-curtis", eps, prec)[0] for lo, hi in zip(pts, pts[1:]))
        return mp.fsum(parts)


# -- Ecalle-Borel summation ------------------------------------------------------


KernelResolver = Callable[[PowerSeries], Optional[KernelEntry]]


def resolve_default(series: PowerSeries) -> KernelEntry:
    """Generic fallback: the exact (11, 11) Pade continuation of the Borel
    transform truncated after p^24.

    Degenerate Pade blocks (rank-deficient Toeplitz systems) are resolved by
    stepping down to the largest solvable balanced table entry.
    """
    from ..errors import DegenerateTableError

    poly = borel_transform(series, 24)
    m = n = 11
    while n >= 1:
        try:
            return KernelEntry(pade_continue(poly, (m, n)), m=0)
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
    else the series' own, else a generic Pade fit), as c x^m L[man P^m K](x):
    the Laplace integral of the kernel's m-fold P-integral, times c x^m.
    Each sum is weighted by its transmonomial.
    """
    cfg = cfg or QuadratureConfig()
    with mp.workdps(cfg.precision):
        x = _c2mp(x) if isinstance(x, Fraction) else mp.mpf(x)
        total = mp.mpf(0)
        err = mp.mpf(0)

        lp = ts.log
        if not lp.is_zero():
            lx = mp.log(x)
            with_log = [_c2mp(c) * x**i * lx for i, c in enumerate(lp.P)]
            for t in with_log + [_c2mp(c) * x**i for i, c in enumerate(lp.Q)]:
                total += t
                # the exact part's rounding (mp.eps is a unit at 1): half a
                # unit of a term for each of c, x^i, log x and the product,
                # and a unit of the running total per addition, half of it
                # spare for adding the groups' sums below
                err += (2 * abs(t) + abs(total)) * mp.eps

        for grp in groups_of(ts):
            series = grp.series
            if series.length == 0:
                continue
            growth = mp.exp(_c2mp(grp.mu) * x)
            if series.is_finite():
                # finite sums are their own Borel sums: e^(mu x) sum(c_l x^(offset - l))
                val = mp.mpf(0)
                for l in range(1, series.length + 1):
                    if c := series.coeff(l):
                        if not x and grp.offset < l:
                            raise DomainError(f"x^({grp.offset - l}) has no value at x = 0")
                        val += _c2mp(c) * x ** _c2mp(grp.offset - l)
                total += growth * val
                continue
            entry = (resolver(series) if resolver is not None else series.kernel) or resolve_default(series)
            # c x^m L[man P^m K](x): the regularized sum of one series
            kernel = entry.kernel.p_integral(entry.m) if entry.m else entry.kernel
            val, lerr = laplace(kernel, x, cfg)
            pre = x ** _c2mp(grp.offset) * growth
            scale = _c2mp(entry.c) * x**entry.m
            term = pre * (scale * val)
            total += term
            err += abs(pre) * (abs(scale) * lerr)
            if getattr(kernel, "laplace", None) is not None:
                # a closed form's error is a rounding bound, so it also takes
                # the move of e^(mu x) when x is off by a rounding
                err += abs(term) * abs(_c2mp(grp.mu) * x) * mp.eps
        return total, err


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
    xs: Sequence[float] = (4.0, 6.0, 8.0, 12.0),
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
        for xv in xs:
            x = mp.mpf(xv)
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
            slope = mp.log(diffs[-1] / diffs[-2]) / mp.log(mp.mpf(xs[-1]) / mp.mpf(xs[-2]))
            report.passed = bool(slope <= -(power - 0.75))
    return report
