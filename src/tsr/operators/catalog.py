"""The worked function catalog: transseries, Borel kernels, oracles.

Each entry pairs a stored transseries (in its critical time) with an
independent high-precision oracle on the reals and an exact derivative
facility for Taylor extensions at finite points.  The Ei and erfi-integral
oracles sum their convergent series, DLMF 6.6.1 and 7.6.4 (O(x) terms for
Ei, O(x^2) for erfi; past the working bits each sums its asymptotic series,
DLMF 6.12.2 and 7.12, instead), and the Airy oracles step y'' = z y by
Taylor series, all in raw ``mpmath.libmp`` arithmetic at an explicit working
precision; none uses quadrature or mpmath's own Ei and erfi, which serve as
references in the tests.  The Borel kernels travel with the series: each
entry is built from the registered ``#name`` series of ``tsr.coefficients``,
whose closed-form kernel its resummation reads.
Entries whose transseries would need an irrational global scale carry it as
a symbolic prefactor; the erfi integral needs none because
Gamma(n+1/2)/(2 sqrt(pi)) is rational.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from math import factorial
from typing import Callable, Optional

import mpmath as mp
from mpmath import libmp

from ..coefficients import named_series, series_name
from ..errors import DomainError
from ..resummation import KernelEntry, QuadratureConfig, eb_sum, resolve_default
from ..stream import Stream
from ..transseries import (
    LogPart,
    PowerSeries,
    TransseriesT1,
    from_minus_term,
    from_plus_term,
    assemble,
)
from ..transseries.grid import Group, groups_of
from .prefactor import Prefactor

TaylorTerm = tuple  # ("exact", Prefactor, Fraction) | ("num", mpf)


@dataclass
class CatalogFunction:
    name: str
    transseries: Optional[TransseriesT1]
    oracle: Callable
    taylor_term: Callable  # (x0, k) -> TaylorTerm; x0 Fraction or mpf
    crit_coef: Fraction = Fraction(1)
    crit_power: Fraction = Fraction(1)
    prefactor: Prefactor = field(default_factory=Prefactor.one)
    ln2pi_coef: Fraction = Fraction(0)
    domain_c: Optional[float] = None
    tolerance: float = 1e-10
    exact_value: Optional[Callable] = None  # x0 -> (Prefactor, Fraction) | None
    antiderivative: Optional[Callable[[], CatalogFunction]] = None  # the stored A_No of this entry
    reflected_name: Optional[str] = None
    compose_exp_of: Optional[str] = None  # entry computed as exp(other entry)
    taylor_degree: Optional[int] = None  # every Taylor series ends at this degree (polynomials)

    # -- numerics ---------------------------------------------------------

    def resolver(self, series: PowerSeries) -> KernelEntry:
        """The series' kernel, or a Pade fit without one (``eb_sum`` sums a
        finite series itself and never asks)."""
        return series.kernel or resolve_default(series)

    def critical_time(self, x):
        return (
            mp.mpf(self.crit_coef.numerator)
            / self.crit_coef.denominator
            * mp.mpf(x) ** (mp.mpf(self.crit_power.numerator) / self.crit_power.denominator)
        )

    def eb_value(self, x, cfg: QuadratureConfig = None):
        """Resummation-side value: prefactor * eb_sum at the critical time."""
        cfg = cfg or QuadratureConfig()
        if self.compose_exp_of is not None:
            base = catalog()[self.compose_exp_of]
            inner, err = base.eb_value(x, cfg)
            with mp.workdps(cfg.precision):
                val = mp.exp(inner)
                return val, abs(val) * err
        with mp.workdps(cfg.precision):
            t = self.critical_time(x)
            val, err = eb_sum(self.transseries, t, cfg, resolver=self.resolver)
            scale = self.prefactor.numeric()
            out = scale * val
            if self.ln2pi_coef:
                out += mp.mpf(self.ln2pi_coef.numerator) / self.ln2pi_coef.denominator * mp.log(2 * mp.pi)
            return out, abs(scale) * err

    def check_domain(self, x):
        """Raise DomainError unless x (an mpf or an exact Fraction) lies in the domain."""
        if self.domain_c is not None and not x > self.domain_c:
            raise DomainError(f"{self.name} is defined on ({self.domain_c}, oo); got {x}")


# -- oracles --------------------------------------------------------------------
#
# The Ei, erfi-integral and Airy oracles sum convergent series in raw
# ``mpmath.libmp`` arithmetic at an explicit working precision, the caller's
# ``mp.mp.prec`` plus guard bits, and round once to the caller's precision.
# They never write the global precision and keep no memo, so threads may call
# them at once.

_GUARD = 20  # bits above the caller's precision
_RND = libmp.round_nearest


def _mag(v) -> int:
    """e with |v| < 2^e for a raw mpf; a very small number for zero."""
    return v[2] + v[3] if v[1] else -(1 << 62)


def _series(first, step, k, weight, wp):
    """sum(p_j / weight(j), j >= k) with p_k = first and p_j = p_(j-1) * step / j.

    The terms share one sign; the sum stops at the first term that no longer
    changes it (each term past the peak is far below the previous one).
    """
    p = first
    total = libmp.mpf_div(p, libmp.from_int(weight(k)), wp)
    while True:
        k += 1
        p = libmp.mpf_div(libmp.mpf_mul(p, step, wp), libmp.from_int(k), wp)
        new = libmp.mpf_add(total, libmp.mpf_div(p, libmp.from_int(weight(k)), wp), wp)
        if new == total:
            return total
        total = new


def ei_oracle(x):
    """Ei(x) = gamma + ln x + sum(x^k / (k k!), k >= 1) for x > 0 (DLMF 6.6.1).

    O(x) terms.  Near the zero of Ei (x = 0.3725...) the three parts cancel;
    the sum is redone with as many more bits as the cancellation took.  Past
    x = wp, the working bits, the asymptotic series takes over (see
    ``_ei_asymptotic``), so the work stays bounded at any x.
    """
    x = mp.mpf(x)
    if x <= 0:
        raise DomainError("Ei oracle implemented for x > 0")
    prec, v = mp.mp.prec, x._mpf_
    wp = prec + _GUARD
    if x > wp:
        return mp.make_mpf(libmp.mpf_pos(_ei_asymptotic(v, wp), prec, _RND))
    while True:
        parts = (libmp.mpf_euler(wp), libmp.mpf_log(v, wp), _series(v, v, 1, lambda k: k, wp))
        out = libmp.mpf_add(libmp.mpf_add(parts[0], parts[1], wp), parts[2], wp)
        lost = max(map(_mag, parts)) - _mag(out)
        if wp - lost >= prec + _GUARD // 2:
            return mp.make_mpf(libmp.mpf_pos(out, prec, _RND))
        wp = prec + _GUARD + lost


def _ei_asymptotic(v, wp):
    """Ei(x) = e^x / x * sum(k! / x^k, k >= 0) for x > wp (DLMF 6.12.2).

    The terms fall while k < x, to about e^-x sqrt(2 pi x) at k = x, which
    for x > wp is far below 2^-wp; the sum stops at the first term below
    2^-wp of it.
    """
    term = total = libmp.fone
    k = 0
    while _mag(term) > _mag(total) - wp:
        k += 1
        term = libmp.mpf_div(libmp.mpf_mul_int(term, k, wp), v, wp)
        total = libmp.mpf_add(total, term, wp)
    return libmp.mpf_div(libmp.mpf_mul(libmp.mpf_exp(v, wp), total, wp), v, wp)


def erfi_integral_oracle(x):
    """integral(e^(s^2), s = 0..x) = sum(x^(2k+1) / (k! (2k+1)), k >= 0) (DLMF 7.6.4).

    Every term has the sign of x; O(x^2) terms.  Past x^2 = wp, the working
    bits, the asymptotic series takes over (see ``_erfi_integral_asymptotic``),
    so the work stays bounded at any x.
    """
    x = mp.mpf(x)
    prec, v = mp.mp.prec, x._mpf_
    wp = prec + _GUARD
    x2 = libmp.mpf_mul(v, v)  # exact
    if libmp.mpf_gt(x2, libmp.from_int(wp)):
        return mp.make_mpf(libmp.mpf_pos(_erfi_integral_asymptotic(v, x2, wp), prec, _RND))
    total = _series(v, libmp.mpf_mul(v, v, wp), 0, lambda k: 2 * k + 1, wp)
    return mp.make_mpf(libmp.mpf_pos(total, prec, _RND))


def _erfi_integral_asymptotic(v, x2, wp):
    """e^(x^2) / (2x) * sum((2k-1)!! / (2x^2)^k, k >= 0) for x^2 = ``x2`` > wp,
    x2 exact (Dawson's integral, DLMF 7.12).

    The terms fall to about e^-(x^2) at k = x^2, far below 2^-wp; the sum
    stops at the first term below 2^-wp of it.
    """
    two_x2 = libmp.mpf_shift(x2, 1)
    term = total = libmp.fone
    k = 0
    while _mag(term) > _mag(total) - wp:
        k += 1
        term = libmp.mpf_div(libmp.mpf_mul_int(term, 2 * k - 1, wp), two_x2, wp)
        total = libmp.mpf_add(total, term, wp)
    return libmp.mpf_div(libmp.mpf_mul(libmp.mpf_exp(x2, wp), total, wp), libmp.mpf_shift(v, 1), wp)


def _airy_series_step(y0, y1, z0, h, wp):
    """Taylor step for y'' = z y from z0 to z0 + h, raw mpf at wp bits.

    The coefficients c_(n+2) = (z0 c_n + c_(n-1)) / ((n+1)(n+2)) are taken
    until two successive terms c_n h^n fall below 2^-wp of the step's scale
    |y0| + |h y1|; value and derivative are then summed by Horner.
    """
    lh = math.log2(h[1]) + h[2]  # log2 |h|
    floor = max(_mag(y0), _mag(y1) + lh) - wp
    c = [y0, y1]
    small = 0
    while small < 2:
        n = len(c) - 2
        prev = c[n - 1] if n >= 1 else libmp.fzero
        nxt = libmp.mpf_add(libmp.mpf_mul(z0, c[n], wp), prev, wp)
        c.append(libmp.mpf_div(nxt, libmp.from_int((n + 1) * (n + 2)), wp))
        small = small + 1 if _mag(c[-1]) + (n + 2) * lh < floor else 0
    val = dval = libmp.fzero
    for n in reversed(range(len(c))):
        val = libmp.mpf_add(libmp.mpf_mul(val, h, wp), c[n], wp)
        if n >= 1:
            dval = libmp.mpf_add(libmp.mpf_mul(dval, h, wp), libmp.mpf_mul_int(c[n], n, wp), wp)
    return val, dval


def _airy_at_zero(kind: str, wp):
    """(y(0), y'(0)) of Ai or Bi as raw mpf at wp bits (DLMF 9.2.3-9.2.6)."""
    cbrt3 = libmp.mpf_cbrt(libmp.from_int(3), wp)
    g13 = libmp.mpf_gamma(libmp.from_rational(1, 3, wp), wp)
    g23 = libmp.mpf_gamma(libmp.from_rational(2, 3, wp), wp)
    if kind == "ai":  # 3^(-2/3) / Gamma(2/3), -3^(-1/3) / Gamma(1/3)
        y = libmp.mpf_div(libmp.fone, libmp.mpf_mul(libmp.mpf_mul(cbrt3, cbrt3, wp), g23, wp), wp)
        return y, libmp.mpf_neg(libmp.mpf_div(libmp.fone, libmp.mpf_mul(cbrt3, g13, wp), wp))
    root6 = libmp.mpf_sqrt(cbrt3, wp)  # 3^(-1/6) / Gamma(2/3), 3^(1/6) / Gamma(1/3)
    return libmp.mpf_div(libmp.fone, libmp.mpf_mul(root6, g23, wp), wp), libmp.mpf_div(root6, g13, wp)


def _airy_pair(kind: str, z):
    """(y, y') for Ai or Bi at real z, by Taylor-series ODE integration from 0.

    Steps of at most 1/2.  Ai is the recessive solution for z > 0: stepping it
    forward loses about 2 zeta log2(e) bits, zeta = 2/3 z^(3/2), so those bits
    are added to the working precision.
    """
    z = mp.mpf(z)
    prec, target = mp.mp.prec, z._mpf_
    wp = prec + _GUARD
    if kind == "ai" and z > 0:
        wp += math.ceil(4 * float(z) ** 1.5 / (3 * math.log(2)))
    y, dy = _airy_at_zero(kind, wp)
    z0, half = libmp.fzero, libmp.from_rational(1, 2, 2)
    while z0 != target:
        h = libmp.mpf_sub(target, z0)  # exact: z0 is a multiple of 1/2
        if libmp.mpf_gt(libmp.mpf_abs(h), half):
            h = half if h[0] == 0 else libmp.mpf_neg(half)
        y, dy = _airy_series_step(y, dy, z0, h, wp)
        z0 = libmp.mpf_add(z0, h)
    return mp.make_mpf(libmp.mpf_pos(y, prec, _RND)), mp.make_mpf(libmp.mpf_pos(dy, prec, _RND))


def airy_ai_oracle(z):
    return _airy_pair("ai", z)[0]


def airy_bi_oracle(z):
    return _airy_pair("bi", z)[0]


def loggamma_oracle(x):
    x = mp.mpf(x)
    if x <= 0:
        raise DomainError("log Gamma oracle needs x > 0")
    return mp.loggamma(x)


def gamma_oracle(x):
    return mp.gamma(mp.mpf(x))


# -- derivative facilities --------------------------------------------------------


def _to_mpf(x0):
    """x0 at the working precision; a Fraction converts exactly (no float)."""
    if isinstance(x0, Fraction):
        return mp.mpf(x0.numerator) / x0.denominator
    return mp.mpf(x0)


def term_value(t: TaylorTerm):
    """A Taylor term as a number at the working precision."""
    if t[0] == "num":
        return t[1]
    return t[1].numeric() * mp.mpf(t[2].numerator) / t[2].denominator


def _laurent_diff(q: dict) -> dict:
    """d/dx of sum(c_j x^j) as a sparse dict."""
    out = {}
    for j, c in q.items():
        if j != 0:
            out[j - 1] = out.get(j - 1, Fraction(0)) + j * c
    return out


def _laurent_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for j, c in b.items():
        out[j] = out.get(j, Fraction(0)) + c
    return {j: c for j, c in out.items() if c}


def _laurent_mul(a: dict, b: dict) -> dict:
    out = {}
    for i, c in a.items():
        out = _laurent_add(out, {i + j: c * d for j, d in b.items()})
    return out


def _laurent_eval(q: dict, x0):
    total = Fraction(0) if isinstance(x0, Fraction) else mp.mpf(0)
    for j, c in q.items():
        cc = c if isinstance(x0, Fraction) else mp.mpf(c.numerator) / c.denominator
        total += cc * x0**j
    return total


def exp_poly_taylor(phi: dict, q0: dict) -> Callable:
    """Taylor facility of f = e^phi * q0, phi a polynomial and q0 a Laurent one.

    f^(k) = e^phi * q_k with q_(k+1) = q_k' + phi' * q_k.  A term is exact at
    a Fraction x0 unless x0 = 0 and q_k has a negative power.
    """
    dphi = _laurent_diff(phi)

    def polys():
        q = q0
        while True:
            yield q
            q = _laurent_add(_laurent_diff(q), _laurent_mul(dphi, q))

    qs = Stream(polys)

    def taylor(x0, k) -> TaylorTerm:
        q = qs[k]
        if isinstance(x0, Fraction) and (x0 != 0 or min(q, default=0) >= 0):
            return ("exact", Prefactor.of(1, e=_laurent_eval(phi, x0)), _laurent_eval(q, x0) / factorial(k))
        x = _to_mpf(x0)
        return ("num", mp.exp(_laurent_eval(phi, x)) * _laurent_eval(q, x) / mp.factorial(k))

    return taylor


def shifted_taylor(derivative: Callable, oracle: Callable, exact_value: Optional[Callable]) -> Callable:
    """Taylor facility of an antiderivative F from that of F' (a shift by one).

    F^(k)(x0)/k! = (F')^(k-1)(x0)/(k-1)! / k for k >= 1; F(x0) itself is
    ``exact_value`` where that gives a value, else the oracle.
    """

    def taylor(x0, k) -> TaylorTerm:
        if k == 0:
            hit = exact_value(x0) if exact_value is not None and isinstance(x0, Fraction) else None
            return ("exact", *hit) if hit is not None else ("num", oracle(_to_mpf(x0)))
        t = derivative(x0, k - 1)
        if t[0] == "exact":
            return ("exact", t[1], t[2] / k)
        return ("num", t[1] / k)

    return taylor


def _airy_taylor(kind: str):
    # y^(k) = a_k y + b_k y' with a_(k+1) = a_k' + z b_k, b_(k+1) = a_k + b_k'
    def pairs():
        a, b = {0: Fraction(1)}, {}
        while True:
            yield a, b
            zb = {j + 1: c for j, c in b.items()}
            a, b = _laurent_add(_laurent_diff(a), zb), _laurent_add(a, _laurent_diff(b))

    ab = Stream(pairs)

    def taylor(x0, k) -> TaylorTerm:
        a, b = ab[k]
        x = _to_mpf(x0)
        y, dy = _airy_pair(kind, x)
        return ("num", (_laurent_eval(a, x) * y + _laurent_eval(b, x) * dy) / mp.factorial(k))

    return taylor


def _loggamma_taylor(x0, k) -> TaylorTerm:
    x0m = _to_mpf(x0)
    if k == 0:
        return ("num", loggamma_oracle(x0m))
    return ("num", mp.psi(k - 1, x0m) / mp.factorial(k))


def exp_of_taylor(inner: Callable, oracle: Callable) -> Callable:
    """Taylor facility of f = e^g from the numeric one of g and f's oracle.

    With l_j = g^(j)(x0)/j!, f(x0 + h)/f(x0) = exp(sum_(j>=1) l_j h^j) has
    coefficients b_0 = 1, b_n = (1/n) sum_(j=1..n) j l_j b_(n-j).  The terms
    at one (x0, precision) are one Stream, so term k computes only l_k; the
    streams of the last few points are kept.
    """

    @functools.lru_cache(maxsize=8)
    def terms(x0, prec) -> Stream:
        x = _to_mpf(x0)

        def gen():
            fx, ls, bs = oracle(x), [], [mp.mpf(1)]
            yield fx
            for n in count(1):
                ls.append(inner(x, n)[1])
                bs.append(mp.fsum(j * ls[j - 1] * bs[n - j] for j in range(1, n + 1)) / n)
                yield fx * bs[n]

        return Stream(gen)

    return lambda x0, k: ("num", terms(x0, mp.mp.prec)[k])


# -- entry construction ------------------------------------------------------------


def _exp_entry() -> CatalogFunction:
    ts = from_plus_term(1, 1, PowerSeries.from_coeffs([Fraction(1)]))
    return CatalogFunction(
        name="exp",
        transseries=ts,
        oracle=lambda x: mp.exp(mp.mpf(x)),
        taylor_term=exp_poly_taylor({1: Fraction(1)}, {0: Fraction(1)}),
        domain_c=None,
        tolerance=1e-24,
        exact_value=lambda q: (Prefactor.of(1, e=q), Fraction(1)),
        antiderivative=lambda: catalog()["exp"],
        reflected_name="exp_neg",
    )


def _exp_neg_entry() -> CatalogFunction:
    ts = from_minus_term(1, 1, PowerSeries.from_coeffs([Fraction(1)]))
    return CatalogFunction(
        name="exp_neg",
        transseries=ts,
        oracle=lambda x: mp.exp(-mp.mpf(x)),
        taylor_term=exp_poly_taylor({1: Fraction(-1)}, {0: Fraction(1)}),
        domain_c=None,
        tolerance=1e-24,
        exact_value=lambda q: (Prefactor.of(1, e=-q), Fraction(1)),
    )


def _ei_integrand_entry() -> CatalogFunction:
    ts = from_plus_term(1, 0, PowerSeries.from_coeffs([Fraction(1)]))
    return CatalogFunction(
        name="ei_integrand",
        transseries=ts,
        oracle=lambda x: mp.exp(mp.mpf(x)) / mp.mpf(x),
        taylor_term=exp_poly_taylor({1: Fraction(1)}, {-1: Fraction(1)}),
        domain_c=0.0,
        tolerance=1e-24,
        antiderivative=lambda: catalog()["ei"],
    )


def _ei_entry() -> CatalogFunction:
    ts = from_plus_term(1, 0, named_series("ei"))
    return CatalogFunction(
        name="ei",
        transseries=ts,
        oracle=ei_oracle,
        taylor_term=shifted_taylor(_ei_integrand_entry().taylor_term, ei_oracle, None),
        domain_c=0.0,
        tolerance=1e-10,
    )


def _erfi_integrand_entry() -> CatalogFunction:
    ts = from_plus_term(1, 1, PowerSeries.from_coeffs([Fraction(1)]))
    return CatalogFunction(
        name="erfi_integrand",
        transseries=ts,
        crit_power=Fraction(2),
        oracle=lambda x: mp.exp(mp.mpf(x) ** 2),
        taylor_term=exp_poly_taylor({2: Fraction(1)}, {0: Fraction(1)}),
        domain_c=None,
        tolerance=1e-24,
        antiderivative=lambda: catalog()["erfi_integral"],
    )


def _erfi_integral_entry() -> CatalogFunction:
    ts = from_plus_term(1, Fraction(1, 2), named_series("erfi"))
    at_zero = lambda q: (Prefactor.one(), Fraction(0)) if q == 0 else None  # noqa: E731
    return CatalogFunction(
        name="erfi_integral",
        transseries=ts,
        crit_power=Fraction(2),
        oracle=erfi_integral_oracle,
        taylor_term=shifted_taylor(_erfi_integrand_entry().taylor_term, erfi_integral_oracle, at_zero),
        domain_c=None,
        tolerance=1e-12,
        exact_value=at_zero,
    )


def _airy_entry(kind: str) -> CatalogFunction:
    series = named_series("airy_u_alt" if kind == "ai" else "airy_u")
    if kind == "ai":
        ts = from_minus_term(1, Fraction(5, 6), series)
        pref = Prefactor.of(Fraction(1, 2), pi=Fraction(-1, 2)) * Prefactor.rational_power(
            Fraction(2, 3), Fraction(1, 6)
        )
        oracle = airy_ai_oracle
    else:
        ts = from_plus_term(1, Fraction(5, 6), series)
        pref = Prefactor.of(1, pi=Fraction(-1, 2)) * Prefactor.rational_power(Fraction(2, 3), Fraction(1, 6))
        oracle = airy_bi_oracle
    return CatalogFunction(
        name=f"airy_{kind}",
        transseries=ts,
        crit_coef=Fraction(2, 3),
        crit_power=Fraction(3, 2),
        prefactor=pref,
        oracle=oracle,
        taylor_term=_airy_taylor(kind),
        domain_c=None,
        tolerance=2e-6 if kind == "bi" else 1e-8,
    )


def _loggamma_entry() -> CatalogFunction:
    ts = assemble(
        [Group(Fraction(0), Fraction(0), named_series("stirling"))],
        LogPart(P=(Fraction(-1, 2), Fraction(1)), Q=(Fraction(0), Fraction(-1))),
    )
    return CatalogFunction(
        name="loggamma",
        transseries=ts,
        ln2pi_coef=Fraction(1, 2),
        oracle=loggamma_oracle,
        taylor_term=_loggamma_taylor,
        domain_c=0.0,
        tolerance=1e-10,
    )


def _gamma_entry() -> CatalogFunction:
    return CatalogFunction(
        name="gamma",
        transseries=None,
        oracle=gamma_oracle,
        taylor_term=exp_of_taylor(_loggamma_taylor, gamma_oracle),
        domain_c=0.0,
        tolerance=1e-10,
        compose_exp_of="loggamma",
    )


def monomial_entry(n: int, c: Fraction = Fraction(1)) -> CatalogFunction:
    """c x^n as a catalog entry (polynomials live in the log part's Q)."""
    if n < 0:
        raise ValueError("use series entries for inverse powers")
    c = Fraction(c)
    Q = tuple(Fraction(0) for _ in range(n)) + (c,)
    ts = assemble([], LogPart(Q=Q))
    return CatalogFunction(
        name=f"monomial_{n}" if c == 1 else f"{c}*monomial_{n}",
        transseries=ts,
        oracle=lambda x: mp.mpf(x) ** n * c.numerator / c.denominator,
        taylor_term=exp_poly_taylor({}, {n: c}),
        domain_c=None,
        tolerance=1e-24,
        exact_value=lambda q: (Prefactor.one(), q**n * c),
        antiderivative=lambda: monomial_entry(n + 1, c / (n + 1)),
        taylor_degree=n,
    )


def _exp_neg_over_x_entry() -> CatalogFunction:
    ts = from_minus_term(1, 0, PowerSeries.from_coeffs([Fraction(1)]))
    return CatalogFunction(
        name="exp_neg_over_x",
        transseries=ts,
        oracle=lambda x: mp.exp(-mp.mpf(x)) / mp.mpf(x),
        taylor_term=exp_poly_taylor({1: Fraction(-1)}, {-1: Fraction(1)}),
        domain_c=0.0,
        tolerance=1e-24,
    )


_CATALOG: Optional[dict[str, CatalogFunction]] = None
_CATALOG_LOCK = threading.Lock()


def catalog() -> dict[str, CatalogFunction]:
    """The immutable registry of worked functions, built once per process:
    threads that ask at once wait for the one that builds it, because the
    entries' antiderivatives refer to one registry by identity."""
    global _CATALOG
    if _CATALOG is None:
        with _CATALOG_LOCK:
            if _CATALOG is None:
                entries = [
                    _exp_entry(),
                    _exp_neg_entry(),
                    _ei_integrand_entry(),
                    _ei_entry(),
                    _erfi_integrand_entry(),
                    _erfi_integral_entry(),
                    _airy_entry("ai"),
                    _airy_entry("bi"),
                    _loggamma_entry(),
                    _gamma_entry(),
                    _exp_neg_over_x_entry(),
                ]
                _CATALOG = {e.name: e for e in entries}
    return _CATALOG


def catalog_manifest() -> dict:
    """JSON-ready manifest: per entry the kernels, their growth constants
    (c1, c3), with which ``laplace`` bounds the tail, and the tolerances."""
    from ..transseries import ts_to_json

    out = {}
    for name, e in catalog().items():
        named = {series_name(g.series): g.series.kernel for g in groups_of(e.transseries)} if e.transseries else {}
        named.pop(None, None)
        out[name] = {
            "transseries": ts_to_json(e.transseries) if e.transseries is not None else None,
            "critical_time": {"coef": str(e.crit_coef), "power": str(e.crit_power)},
            "prefactor": e.prefactor.render(),
            "ln2pi_coef": str(e.ln2pi_coef),
            "kernels": {k: type(v.kernel).__name__ for k, v in named.items()},
            "regularization_m": {k: v.m for k, v in named.items()},
            "growth": {k: list(v.kernel.growth) for k, v in named.items()},
            "domain_c": e.domain_c,
            "tolerance": e.tolerance,
            "composes": e.compose_exp_of,
        }
    return out
