"""The worked function catalog: transseries, Borel kernels, oracles.

Each entry pairs a stored transseries (in its critical time) with an
independent high-precision oracle on the reals and an exact derivative
facility for Taylor extensions at finite points.  The elementary entries
c x^n e^(mu x^p) (exp, exp_neg, the Ei and erfi integrands, exp_neg_over_x
and the monomials) come from one builder, ``elementary_entry``, which
derives all three from phi = mu x^p and q = c x^n.  The Ei and
erfi-integral entries shift their integrand entry's Taylor facility, and
their oracles sum the convergent series, DLMF 6.6.1 and 7.6.4 (O(x) terms for
Ei, O(x^2) for erfi; past the working bits each sums its asymptotic series,
DLMF 6.12.2 and 7.12, instead), and the Airy oracles sum their Maclaurin
series (DLMF 9.4, O(|z|^(3/2)) terms), all in integers and raw
``mpmath.libmp`` arithmetic at an explicit working precision; none uses
quadrature or mpmath's own Ei, erfi or Airy functions, which serve as
references in the tests.  The log Gamma Taylor terms k >= 1, which Gamma's
share, are rows 1..K of the shifted Euler-Maclaurin sum whose row 0 is
Binet's function, the Borel sum of ``#stirling`` (``special.loggamma_taylor``
and ``special.binet``); term 0 of each, the log Gamma and Gamma oracles,
stays mpmath's loggamma and gamma, so that the oracles check both rows
independently.  The Borel
kernels travel with the series: each entry is built from the registered
``#name`` series of ``tsr.coefficients``, whose closed-form kernel its resummation reads.
Entries whose transseries would need an irrational global scale carry it as
a symbolic prefactor; the erfi integral needs none because
Gamma(n+1/2)/(2 sqrt(pi)) is rational.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import count, islice
from math import factorial
from typing import Callable, Optional

import mpmath as mp
from mpmath import libmp

from ..coefficients import named_multiple, named_series
from ..errors import DomainError
from ..resummation import KernelEntry, QuadratureConfig, eb_sum, resolve_default, special
from ..resummation.laplace import _exp_rate
from ..resummation.kernels import _ball, _c2mp, _exp, _interval, _rounded
from ..stream import Stream
from ..transseries import LogPart, PowerSeries, TransseriesT1, assemble, ts_to_json
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

    def critical_time(self, x, prec: int):
        """t = crit_coef * x^crit_power, exact for an integer power: a Fraction,
        or a binary x's binary power.  Airy's (2/3) x^(3/2) is rounded once, 30
        bits past ``prec`` and t's integer bits: its sum moves by at most
        2t + 2 units per unit of t (``AiryKernel.laplace``), so by under
        2^-20 units, and ``eb_value`` pays one.  A power other than 1 needs
        x >= 0.  No context precision is read or set."""
        c, p = self.crit_coef, self.crit_power
        if p != 1 and x < 0:
            raise DomainError(f"{self.name}: its transseries in t = {c} x^{p} holds for x > 0 only; got {x}")
        if p.denominator == 1:
            if isinstance(x, (int, Fraction)):
                return c * Fraction(x) ** int(p)
            t = functools.reduce(libmp.mpf_mul, [_interval(x, 53)[0]] * int(p))  # exact
            return mp.make_mpf(t) if c == 1 else c * Fraction(*libmp.to_rational(t))
        wp = prec + 30 + max(math.ceil(p * special.mag(_interval(x, 53)[1])), 0)
        near = lambda q: libmp.from_rational(q.numerator, q.denominator, wp, _RND)  # noqa: E731
        xp = libmp.mpf_pow(near(Fraction(x)) if isinstance(x, Fraction) else _interval(x, wp)[0], near(p), wp, _RND)
        return mp.make_mpf(libmp.mpf_mul(near(c), xp, wp, _RND))

    def eb_value(self, x, cfg: QuadratureConfig = None):
        """Resummation-side value: prefactor * eb_sum at the critical time.

        The value is one raw interval at ``GUARD`` bits past the precision:
        the ball of ``eb_sum``'s value and error times the prefactor's
        enclosure, plus that of ln(2 pi) times its coefficient, or e to the
        ball of the entry it is the exponential of.  Returns its midpoint
        rounded to the precision and its radius plus that rounding.  No
        context precision is read or set."""
        cfg = cfg or QuadratureConfig()
        prec = libmp.dps_to_prec(cfg.precision)
        wp = prec + special.GUARD
        if self.compose_exp_of is not None:
            # e^y moves by a factor e^d when y does by d: y = ln Gamma(x) is
            # summed and enclosed its integer bits past the precision
            e = special.mag(_interval(x, 53)[1])
            bits = max(e, 0) + (abs(e) + 2).bit_length()  # |ln Gamma(x)| < 2^bits
            inner = catalog()[self.compose_exp_of].eb_value(x, replace(cfg, precision=cfg.precision + bits // 3 + 1))
            return _rounded(_exp(_ball(*inner, wp + bits), wp), prec)
        val = eb_sum(self.transseries, self.critical_time(x, prec), cfg, resolver=self.resolver)
        out = libmp.mpi_mul(self.prefactor.enclosure(wp), _ball(*val, wp), wp)
        if self.ln2pi_coef:
            out = libmp.mpi_add(out, Prefactor.of(self.ln2pi_coef, ln2pi=1).enclosure(wp), wp)
        val, err = _rounded(out, prec)
        if self.crit_power.denominator != 1:
            # a unit for the rounding of t, see ``critical_time``
            err = mp.make_mpf(libmp.mpf_add(err._mpf_, libmp.mpf_shift(libmp.mpf_abs(val._mpf_), 1 - prec), 53, libmp.round_up))
        return val, err

    def check_domain(self, x):
        """Raise DomainError unless x (an mpf or an exact Fraction) lies in the domain."""
        if self.domain_c is not None and not x > self.domain_c:
            raise DomainError(f"{self.name} is defined on ({self.domain_c}, oo); got {x}")


# -- oracles --------------------------------------------------------------------
#
# The Ei, erfi-integral and Airy oracles sum convergent series in integers
# and raw ``mpmath.libmp`` arithmetic at an explicit working precision, the
# caller's ``mp.mp.prec`` plus guard bits, and round once to the caller's
# precision.
# They never write the global precision, so threads may call them at once;
# the memos, Airy's (y, y') per (kind, point, precision) and the log Gamma
# Taylor terms per (point, precision, count), are bounded
# ``functools.lru_cache``s of immutable values.  The Ei and erfi-integral
# series live in ``tsr.resummation.special``, which the closed-form Laplace
# transforms share.  Every oracle reads its point through ``_c2mp``, so a
# Fraction is its quotient at the working precision, as an mpf point is.

_RND = libmp.round_nearest


def ei_oracle(x):
    """Ei(x) for x > 0 (DLMF 6.6.1, and 6.12.2 past the working bits)."""
    x = _c2mp(x)
    if x <= 0:
        raise DomainError("Ei oracle implemented for x > 0")
    prec = mp.mp.prec
    return mp.make_mpf(libmp.mpf_pos(special.ei(x._mpf_, prec), prec, _RND))


def erfi_integral_oracle(x):
    """integral(e^(s^2), s = 0..x) (DLMF 7.6.4, and 7.12 past the working bits)."""
    x = _c2mp(x)
    prec = mp.mp.prec
    return mp.make_mpf(libmp.mpf_pos(special.erfi_integral(x._mpf_, prec), prec, _RND))


def _airy_coeffs(y0, y1, z0, wp):
    """The Taylor coefficients c_0, c_1, ... at z0 of the solution of
    y'' = z y with y(z0) = y0 and y'(z0) = y1, as raw mpf at wp bits:
    c_(n+2) = (z0 c_n + c_(n-1)) / ((n+1)(n+2)), with c_(-1) = 0."""
    prev, c, nxt = libmp.fzero, y0, y1  # c_(n-1), c_n, c_(n+1)
    for n in count():
        yield c
        step = libmp.mpf_add(libmp.mpf_mul(z0, c, wp), prev, wp)
        prev, c, nxt = c, nxt, libmp.mpf_div(step, libmp.from_int((n + 1) * (n + 2)), wp)


def _airy_at_zero(kind: str, wp):
    """(y(0), y'(0)) of Ai or Bi as raw mpf at wp bits (DLMF 9.2.3-9.2.6): Ai(0) =
    3^(-1/6) g / (2 pi), Ai'(0) = -3^(-1/3) / g and Bi = sqrt(3) (Ai, -Ai') at 0, where
    g = Gamma(1/3), from the AGM (``special.gamma_third``)."""
    sqrt3, cbrt3 = libmp.mpf_sqrt(libmp.from_int(3), wp), libmp.mpf_cbrt(libmp.from_int(3), wp)
    two_pi = libmp.mpf_shift(libmp.mpf_pi(wp), 1)
    g = special.gamma_third(wp)
    scale = sqrt3 if kind == "bi" else libmp.fone
    y = libmp.mpf_div(libmp.mpf_mul(scale, g), libmp.mpf_mul(libmp.mpf_sqrt(cbrt3, wp), two_pi, wp), wp)
    dy = libmp.mpf_div(scale, libmp.mpf_mul(cbrt3, g, wp), wp)
    return y, dy if kind == "bi" else libmp.mpf_neg(dy)


#: Work bound of the Airy Maclaurin sum: its terms (``_airy_terms``) times
#: (working bits + 8192), 8192 bits standing for a term's fixed cost in
#: Python.  2^30 is at most about a quarter second on a 2-vCPU VM at any
#: precision for a z of a short mantissa (0.15 s for Ai(440) at 15 digits,
#: 0.22 s for Ai(140) at 10000); a z of a full mantissa makes every step a
#: product of two wp-bit numbers (2.4 s for Ai(10 pi) at 10000 digits).  At
#: 15 digits it admits Ai(z) for -570 < z < 440 and Bi(z) for -570 < z <
#: 1300, at 10000 digits Ai(z) for -160 < z < 145.
_AIRY_MAX_WORK = 1 << 30


def _airy_terms(zeta: float, wp: int) -> float:
    """About how many coefficients the Maclaurin sum takes at zeta: 3k,
    where its k-th nonzero term, about (e zeta / (2k))^(2k), falls to
    2^-wp, so 2k = x zeta with x (ln x - 1) = wp ln 2 / zeta, solved by
    Newton's method from above (within 0.3% of the counts at 15 to 1000
    digits, |z| from 10 to 500)."""
    r = wp * math.log(2) / zeta
    x = r + math.e
    for _ in range(4):
        x -= (x * math.log(x) - x - r) / math.log(x)
    return 1.5 * x * zeta


@functools.lru_cache(maxsize=64)
def _airy_raw(kind: str, z, prec: int):
    """(y, y') of Ai or Bi at a raw z as unrounded raw mpf, good to about
    prec + GUARD bits: the Maclaurin series at 0 (DLMF 9.4.1-9.4.2) as two
    term recurrences in z^3,

        y = y0 f + y1 g,  f = sum(a_k),  a_0 = 1,  a_k = a_(k-1) z^3 / ((3k-1) 3k),
        y' = (y0 f_1 + y1 g_1) / z,  g = sum(b_k),  b_0 = z,  b_k = b_(k-1) z^3 / (3k (3k+1)),

    with f_1 = sum(3k a_k) and g_1 = sum((3k+1) b_k), (y0, y1) the values at 0.

    The terms grow until 9k^2 is about |z|^3, to about e^zeta, zeta = 2/3
    |z|^(3/2), below 2^zb with zb = ceil(zeta log2(e)), and cancel to the
    value: by 2 zeta log2(e) bits for Ai at z > 0, by zeta log2(e) bits at
    z < 0 and not at all for Bi at z > 0.  Those bits are added to wp, the
    working precision.  z^3 is z's mantissa cubed, exact up to wp + 8 bits
    and floored to them past that (a z with a long mantissa).  Each term is
    an integer mantissa of wp + 8 bits with its own binary exponent: a step
    multiplies it by z^3's mantissa, shifts it up or down so that the
    quotient by (3k-1) 3k, or 3k (3k+1), has wp + 8 bits again, and floors
    that quotient.  The terms are floored into integer sums in units of
    2^(zb - wp), f_1 and g_1 in units 2^e times as large, 2^e <= |z|, so
    that the one division by z keeps y' to 2^(zb - wp).  The sum
    stops at the first k past the peak, 2 |z^3| <= (3k-1) 3k, where a_k,
    b_k, 3k a_k and (3k+1) b_k all round to zero in their units; from there
    each term is at most half the one before, so the rest is below a unit.
    After n terms each sum is off by about n units: a floor per term, and
    the floors of the steps and of z^3, below k 2^(-wp-6) of a term at
    step k, add up to n 2^-6 units at most.  So log2(n) of the GUARD bits
    are lost, as in a wp-bit floating-point sum.
    A point whose estimated work is past ``_AIRY_MAX_WORK`` raises
    DomainError before any term is summed.  Each (kind, z, prec)
    is summed once: a Taylor facility reads all its terms off one (y, y').
    """
    wp = prec + special.GUARD
    sign, man, exp, _ = z
    if not man:
        return _airy_at_zero(kind, wp)
    # |z| is capped far past the bound, where a float |z|^(3/2) overflows
    zeta_bits = 2 * min(abs(libmp.to_float(z)), 2.0**64) ** 1.5 / (3 * math.log(2))
    wp += math.ceil(zeta_bits if sign else 2 * zeta_bits if kind == "ai" else 0)
    # |z| < 1 takes no more terms than |z| = 1
    if _airy_terms(max(zeta_bits * math.log(2), 2 / 3), wp) * (wp + 8192) > _AIRY_MAX_WORK:
        raise DomainError(f"Airy at z = {libmp.to_str(z, 6)}, {prec} bits: the Maclaurin series' terms times working bits are past its work bound")
    y0, y1 = _airy_at_zero(kind, wp)
    bits = wp + 8  # of a term's mantissa
    unit = math.ceil(zeta_bits) - wp  # of f and g; f_1 and g_1 in units 2^(unit + ez)
    ez = man.bit_length() + exp - 1
    cube = man**3
    # past the peak when 2 |z^3| <= (3k-1) 3k, compared as peak <= (3k-1) 3k << peak_shift
    peak, peak_shift = (2 * cube) << max(3 * exp, 0), max(-3 * exp, 0)
    drop = max(cube.bit_length() - bits, 0)  # the steps take z^3 to wp + 8 bits, floored
    cube, cube_exp = -(cube >> drop) if sign else cube >> drop, 3 * exp + drop
    ma, ea, mb, eb = 1, 0, -man if sign else man, exp  # a_0 and b_0 as mantissa, exponent
    f = 1 << -unit if unit <= 0 else 0
    g = mb << eb - unit if eb >= unit else mb >> unit - eb
    f1, g1 = 0, mb << eb - unit - ez if eb >= unit + ez else mb >> unit + ez - eb
    k = 0
    while True:
        k += 1
        da, db = (3 * k - 1) * 3 * k, 3 * k * (3 * k + 1)
        num = ma * cube
        shift = bits - num.bit_length() + da.bit_length()
        ma, ea = (num << shift if shift >= 0 else num >> -shift) // da, ea + cube_exp - shift
        num = mb * cube
        shift = bits - num.bit_length() + db.bit_length()
        mb, eb = (num << shift if shift >= 0 else num >> -shift) // db, eb + cube_exp - shift
        wa, wb = 3 * k * ma, (3 * k + 1) * mb
        if (
            peak <= da << peak_shift
            and max(ma.bit_length() + ea, mb.bit_length() + eb) <= unit
            and max(wa.bit_length() + ea, wb.bit_length() + eb) <= unit + ez
        ):
            break
        s = ea - unit
        f += ma << s if s >= 0 else ma >> -s
        s -= ez
        f1 += wa << s if s >= 0 else wa >> -s
        s = eb - unit
        g += mb << s if s >= 0 else mb >> -s
        s -= ez
        g1 += wb << s if s >= 0 else wb >> -s
    val = libmp.mpf_add(libmp.mpf_mul(y0, libmp.from_man_exp(f, unit)), libmp.mpf_mul(y1, libmp.from_man_exp(g, unit)), wp)
    dval = libmp.mpf_add(libmp.mpf_mul(y0, libmp.from_man_exp(f1, unit + ez)), libmp.mpf_mul(y1, libmp.from_man_exp(g1, unit + ez)))
    return val, libmp.mpf_div(dval, z, wp)


def airy_ai_oracle(z):
    prec = mp.mp.prec
    return mp.make_mpf(libmp.mpf_pos(_airy_raw("ai", _c2mp(z)._mpf_, prec)[0], prec, _RND))


def airy_bi_oracle(z):
    prec = mp.mp.prec
    return mp.make_mpf(libmp.mpf_pos(_airy_raw("bi", _c2mp(z)._mpf_, prec)[0], prec, _RND))


def loggamma_oracle(x):
    x = _c2mp(x)
    if x <= 0:
        raise DomainError("log Gamma oracle needs x > 0")
    return mp.loggamma(x)


def gamma_oracle(x):
    return mp.gamma(_c2mp(x))


# -- derivative facilities --------------------------------------------------------


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


def _laurent_eval(q: dict, x0: Fraction) -> Fraction:
    return sum((c * x0**j for j, c in q.items()), Fraction(0))


def exp_poly_taylor(rate: Fraction, p: int, q0: dict) -> Callable:
    """Taylor facility of f = e^phi * q0, phi = rate x^p and q0 a Laurent polynomial.

    f^(k) = e^phi * q_k with q_(k+1) = q_k' + phi' * q_k.  A term is exact at
    a Fraction x0; a negative power of q_k at x0 = 0, or a non-finite x0, is
    a DomainError.  Elsewhere x0 is read once as a raw mpf at the working
    precision, and e^phi is the midpoint of ``_exp_rate``'s enclosure of
    e^(rate x0^p), x0^p exact, at guard bits, rounded once.  q_k(x0), the
    product and the division by k! are raw ``libmp`` operations, each
    rounded as the mpf operators round it.
    """
    phi = {p: rate}
    dphi = _laurent_diff(phi)

    def polys():
        q = q0
        while True:
            yield q
            q = _laurent_add(_laurent_diff(q), _laurent_mul(dphi, q))

    qs = Stream(polys)

    def taylor(x0, k) -> TaylorTerm:
        q = qs[k]
        if not x0 and (low := min(q, default=0)) < 0:
            raise DomainError(f"x^({low}) has no value at x = 0")
        if isinstance(x0, Fraction):
            return ("exact", Prefactor.of(1, e=_laurent_eval(phi, x0)), _laurent_eval(q, x0) / factorial(k))
        prec = mp.mp.prec
        x = libmp.mpf_pos(x0._mpf_, prec, _RND) if isinstance(x0, mp.mpf) else mp.mpf(x0)._mpf_
        if not x[1] and x[2]:
            raise DomainError(f"no value at the non-finite point x = {x0}")
        lo, hi = _exp_rate(rate, mp.make_mpf(functools.reduce(libmp.mpf_mul, [x] * p)), prec + special.GUARD)
        e_phi = libmp.mpf_pos(libmp.mpf_shift(libmp.mpf_add(lo, hi), -1), prec, _RND)
        total = libmp.fzero
        for j, c in q.items():
            t = libmp.mpf_pow_int(x, j, prec, _RND)
            if c.numerator != 1:
                t = libmp.mpf_mul_int(t, c.numerator, prec, _RND)
            if c.denominator != 1:
                t = libmp.mpf_div(t, libmp.from_int(c.denominator), prec, _RND)
            total = libmp.mpf_add(total, t, prec, _RND)
        val = libmp.mpf_mul(e_phi, total, prec, _RND)
        if k > 1:
            val = libmp.mpf_div(val, libmp.from_int(factorial(k)), prec, _RND)
        return ("num", mp.make_mpf(val))

    return taylor


def shifted_taylor(derivative: Callable, oracle: Callable, exact_value: Optional[Callable]) -> Callable:
    """Taylor facility of an antiderivative F from that of F' (a shift by one).

    F^(k)(x0)/k! = (F')^(k-1)(x0)/(k-1)! / k for k >= 1; F(x0) itself is
    ``exact_value`` where that gives a value, else the oracle.
    """

    def taylor(x0, k) -> TaylorTerm:
        if k == 0:
            hit = exact_value(x0) if exact_value is not None and isinstance(x0, Fraction) else None
            return ("exact", *hit) if hit is not None else ("num", oracle(_c2mp(x0)))
        t = derivative(x0, k - 1)
        if t[0] == "exact":
            return ("exact", t[1], t[2] / k)
        return ("num", t[1] / k)

    return taylor


def _airy_taylor(kind: str):
    # the k-th coefficient at x0, from the unrounded (y, y') there (summed once
    # per point and precision, see ``_airy_raw``), rounded once
    def taylor(x0, k) -> TaylorTerm:
        prec = mp.mp.prec
        z = _c2mp(x0)._mpf_
        coeffs = _airy_coeffs(*_airy_raw(kind, z, prec), z, prec + special.GUARD)
        return ("num", mp.make_mpf(libmp.mpf_pos(next(islice(coeffs, k, None)), prec, _RND)))

    return taylor


@functools.lru_cache(maxsize=64)
def _loggamma_terms(x, prec: int, K: int) -> tuple:
    """psi(x), c_2, ..., c_K at a raw x, each rounded once to prec bits:
    the Taylor coefficients 1..K of ln Gamma at x, from one shifted
    Euler-Maclaurin sum (``special.loggamma_taylor``)."""
    return tuple(mp.make_mpf(libmp.mpf_pos(v, prec, _RND)) for v, _ in special.loggamma_taylor(x, K, prec))


def _loggamma_taylor(x0, k) -> TaylorTerm:
    # term 0 is the oracle's; terms 1..K are summed once per point and
    # precision, K the least power of two >= k, and at least 16
    x0m = _c2mp(x0)
    if k == 0:
        return ("num", loggamma_oracle(x0m))
    return ("num", _loggamma_terms(x0m._mpf_, mp.mp.prec, max(16, 1 << (k - 1).bit_length()))[k - 1])


def exp_of_taylor(inner: Callable, oracle: Callable) -> Callable:
    """Taylor facility of f = e^g from the numeric one of g and f's oracle.

    With l_j = g^(j)(x0)/j!, f(x0 + h)/f(x0) = exp(sum_(j>=1) l_j h^j) has
    coefficients b_0 = 1, b_n = (1/n) sum_(j=1..n) j l_j b_(n-j).  The terms
    at one (x0, precision) are one Stream, so term k computes only l_k; the
    streams of the last few points are kept.
    """

    @functools.lru_cache(maxsize=8)
    def terms(x0, prec) -> Stream:
        x = _c2mp(x0)

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


def elementary_entry(name: str, n: int, rate=0, p: int = 1, c=1, **links) -> CatalogFunction:
    """The entry c x^n e^(rate x^p), every view derived from phi = rate x^p
    and q = c x^n: the transseries, one group c t^(n/p) e^(rate t) in the
    critical time t = x^p (a log-part polynomial when rate = 0), the oracle
    and the Taylor facility e^phi q_k (``exp_poly_taylor``).  ``links`` sets
    the entry's other fields (exact value, domain, antiderivative, reflection)."""
    rate, c = Fraction(rate), Fraction(c)
    taylor = exp_poly_taylor(rate, p, {n: c})
    return CatalogFunction(
        name=name,
        transseries=assemble([Group(rate, Fraction(n, p) + 1, PowerSeries.from_coeffs([c]))]),
        crit_power=Fraction(p),
        oracle=lambda x: taylor(_c2mp(x), 0)[1],
        taylor_term=taylor,
        taylor_degree=None if rate else n,
        **links,
    )


def _ei_entry(integrand: CatalogFunction) -> CatalogFunction:
    return CatalogFunction(
        name="ei",
        transseries=assemble([Group(1, 0, named_series("ei"))]),
        oracle=ei_oracle,
        taylor_term=shifted_taylor(integrand.taylor_term, ei_oracle, None),
        domain_c=0.0,
    )


def _erfi_integral_entry(integrand: CatalogFunction) -> CatalogFunction:
    at_zero = lambda q: (Prefactor.one(), Fraction(0)) if q == 0 else None  # noqa: E731
    return CatalogFunction(
        name="erfi_integral",
        transseries=assemble([Group(1, Fraction(1, 2), named_series("erfi"))]),
        crit_power=Fraction(2),
        oracle=erfi_integral_oracle,
        taylor_term=shifted_taylor(integrand.taylor_term, erfi_integral_oracle, at_zero),
        domain_c=None,
        exact_value=at_zero,
    )


def _airy_entry(kind: str) -> CatalogFunction:
    series = named_series("airy_u_alt" if kind == "ai" else "airy_u")
    if kind == "ai":
        ts = assemble([Group(-1, Fraction(5, 6), series)])
        pref = Prefactor.of(Fraction(1, 2), pi=Fraction(-1, 2)) * Prefactor.rational_power(
            Fraction(2, 3), Fraction(1, 6)
        )
        oracle = airy_ai_oracle
    else:
        ts = assemble([Group(1, Fraction(5, 6), series)])
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
    )


def _gamma_entry() -> CatalogFunction:
    return CatalogFunction(
        name="gamma",
        transseries=None,
        oracle=gamma_oracle,
        taylor_term=exp_of_taylor(_loggamma_taylor, gamma_oracle),
        domain_c=0.0,
        compose_exp_of="loggamma",
    )


def monomial_entry(n: int, c: Fraction = Fraction(1)) -> CatalogFunction:
    """c x^n as a catalog entry (polynomials live in the log part's Q)."""
    if n < 0:
        raise ValueError("use series entries for inverse powers")
    c = Fraction(c)
    return elementary_entry(
        f"monomial_{n}" if c == 1 else f"{c}*monomial_{n}",
        n,
        c=c,
        exact_value=lambda q: (Prefactor.one(), q**n * c),
        antiderivative=lambda: monomial_entry(n + 1, c / (n + 1)),
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
                ei_integrand = elementary_entry(
                    "ei_integrand", -1, 1, domain_c=0.0, antiderivative=lambda: catalog()["ei"]
                )
                erfi_integrand = elementary_entry(
                    "erfi_integrand", 0, 1, p=2, antiderivative=lambda: catalog()["erfi_integral"]
                )
                entries = [
                    elementary_entry(
                        "exp", 0, 1, exact_value=lambda q: (Prefactor.of(1, e=q), Fraction(1)),
                        antiderivative=lambda: catalog()["exp"], reflected_name="exp_neg",
                    ),
                    elementary_entry("exp_neg", 0, -1, exact_value=lambda q: (Prefactor.of(1, e=-q), Fraction(1))),
                    ei_integrand,
                    _ei_entry(ei_integrand),
                    erfi_integrand,
                    _erfi_integral_entry(erfi_integrand),
                    _airy_entry("ai"),
                    _airy_entry("bi"),
                    _loggamma_entry(),
                    _gamma_entry(),
                    elementary_entry("exp_neg_over_x", -1, -1, domain_c=0.0),
                ]
                _CATALOG = {e.name: e for e in entries}
    return _CATALOG


def catalog_manifest() -> dict:
    """JSON-ready manifest: per entry its transseries, critical time, prefactor and kernels."""
    out = {}
    for name, e in catalog().items():
        groups = groups_of(e.transseries) if e.transseries else []
        named = {m[0]: g.series.kernel for g in groups if (m := named_multiple(g.series))}
        out[name] = {
            "transseries": ts_to_json(e.transseries) if e.transseries is not None else None,
            "critical_time": {"coef": str(e.crit_coef), "power": str(e.crit_power)},
            "prefactor": e.prefactor.render(),
            "ln2pi_coef": str(e.ln2pi_coef),
            "kernels": {k: type(v.kernel).__name__ for k, v in named.items()},
            "domain_c": e.domain_c,
            "composes": e.compose_exp_of,
        }
    return out
