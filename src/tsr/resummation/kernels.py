"""Borel-plane functions: closed-form kernels, the Binet and Airy kernels, Pade approximants.

A kernel provides exact small-p Taylor coefficients, lateral values above
and below the positive axis, its value (the half-sum of the laterals, which
the Laplace machinery integrates), and, where a rule exists, its
antiderivative from 0 (the P operator).  Closed forms are linear
combinations of

    v^a (log v)^b,   v = 1 - p/s

around a single positive singularity s, plus a polynomial; that family is
closed under P, which is how pole kernels regularize to logs.

A series carries its kernel as a :class:`KernelEntry` (kernel, m, c): its
Borel transform is c times the kernel, so every rational multiple of a
registered series shares the registered kernel object.  Kernels keep the
mpf constants a Laplace node needs once per working precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import mpmath as mp
from mpmath import libmp

from ..errors import DegenerateTableError, NotRegularizableError, SingularPointError
from .borel import BorelPoly, borel_transform, p_integrate_poly


@dataclass(frozen=True)
class Singularity:
    location: Fraction
    kind: str  # "pole" | "branch" | "log"
    exponent: Fraction = Fraction(-1)  # power of v for pole/branch; 0 for log


class BorelFunction:
    """Interface shared by every Borel-plane representation."""

    #: (c1, c3) with |F| <= c1 exp(c3 p) laterally; c3 bounds the Laplace domain
    growth: tuple[float, float] = (1.0, 0.0)

    def singularities(self) -> list[Singularity]:
        return []

    def taylor(self, K: int) -> list[Fraction]:
        """Exact small-p coefficients f_0..f_K (rational kernels only)."""
        raise NotImplementedError

    def value(self, p):
        """The real value off the singularities: the half-sum of the lateral
        continuations (the single-ray average), which is the plain value
        wherever the kernel is single-valued.  Kernels with a cut override
        ``lateral`` as well."""
        raise NotImplementedError

    def lateral(self, p, side: int):
        """Continuation at p +- i0 (side = +1 above, -1 below)."""
        return mp.mpc(self.value(p))

    def p_integral(self, m: int = 1) -> "BorelFunction":
        raise NotRegularizableError(f"{type(self).__name__} has no P rule")

    def usub_value(self, u):
        """F(s - u^2) * 2u at an inverse-square-root branch point s."""
        raise NotImplementedError(f"{type(self).__name__} has no branch points")


@dataclass(frozen=True)
class _Term:
    coef: Fraction
    a: Fraction  # power of v = 1 - p/s
    b: int  # log exponent, 0 or 1


class ClosedFormKernel(BorelFunction):
    """sum(c * v^a * log(v)^b) + polynomial, v = 1 - p/s, one singularity s.

    Integer and half-integer powers of v are integer powers of v or sqrt(v),
    so a Laplace node costs no Fraction work and no mpf ** mpf.
    """

    def __init__(self, s: Fraction, terms: Sequence[tuple], poly: BorelPoly = BorelPoly(()), growth=(2.0, 1.0), name: str = ""):
        self.s = Fraction(s)
        if self.s == 0:
            raise ValueError("the reference point cannot be the origin")
        self.terms = tuple(_Term(Fraction(c), Fraction(a), int(b)) for c, a, b in terms)
        if any(t.b not in (0, 1) for t in self.terms):
            raise ValueError("only first powers of log are representable")
        self.poly = poly
        self.growth = growth
        self.name = name
        self._has_log = any(t.b for t in self.terms)
        self._mp_consts: dict[int, tuple] = {}

    def _consts(self) -> tuple:
        """(s, polynomial coefficients, per-term constants) as mpf."""
        s = _c2mp(self.s)
        terms = []
        for t in self.terms:
            a, c = _c2mp(t.a), _c2mp(t.coef)
            # usub: c v^a 2u = (2 c s^-a) u^(2a+1)
            ucoef = 2 * c * _power(-t.a)(s)
            terms.append((c, _power(t.a), mp.cospi(a), mp.sinpi(a), t.b, ucoef, _power(2 * t.a + 1)))
        return s, [_c2mp(c) for c in self.poly.coeffs], terms

    def singularities(self) -> list[Singularity]:
        if self.s < 0:
            return []  # v = 1 - p/s stays positive on the Laplace ray
        worst = min((t.a for t in self.terms if t.a < 0 or t.b), default=None)
        if worst is None and not any(t.b for t in self.terms):
            return []
        if worst is not None and worst < 0:
            kind = "pole" if worst.denominator == 1 else "branch"
            return [Singularity(self.s, kind, worst)]
        return [Singularity(self.s, "log", Fraction(0))]

    # -- values ---------------------------------------------------------------

    def lateral(self, p, side: int):
        """v < 0 continuation: arg v = -side * pi (p + i0 pushes v below its cut)."""
        s, poly, terms = _at_prec(self._mp_consts, self._consts)
        p = mp.mpf(p)
        mag = p / s - 1
        if mag <= 0:
            return mp.mpc(self.value(p))
        logv = mp.mpc(mp.log(mag), -side * mp.pi)
        out = mp.mpc(_horner(poly, p))
        for c, power, cos_a, sin_a, b, _, _ in terms:
            term = c * power(mag) * mp.mpc(cos_a, -side * sin_a)
            out += term * logv if b else term
        return out

    def value(self, p):
        """The value below s; beyond it the closed-form half-sum of the laterals.

        The half-sum's cos(pi a)/sin(pi a) weights are exact: evaluating
        Re((hi+lo)/2) numerically would multiply huge |v|^a values by a
        rounded cos(pi a), while cospi/sinpi keep vanishing averages
        (a = -1/2) exactly zero.
        """
        s, poly, terms = _at_prec(self._mp_consts, self._consts)
        p = mp.mpf(p)
        v = 1 - p / s
        if v == 0:
            raise SingularPointError(f"evaluation at the singularity p = {self.s}")
        out = _horner(poly, p)
        if v > 0:
            logv = mp.log(v) if self._has_log else None
            for c, power, _, _, b, _, _ in terms:
                term = c * power(v)
                out += term * logv if b else term
            return out
        mag = -v
        logm = mp.log(mag) if self._has_log else None
        for c, power, cos_a, sin_a, b, _, _ in terms:
            base = c * power(mag)
            out += base * (cos_a * logm - mp.pi * sin_a) if b else base * cos_a
        return out

    def usub_value(self, u):
        """F(s - u^2) * 2u for the branch window substitution, cancellation-free."""
        s, poly, terms = _at_prec(self._mp_consts, self._consts)
        out = _horner(poly, s - u * u) * 2 * u
        logv = mp.log(u * u / s) if self._has_log else None  # v = u^2/s on the approach side
        for _, _, _, _, b, ucoef, upow in terms:
            term = ucoef * upow(u)  # grouped to avoid 1/u blowup
            out += term * logv if b else term
        return out

    def taylor(self, K: int) -> list[Fraction]:
        out = [self.poly.coeff(k) for k in range(K + 1)]
        for t in self.terms:
            tc = _vpow_taylor(t.a, t.b, K)  # coefficients in w = p/s
            for k in range(K + 1):
                out[k] += t.coef * tc[k] / self.s**k
        return out

    def p_integral(self, m: int = 1) -> "ClosedFormKernel":
        if m == 0:
            return self
        s = self.s
        new_terms: list[tuple] = []
        const = Fraction(0)
        for t in self.terms:
            c, a, b = t.coef, t.a, t.b
            if b == 0 and a != -1:
                # int_0^p v^a dt = s (1 - v^(a+1)) / (a+1)
                const += c * s / (a + 1)
                new_terms.append((-c * s / (a + 1), a + 1, 0))
            elif b == 0 and a == -1:
                new_terms.append((-c * s, Fraction(0), 1))
            elif b == 1 and a != -1:
                # int_0^p v^a log v dt = s(-1/(a+1)^2 - v^(a+1) log v/(a+1) + v^(a+1)/(a+1)^2)
                const += -c * s / (a + 1) ** 2
                new_terms.append((-c * s / (a + 1), a + 1, 1))
                new_terms.append((c * s / (a + 1) ** 2, a + 1, 0))
            else:
                raise NotRegularizableError("no rule for v^-1 log v")
        poly = p_integrate_poly(self.poly, 1) + BorelPoly((const,))
        # |P F| <= c1 p e^(c3 p) <= 4 c1 e^(max(c3, 1/4) p)
        growth = (4 * self.growth[0], max(self.growth[1], 0.25))
        out = ClosedFormKernel(s, new_terms, poly, growth, self.name and f"P({self.name})")
        return out.p_integral(m - 1)


def _c2mp(q: Fraction):
    return mp.mpf(q.numerator) / q.denominator


def _at_prec(cache: dict, build: Callable):
    """build()'s mpf constants, built once per working precision and kept in
    ``cache``; a lost race between threads stores an equal value."""
    prec = mp.mp.prec
    out = cache.get(prec)
    if out is None:
        out = cache[prec] = build()
    return out


def _power(a: Fraction) -> Callable:
    """v -> v^a at the working precision: an integer power of v for integer
    a, of sqrt(v) for half-integer a."""
    if a.denominator == 1:
        n = int(a)
        return lambda v: v**n
    if a.denominator == 2:
        n = int(2 * a)
        return lambda v: mp.sqrt(v) ** n
    a_mp = _c2mp(a)
    return lambda v: v**a_mp


def _vpow_taylor(a: Fraction, b: int, K: int) -> list[Fraction]:
    """Exact Taylor of w -> (1-w)^a log(1-w)^b in powers of w."""
    binom = [Fraction(1)]
    for k in range(1, K + 1):
        binom.append(binom[-1] * (a - (k - 1)) / k)
    pow_series = [binom[k] * Fraction((-1) ** k) for k in range(K + 1)]  # (1-w)^a
    if b == 0:
        return pow_series
    log_series = [Fraction(0)] + [Fraction(-1, j) for j in range(1, K + 1)]
    out = [Fraction(0)] * (K + 1)
    for i in range(K + 1):
        for j in range(K + 1 - i):
            out[i + j] += pow_series[i] * log_series[j]
    return out


class PadeKernel(BorelFunction):
    """Rational approximant; detected positive real poles become singularities.

    A rational function is single-valued: its value is its average.  The
    exact ``num`` and ``den`` are converted to mpf once per working precision
    (keyed by ``mp.mp.prec``) and kept on the instance, because a Laplace
    integral evaluates the kernel at thousands of nodes.  This is safe: the
    coefficients are immutable and each mpf is a pure function of
    (coefficient, precision), so a lost race between threads writes equal
    lists.
    """

    def __init__(self, num: Sequence[Fraction], den: Sequence[Fraction], growth=(2.0, 1.0), name: str = ""):
        self.num = tuple(Fraction(c) for c in num)
        self.den = tuple(Fraction(c) for c in den)
        self.growth = growth
        self.name = name
        self._poles: Optional[list] = None
        self._mp_coeffs: dict[int, tuple[list, list]] = {}

    def _coeffs_at_prec(self) -> tuple[list, list]:
        """num and den as mpf at the working precision, converted on first use."""
        return _at_prec(self._mp_coeffs, lambda: ([_c2mp(c) for c in self.num], [_c2mp(c) for c in self.den]))

    def real_positive_poles(self) -> list:
        if self._poles is None:
            with mp.workdps(mp.mp.dps + 10):
                roots = mp.polyroots([_c2mp(c) for c in reversed(self.den)], maxsteps=200, extraprec=80)
            poles = []
            for r in roots:
                if abs(r.imag) < mp.mpf(10) ** (-15) and r.real > 0:
                    poles.append(r.real)
            self._poles = sorted(poles)
        return self._poles

    def singularities(self) -> list[Singularity]:
        # each pole exactly as found, to the precision of the first call
        poles = self.real_positive_poles()
        return [Singularity(Fraction(*libmp.to_rational(p._mpf_)), "pole", Fraction(-1)) for p in poles]

    def taylor(self, K: int) -> list[Fraction]:
        out: list[Fraction] = []
        d0 = self.den[0]
        if d0 == 0:
            raise DegenerateTableError("denominator vanishes at the origin")
        for k in range(K + 1):
            total = self.num[k] if k < len(self.num) else Fraction(0)
            for j in range(1, min(k, len(self.den) - 1) + 1):
                total -= self.den[j] * out[k - j]
            out.append(total / d0)
        return out

    def value(self, p):
        p = mp.mpf(p)
        num_mp, den_mp = self._coeffs_at_prec()
        num = _horner(num_mp, p)
        den = _horner(den_mp, p)
        if den == 0:
            raise SingularPointError(f"Pade pole at p = {p}")
        return num / den


def _horner(coeffs, p):
    """Horner's rule over mpf coefficients, lowest degree first."""
    out = mp.mpf(0)
    for c in reversed(coeffs):
        out = out * p + c
    return out


@dataclass(frozen=True)
class KernelEntry:
    """c times a Borel kernel, and the order m of the P^m regularization its
    sum uses.  The Laplace transform is linear, so the sum integrates the
    kernel alone and multiplies by c."""

    kernel: BorelFunction
    m: int = 0
    c: Fraction = Fraction(1)

    def scale(self, c) -> "KernelEntry":
        return KernelEntry(self.kernel, self.m, self.c * Fraction(c))

    def __add__(self, other: "KernelEntry") -> Optional["KernelEntry"]:
        """The entry of a sum of series: (c + d) * K for c * K + d * K, else
        None (a sum of different kernels is left to the Pade fallback)."""
        if self.kernel is not other.kernel or self.m != other.m:
            return None
        return KernelEntry(self.kernel, self.m, self.c + other.c)


def derive_antidiff_kernel(mu: Fraction, offset: Fraction, y, w) -> Optional[KernelEntry]:
    """Closed-form Borel transform of the antiderivative series w.

    For a group x^b e^(mu x) y with finite y and b in {0, 1}, the transform
    of the solution of w' + (mu + b/x) w = y is exact:

        b = 0:  W = Y / (mu - p)            (partial fractions)
        b = 1:  W = w_1 + int_0^p Y'(s)/(mu - s) ds   (a log plus a polynomial)

    where Y is the polynomial Borel transform of y.  For decaying groups the
    reference point mu is negative, so W is analytic on the Laplace ray.
    """
    if y.length is None or offset not in (0, 1):
        return None
    K = y.length or 0
    Y = borel_transform(y, K)
    lam = Fraction(mu)  # reference point of the ratio

    def divide(poly: BorelPoly):
        """poly(p) = Q(p) (lam - p) + r, by synthetic division."""
        coeffs = list(poly.coeffs)
        d = len(coeffs) - 1
        if d < 0:
            return BorelPoly(()), Fraction(0)
        q = [Fraction(0)] * max(d, 0)
        # matching coefficients of lam*Q - p*Q: q_(k-1) = lam q_k - c_k
        carry = Fraction(0)  # q_d = 0
        for k in range(d, 0, -1):
            carry = lam * carry - coeffs[k]
            q[k - 1] = carry
        r = coeffs[0] - lam * q[0] if q else coeffs[0]
        return BorelPoly(tuple(q)), r

    growth = (float(4 * (1 + sum(abs(c) for c in Y.coeffs))), 0.25 if lam > 0 else 0.0)
    if offset == 0:
        Q, r = divide(Y)
        # W = Q(p) + (r/lam) v^-1, v = 1 - p/lam
        terms = [(r / lam, Fraction(-1), 0)] if r else []
        kernel = ClosedFormKernel(lam, terms, Q, growth, name=f"anti({lam})")
        m = 1 if (lam > 0 and r != 0) else 0
        return KernelEntry(kernel, m=m)
    # offset == 1
    dY = BorelPoly(tuple((k + 1) * c for k, c in enumerate(Y.coeffs[1:])))
    Q, r = divide(dY)
    poly = p_integrate_poly(Q, 1) + BorelPoly((Fraction(w.coeff(1)),))
    terms = [(-r, Fraction(0), 1)] if r else []  # -r log v
    kernel = ClosedFormKernel(lam, terms, poly, growth, name=f"anti({lam})")
    return KernelEntry(kernel, m=0)


# -- canonical kernels ---------------------------------------------------------


def pole_kernel(location=1, scale=1) -> ClosedFormKernel:
    """scale / (1 - p/location): the factorially divergent model kernel.

    The averaged value decays like 1/p beyond the pole, so the lateral tail
    bound uses c3 = 0 with c1 covering the overshoot just past the window.
    """
    return ClosedFormKernel(
        Fraction(location), [(Fraction(scale), Fraction(-1), 0)], growth=(4.0 * abs(float(scale)), 0.0), name="pole"
    )


def sqrt_branch_kernel(location=1, scale=Fraction(1, 2)) -> ClosedFormKernel:
    """scale * (1 - p/location)^(-1/2); the average vanishes beyond the cut."""
    return ClosedFormKernel(
        Fraction(location), [(Fraction(scale), Fraction(-1, 2), 0)], growth=(abs(float(scale)), 0.0), name="sqrt-branch"
    )


def log_kernel(location=1, scale=1) -> ClosedFormKernel:
    """-scale * log(1 - p/location) (the P-integral of the pole kernel)."""
    return ClosedFormKernel(
        Fraction(location), [(-Fraction(scale), Fraction(0), 1)], growth=(4.0 * abs(float(scale)), 0.25), name="log"
    )


class CothKernel(BorelFunction):
    """(p coth(p/2) - 2) / (2 p^2): the Binet kernel of log Gamma.

    Its Taylor coefficients come from ``coth_kernel_coeff``; values use the
    closed form, or the even Taylor polynomial near 0 where the closed form
    cancels.
    """

    growth = (1.0, 0.0)  # falls from 1/12 at p = 0 like 1/(2p): subexponential
    name = "coth"

    def __init__(self):
        self._mp_taylor: dict[int, tuple] = {}

    def taylor(self, K: int) -> list[Fraction]:
        from ..coefficients import coth_kernel_coeff

        return [coth_kernel_coeff(k) for k in range(K + 1)]

    def _taylor(self) -> tuple:
        """(0.05, [f_0, f_2, f_4, ...]) as mpf: at least 12 even terms, and
        enough that the first one left out is below the working precision at
        |p| = 0.05 (each term is about (0.05 / 2 pi)^2, 2^-13.9, times the one
        before)."""
        n = max(12, mp.mp.prec // 13 + 1)
        return mp.mpf("0.05"), [_c2mp(c) for c in self.taylor(2 * n - 2)[::2]]

    def value(self, p):
        p = mp.mpf(p)
        near, coeffs = _at_prec(self._mp_taylor, self._taylor)
        if abs(p) < near:
            # the even Taylor polynomial near 0 avoids cancellation
            return _horner(coeffs, p * p)
        return (p * mp.coth(p / 2) - 2) / (2 * p**2)


class AiryKernel(BorelFunction):
    """F(z) = 2F1(1/6, 5/6; 1; z) at z = side * p/2: the Borel transform of
    the Airy u-series, sum(u_k p^k / k!) with u_k = (1/6)_k (5/6)_k / (2^k k!)
    (DLMF 9.7.2).  side = +1 is ``#airy_u`` (Bi), whose F has a logarithmic
    branch point at p = 2; side = -1 is ``#airy_u_alt`` (Ai), analytic on
    the Laplace ray.

    A value sums one convergent series (DLMF 15.8), chosen by z so that its
    ratio is at most 5/8:

    - |z| <= 3/5: Maclaurin, sum(a_k z^k), a_k = (1/6)_k (5/6)_k / k!^2;
    - 3/5 < z <= 8/5: around z = 1, the case c = a + b of DLMF 15.8.10,
      F = (sum(a_k h_k w^k) - ln(w) sum(a_k w^k)) / (2 pi), w = 1 - z,
      h_k = 2 psi(k+1) - psi(k+1/6) - psi(k+5/6), h_0 = ln 432;
    - -8/5 <= z < -3/5: Pfaff (DLMF 15.8.1),
      F = (1-z)^(-1/6) sum(e_k (z/(z-1))^k), e_k = (1/6)_k^2 / k!^2;
    - |z| > 8/5: in 1/z (DLMF 15.8.2),
      F = C1 (-z)^(-1/6) G1(1/z) - C2 (-z)^(-5/6) G2(1/z), with
      G1 = 2F1(1/6, 1/6; 1/3; .), G2 = 2F1(5/6, 5/6; 5/3; .),
      C1 = 2 pi / (sqrt(3) Gamma(5/6)^2 Gamma(1/3)) and
      C2 = 2 pi / (sqrt(3) Gamma(1/6)^2 Gamma(5/3)).

    At p + i0 past the branch point, ln w = ln|w| - i pi and
    (-z)^(-a) = |z|^(-a) e^(i pi a); the value, the average of the two
    sides, keeps the real part.  The coefficients are fixed-point integers,
    built once per working precision and kept on the kernel; a value is a
    Horner sum over as many of them as its ratio needs, in integer
    arithmetic.
    """

    #: |F(p +- i0)| <= 1.25 on the Bi side past p = 3.5, where the Laplace
    #: cutoff T always lies (2 + 2 * PV_WINDOW + 1), and 0 < F <= 1 on the Ai side
    growth = (1.25, 0.0)

    def __init__(self, side: int):
        if side not in (1, -1):
            raise ValueError("side is +1 (Bi) or -1 (Ai)")
        self.side = side
        self.name = "airy" if side > 0 else "airy-alt"
        self._tables: dict[int, tuple] = {}

    def singularities(self) -> list[Singularity]:
        return [Singularity(Fraction(2), "log", Fraction(0))] if self.side > 0 else []

    def taylor(self, K: int) -> list[Fraction]:
        out = [Fraction(1)]
        for k in range(K):  # a_(k+1) (side/2)^(k+1) from a_k (side/2)^k
            out.append(out[-1] * Fraction(self.side * (6 * k + 1) * (6 * k + 5), 72 * (k + 1) ** 2))
        return out

    def value(self, p):
        re = _airy_f(_at_prec(self._tables, _airy_tables), self.side * mp.mpf(p) / 2)[0]
        return mp.make_mpf(libmp.mpf_pos(re, mp.mp.prec, libmp.round_nearest))

    def lateral(self, p, side: int):
        re, im = _airy_f(_at_prec(self._tables, _airy_tables), self.side * mp.mpf(p) / 2)
        if self.side * side < 0:  # z - i0: the conjugate
            im = libmp.mpf_neg(im)
        prec, rnd = mp.mp.prec, libmp.round_nearest
        return mp.make_mpc((libmp.mpf_pos(re, prec, rnd), libmp.mpf_pos(im, prec, rnd)))


_AIRY_GUARD = 20  # bits above the working precision


def _airy_tables() -> tuple:
    """(wp, series coefficients, constants) of ``_airy_f`` at the working
    precision: the coefficients as integers scaled by 2^wp, as many as a
    ratio of 5/8 needs, the constants as raw mpf at wp bits."""
    wp = mp.mp.prec + _AIRY_GUARD
    n = int((wp + 8) / math.log2(8 / 5)) + 2
    one = 1 << wp
    a, ah, e, g1, g2 = [one], [], [one], [one], [one]
    h = libmp.to_fixed(libmp.mpf_log(libmp.from_int(432), wp + 10), wp)
    for k in range(n - 1):
        ah.append(a[k] * h >> wp)
        h += (2 << wp) // (k + 1) - (6 << wp) // (6 * k + 1) - (6 << wp) // (6 * k + 5)
        a.append(a[k] * ((6 * k + 1) * (6 * k + 5)) // (36 * (k + 1) ** 2))
        e.append(e[k] * (6 * k + 1) ** 2 // (36 * (k + 1) ** 2))
        g1.append(g1[k] * (6 * k + 1) ** 2 // (12 * (3 * k + 1) * (k + 1)))
        g2.append(g2[k] * (6 * k + 5) ** 2 // (12 * (3 * k + 5) * (k + 1)))
    ah.append(a[-1] * h >> wp)
    w2 = wp + 10
    two_pi = libmp.mpf_shift(libmp.mpf_pi(w2), 1)
    sqrt3 = libmp.mpf_sqrt(libmp.from_int(3), w2)
    c = libmp.mpf_div(two_pi, sqrt3, w2)
    gamma = {q: libmp.mpf_gamma(libmp.from_rational(q, 6, w2), w2) for q in (1, 2, 5, 10)}  # Gamma(q/6)
    c1 = libmp.mpf_div(c, libmp.mpf_mul(libmp.mpf_mul(gamma[5], gamma[5], w2), gamma[2], w2), wp)
    c2 = libmp.mpf_div(c, libmp.mpf_mul(libmp.mpf_mul(gamma[1], gamma[1], w2), gamma[10], w2), wp)
    consts = (libmp.mpf_div(libmp.fone, two_pi, wp), c1, c2, libmp.mpf_shift(libmp.mpf_pos(sqrt3, wp), -1))
    return wp, (a, ah, e, g1, g2), consts


def _terms(x: int, wp: int, n: int) -> int:
    """How many terms of a series whose coefficients stay below 2^3 reach
    2^-wp at the fixed-point ratio x (|x| <= 5/8 * 2^wp), at most n."""
    r = abs(x) / (1 << wp)
    return min(n, int((wp + 8) / -math.log2(r)) + 1) if r else 1


def _fixed_sum(x: int, wp: int, n: int, t: list) -> int:
    """sum(t_k x^k, k < n) by Horner in fixed point."""
    s = 0
    for c in t[n - 1 :: -1]:
        s = (s * x >> wp) + c
    return s


def _fixed_sum2(x: int, wp: int, n: int, t: list, u: list) -> tuple[int, int]:
    """_fixed_sum over two tables in one loop."""
    s = v = 0
    for c, d in zip(t[n - 1 :: -1], u[n - 1 :: -1]):
        s = (s * x >> wp) + c
        v = (v * x >> wp) + d
    return s, v


def _airy_f(tables: tuple, z):
    """F(z + i0) = 2F1(1/6, 5/6; 1; z + i0) at real z as (re, im), raw mpf
    at the precision of ``tables`` (see ``_airy_tables``); im is 0 below the
    branch point z = 1."""
    wp, (a, ah, e, g1, g2), (inv_2pi, c1, c2, half_sqrt3) = tables
    n = len(a)
    one = 1 << wp
    x = libmp.to_fixed(z._mpf_, wp)
    fixed = lambda v: libmp.from_man_exp(v, -wp)  # noqa: E731
    zero = libmp.fzero
    if 5 * abs(x) <= 3 * one:
        s = _fixed_sum(x, wp, _terms(x, wp, n), a)
        return fixed(s), zero
    if 0 < x and 5 * x <= 8 * one:
        w = one - x
        if w == 0:
            raise SingularPointError("evaluation at the branch point p = 2")
        s1, s0 = _fixed_sum2(w, wp, _terms(w, wp, n), ah, a)
        s0 = fixed(s0)
        logw = libmp.mpf_log(fixed(abs(w)), wp)
        re = libmp.mpf_mul(libmp.mpf_sub(fixed(s1), libmp.mpf_mul(logw, s0, wp), wp), inv_2pi, wp)
        return re, (libmp.mpf_shift(s0, -1) if w < 0 else zero)
    if x < 0 and 5 * -x <= 8 * one:
        omz = one - x  # 1 - z
        zeta = (-x << wp) // omz  # z / (z - 1)
        s = _fixed_sum(zeta, wp, _terms(zeta, wp, n), e)
        return libmp.mpf_mul(fixed(s), libmp.mpf_nthroot(fixed(omz), -6, wp), wp), zero
    r = (one << wp) // x if x > 0 else -((one << wp) // -x)  # 1/z
    s1, s2 = _fixed_sum2(r, wp, _terms(r, wp, n), g1, g2)
    mag = libmp.mpf_abs(z._mpf_)
    root = libmp.mpf_nthroot(mag, -6, wp)  # |z|^(-1/6)
    t1 = libmp.mpf_mul(libmp.mpf_mul(c1, root, wp), fixed(s1), wp)
    t2 = libmp.mpf_div(libmp.mpf_mul(c2, fixed(s2), wp), libmp.mpf_mul(mag, root, wp), wp)  # |z|^(-5/6) G2
    if x < 0:
        return libmp.mpf_sub(t1, t2, wp), zero
    re = libmp.mpf_mul(libmp.mpf_add(t1, t2, wp), half_sqrt3, wp)  # cos(pi/6) = -cos(5 pi/6)
    return re, libmp.mpf_shift(libmp.mpf_sub(t1, t2, wp), -1)  # sin(pi/6) = sin(5 pi/6) = 1/2


def pade_continue(b: BorelPoly, degrees: tuple[int, int]) -> PadeKernel:
    """Exact-rational (m, n) Pade approximant to the polynomial b.

    Solves the Toeplitz system for the denominator over the rationals and
    raises DegenerateTableError when the system is singular.
    """
    m, n = degrees
    if m + n + 1 > len(b.coeffs):
        raise DegenerateTableError(f"need {m + n + 1} coefficients, have {len(b.coeffs)}")
    c = [b.coeff(k) for k in range(m + n + 1)]
    # denominator: sum(d_j c_(m+i-j), j=0..n) = 0 for i = 1..n, d_0 = 1
    rows = []
    rhs = []
    for i in range(1, n + 1):
        rows.append([c[m + i - j] if 0 <= m + i - j <= m + n else Fraction(0) for j in range(1, n + 1)])
        rhs.append(-c[m + i])
    d_tail = _solve_exact(rows, rhs)
    den = [Fraction(1)] + d_tail
    num = []
    for k in range(m + 1):
        num.append(sum(den[j] * c[k - j] for j in range(0, min(k, n) + 1)))
    return PadeKernel(num, den, name=f"pade({m},{n})")


def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    n = len(rows)
    a = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise DegenerateTableError("singular Pade system")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]
