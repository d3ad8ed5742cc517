"""Borel-plane functions: closed-form kernels, the Binet and Airy kernels, Pade approximants.

Every kernel provides exact small-p Taylor coefficients and, where a rule
exists, its antiderivative from 0 (the P operator).  Closed forms are
linear combinations of

    v^a (log v)^b,   v = 1 - p/s

around a single singularity s, plus a polynomial, with a in Z/2; that family
is closed under P, which is how pole kernels regularize to logs, and each
closed form sums its own Laplace transform exactly at every x > 0
(``ClosedFormKernel.laplace``) without a value at any point.  So do the
Binet kernel, whose transform is ln Gamma less its Stirling part
(``CothKernel.laplace``), and the Airy kernel, whose transform is a modified
Bessel function of order 1/3 (``AiryKernel.laplace``).  Pade kernels are
summed by quadrature: they give their value on the ray, correctly rounded
from integer coefficients that no precision changes, their simple poles
there and the residue at each, exactly (``PadeKernel.residue``), so that a
quadrature sum subtracts each pole's part and sums it in closed form
(``pole_kernel``) instead of folding at it.  The values of the Binet and
Airy kernels are the tests' independent reference for the closed forms
(``tests/reference``).  A Pade kernel's poles are found exactly over Q:
Descartes' rule of signs with bisection isolates the denominator's real
positive roots and their orders, and Newton steps inside a bisection
bracket refine each simple one to a binary fraction at an explicit
precision (``positive_roots``).  A pole of order 2 or more has no principal
value and is refused.

A series carries its kernel as a :class:`KernelEntry` (kernel, c): its
Borel transform is c times the kernel, so every rational multiple of a
registered series shares the registered kernel object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import mpmath as mp
from mpmath import libmp

from ..errors import DegenerateTableError, DomainError, NotRegularizableError, SingularPointError
from . import special
from .borel import BorelPoly, borel_transform, p_integrate_poly


class BorelFunction:
    """Interface shared by every Borel-plane representation: ``taylor(K)``,
    the exact small-p coefficients f_0..f_K; a closed form adds
    ``laplace(x, prec)``, a quadrature kernel ``value(p)`` (the half-sum of
    the lateral continuations), ``singularities()`` (its simple poles on the
    positive axis, ascending, as binary fractions), ``residue(s)`` at each
    (the parts r/(p - s) a quadrature sum subtracts and sums in closed form)
    and ``growth`` (see ``PadeKernel``)."""


@dataclass(frozen=True)
class _Term:
    coef: Fraction
    a: Fraction  # power of v = 1 - p/s
    b: int  # log exponent, 0 or 1


class ClosedFormKernel(BorelFunction):
    """sum(c * v^a * log(v)^b) + polynomial, v = 1 - p/s, one singularity s.

    Every a is an integer or a half-integer, and only integer powers carry
    a log.  That family is closed under P, and its Laplace transform is
    known in closed form (``laplace``).
    """

    def __init__(self, s: Fraction, terms: Sequence[tuple], poly: BorelPoly = BorelPoly(()), name: str = ""):
        self.s = Fraction(s)
        if self.s == 0:
            raise ValueError("the reference point cannot be the origin")
        self.terms = tuple(_Term(Fraction(c), Fraction(a), int(b)) for c, a, b in terms)
        for t in self.terms:
            if t.b not in (0, 1):
                raise ValueError("only first powers of log are representable")
            if t.a.denominator not in (1, 2) or (t.b and t.a.denominator != 1):
                raise ValueError(f"v^{t.a} log(v)^{t.b}: exponents are in Z/2, and only integer ones take a log")
        self.poly = poly
        self.name = name
        self._has_log = any(t.b for t in self.terms)

    def laplace(self, x, prec: int):
        """integral(e^(-xp) F(p), p = 0..inf), F averaged past s, in closed form.

        With L_a = L[v^a] and M_a = L[v^a log v] (Costin 2008, ch. 5; DLMF
        6.6, 7.2, 8.8):

        - the polynomial sums to sum(c_k k! / x^(k+1));
        - L_-1 = s e^(-xs) Ei(xs), the principal value; for s < 0 the same
          formula is |s| e^z E1(z), z = x|s|;
        - L_-1/2 = 2 s e^(-xs) I(sqrt(xs)) / sqrt(xs), I(y) = integral(e^(t^2),
          t = 0..y), for s > 0, where the average vanishes past s; for s < 0
          it is |s| e^z sqrt(pi/z) erfc(sqrt(z));
        - integration by parts steps every other exponent up from these:
          L_(a+1) = (1 - (a+1)/s L_a) / x, L_0 = 1/x, and
          M_(a+1) = -((a+1) M_a + L_a) / (s x), so M_0 = -L_-1 / (s x).

        The sums run in raw interval arithmetic at wp bits, each special
        function's value widened by a bound on its error, and wp grows until
        the interval is below 2^-(prec+2) of its midpoint (the recurrence
        and a cancelling combination of terms lose bits).  Returns (value,
        error) as mpf: the midpoint rounded to ``prec`` bits, and a bound on
        its distance from the transform (``_rounded``).  No context precision
        is read or set, so threads may call it at once.
        """
        for t in self.terms:
            if t.a < -1 or (t.a == -1 and t.b):
                raise NotRegularizableError(f"v^{t.a} log(v)^{t.b} is not integrable; take its p_integral first")
        wp = prec + 32 + prec.bit_length()
        for _ in range(3):
            lo, hi = self._transform(x, wp)
            mid = libmp.mpf_shift(libmp.mpf_add(lo, hi), -1)
            rad = libmp.mpf_sub(hi, mid, 53, _UP)
            short = special.mag(rad) - special.mag(mid) + prec + 2  # bits the interval is too wide by
            if short <= 0:
                break
            wp += min(short, 4 * prec) + 16
        return _rounded((lo, hi), prec)

    def _transform(self, x, wp: int) -> tuple:
        """A raw interval at wp bits holding L[F](x) (see ``laplace``)."""
        X, S = _interval(x, wp), _interval(self.s, wp)
        Y = libmp.mpi_div(_ONE, X, wp)
        YS = libmp.mpi_div(Y, S, wp)

        def up(L, a1):  # L_(a+1) from L_a, a1 = a + 1
            t = libmp.mpi_div(libmp.mpi_mul(_interval(a1, wp), L, wp), S, wp)
            return libmp.mpi_mul(libmp.mpi_sub(_ONE, t, wp), Y, wp)

        def up_log(M, L, a1):  # M_(a+1) from M_a and L_a
            return libmp.mpi_neg(libmp.mpi_mul(libmp.mpi_add(libmp.mpi_mul(_interval(a1, wp), M, wp), L, wp), YS, wp))

        total = _ZERO
        for k in reversed(range(len(self.poly.coeffs))):
            c = _interval(self.poly.coeffs[k] * math.factorial(k), wp)
            total = libmp.mpi_mul(libmp.mpi_add(total, c, wp), Y, wp)
        need = {(t.a, t.b) for t in self.terms}
        have = {}
        ints = [int(a) for a, _ in need if a.denominator == 1]
        if ints:
            L, M = Y, None
            if (-1, 0) in need or self._has_log:
                have[(-1, 0)] = base = self._base(-1, X, S, wp)
            if self._has_log:
                M = libmp.mpi_neg(libmp.mpi_mul(base, YS, wp))
            for a in range(max(ints) + 1):
                have[(a, 0)], have[(a, 1)] = L, M
                if a < max(ints):
                    L, M = up(L, a + 1), (M and up_log(M, L, a + 1))
        halves = [a for a, _ in need if a.denominator == 2]
        if halves:
            a, L = Fraction(-1, 2), self._base(Fraction(-1, 2), X, S, wp)
            while True:
                have[(a, 0)] = L
                if a == max(halves):
                    break
                L, a = up(L, a + 1), a + 1
        for t in self.terms:
            total = libmp.mpi_add(total, libmp.mpi_mul(_interval(t.coef, wp), have[(t.a, t.b)], wp), wp)
        return total

    def _base(self, a: Fraction, X, S, wp: int) -> tuple:
        """An interval holding L_-1 or L_-1/2 (see ``laplace``).

        The special function f is evaluated at the midpoint z of x|s|'s
        interval, at wp + guard bits, and taken to be good to 2^(m - wp) of
        itself, m = 4 + the bit length of wp: the series sum O(wp) terms at
        20 guard bits.  For each base, |f'| <= (|f| + 1)(1 + 1/z), which
        bounds the move to any other point of the interval.
        """
        zs = libmp.mpi_mul(X, libmp.mpi_abs(S), wp)
        z = libmp.mpf_shift(libmp.mpf_add(*zs), -1)
        wq = wp + special.GUARD
        scale = libmp.mpi_abs(S)
        if a == -1 and self.s > 0:
            f = special.ei_scaled(z, wp)
        elif a == -1:
            f = libmp.mpf_mul(libmp.mpf_exp(z, wq), libmp.mpf_e1(z, wq), wq)
        elif self.s > 0:
            scale = libmp.mpi_mul((libmp.ftwo, libmp.ftwo), S)
            f = special.erfi_integral_scaled(z, wp)
        else:
            wq += max(0, special.mag(z))  # erfc(sqrt(z)) moves by 2z times the rounding of sqrt(z)
            root_pi_z = libmp.mpf_sqrt(libmp.mpf_div(libmp.mpf_pi(wq), z, wq), wq)
            erfc = libmp.mpf_erfc(libmp.mpf_sqrt(z, wq), wq)
            f = libmp.mpf_mul(libmp.mpf_mul(libmp.mpf_exp(z, wq), erfc, wq), root_pi_z, wq)
        af = libmp.mpf_abs(f)
        slope = libmp.mpf_mul(
            libmp.mpf_add(af, libmp.fone, 53, _UP), libmp.mpf_add(libmp.fone, libmp.mpf_div(libmp.fone, zs[0], 53, _UP), 53, _UP), 53, _UP
        )
        moved = libmp.mpf_mul(slope, libmp.mpf_sub(zs[1], zs[0], 53, _UP), 53, _UP)
        r = libmp.mpf_add(libmp.mpf_shift(af, 4 + wp.bit_length() - wp), moved, 53, _UP)
        F = (libmp.mpf_sub(f, r, wp, libmp.round_floor), libmp.mpf_add(f, r, wp, libmp.round_ceiling))
        return libmp.mpi_mul(scale, F, wp)

    def taylor(self, K: int) -> list[Fraction]:
        out = [self.poly.coeff(k) for k in range(K + 1)]
        for t in self.terms:
            tc = _vpow_taylor(t.a, t.b, K)  # coefficients in w = p/s
            for k in range(K + 1):
                out[k] += t.coef * tc[k] / self.s**k
        return out

    def p_integral(self) -> "ClosedFormKernel":
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
        poly = p_integrate_poly(self.poly) + BorelPoly((const,))
        return ClosedFormKernel(s, new_terms, poly, self.name and f"P({self.name})")


_UP = libmp.round_up
_ZERO = (libmp.fzero, libmp.fzero)
_ONE = (libmp.fone, libmp.fone)


def _interval(q, wp: int) -> tuple:
    """A raw interval holding q (a Fraction, int, float or mpf): exact unless
    q is a Fraction that is not a binary fraction of at most wp bits, and a
    point when it is exact."""
    if isinstance(q, Fraction):
        n, d = q.numerator, q.denominator
        if d & (d - 1) or n.bit_length() > wp:
            return libmp.from_rational(n, d, wp, libmp.round_floor), libmp.from_rational(n, d, wp, libmp.round_ceiling)
        v = libmp.from_man_exp(n, 1 - d.bit_length())
        return v, v
    v = q._mpf_ if hasattr(q, "_mpf_") else libmp.from_float(q) if isinstance(q, float) else libmp.from_int(q)
    return v, v


def _ball(value, error, wp: int) -> tuple:
    """The raw interval [value - error, value + error] of two mpf, widened
    outward to wp bits."""
    v, e = value._mpf_, error._mpf_
    return libmp.mpf_sub(v, e, wp, libmp.round_floor), libmp.mpf_add(v, e, wp, libmp.round_ceiling)


def _exp(iv, prec: int) -> tuple:
    """e to a raw interval, at prec bits.  Each end's ``mpf_exp`` is taken 16
    bits past prec and trusted only to lie within a unit there of e^t (it
    works 14 bits past what it is asked for); being rounded down, it is
    moved a unit down for the lower bound and two up for the upper, each
    rounded outward to prec.  e^0 = 1 is exact.  ``mpi_exp`` trusts the
    directed roundings of one approximation, and where that lies just across
    a grid point from e^t, as at every tiny t, its upper bound is below e^t.
    A point takes one exponential."""
    wp = prec + 16
    lo_t, hi_t = iv
    lo = libmp.mpf_exp(lo_t, wp, libmp.round_floor)
    hi = lo if hi_t == lo_t else libmp.mpf_exp(hi_t, wp, libmp.round_floor)

    def moved(t, e, units, rnd):
        if not t[1]:  # e^0, e^(+-inf)
            return e
        s = wp - e[3]
        return libmp.from_man_exp((e[1] << s) + units, e[2] - s, prec, rnd)

    return moved(lo_t, lo, -1, libmp.round_floor), moved(hi_t, hi, 2, libmp.round_ceiling)


def _rounded(iv, prec: int) -> tuple:
    """(value, error) as mpf from a raw interval: its midpoint rounded to
    prec bits, and a bound on the distance from that to every point of the
    interval, the radius plus the rounding."""
    lo, hi = iv
    mid = libmp.mpf_shift(libmp.mpf_add(lo, hi), -1)
    val = libmp.mpf_pos(mid, prec, libmp.round_nearest)
    err = libmp.mpf_add(libmp.mpf_sub(hi, mid, 53, _UP), libmp.mpf_abs(libmp.mpf_sub(val, mid)), 53, _UP)
    return mp.make_mpf(val), mp.make_mpf(err)


def _c2mp(q) -> mp.mpf:
    """q at the working precision: a Fraction as the quotient of its two
    integers (no float), anything else through ``mp.mpf``."""
    if isinstance(q, Fraction):
        return mp.mpf(q.numerator) / q.denominator
    return mp.mpf(q)


def _integers(coeffs: Sequence[Fraction]) -> list[int]:
    """The coefficients times the lcm of their denominators: integers in
    the same ratios."""
    lcm = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (lcm // c.denominator) for c in coeffs]


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


def positive_roots(coeffs: Sequence[Fraction], prec: int) -> list[tuple[Fraction, int]]:
    """The distinct real positive roots of sum(c_j p^j) (lowest degree
    first), ascending, each with its order, found exactly over Q.

    The coefficients are cleared of their denominators and their content, and
    the roots are isolated in (0, 2^k), a Fujiwara bound, by Descartes' rule
    of signs with bisection (Collins & Akritas, 1976), in integer Taylor
    shifts and sign counts.  An interval whose count is 1 holds one simple
    root, which Newton steps inside a bisection bracket refine (``_refine``)
    to 2^-(prec+32) of itself (32 guard bits, about 10 digits), to the
    binary fraction bisection would give.  A dyadic root
    that a bisection lands on is divided out, and the number of divisions is
    its order.  An interval narrower than 2^-(prec+10) of its lower end whose
    count v is still 2 or more is taken for one root of order v at its
    midpoint.  Raises DegenerateTableError when the leading coefficient is 0.
    """
    coeffs = [Fraction(c) for c in coeffs]
    drop = next((i for i, c in enumerate(reversed(coeffs)) if c), len(coeffs))
    if drop:
        raise DegenerateTableError(
            f"the denominator's leading coefficient is 0: its degree drops from {len(coeffs) - 1} to {len(coeffs) - 1 - drop}"
        )
    a = _integers(coeffs)
    low = next(i for i, c in enumerate(a) if c)  # p = 0 is no positive root
    g = math.gcd(*a)
    a = [c // g for c in a[low:]]
    n = len(a) - 1
    if n == 0:
        return []
    # every root is below 2 max |a_(n-i) / a_n|^(1/i) < 2^k
    top = abs(a[n]).bit_length()
    k = max([0] + [1 - (top - abs(c).bit_length() - 1) // i for i, c in enumerate(reversed(a[:n]), 1) if c])
    exact, multiple, simple = [], [], []
    todo = [([c << (k * i) for i, c in enumerate(a)], 0, 0)]  # q(t): the roots of a in p = (c + t) 2^(k-d), 0 < t < 1
    while todo:
        q, c, d = todo.pop()
        v = _sign_changes(_shift1(q[::-1]))
        if v == 1:
            simple.append((c, k - d))
        elif v and c >> (prec + 10):
            multiple.append((_dyadic(2 * c + 1, k - d - 1), v))
        elif v:
            m = len(q) - 1
            left = [x << (m - i) for i, x in enumerate(q)]  # q(t/2), t = 1 the midpoint
            order = 0
            while not sum(left):
                left, order = _divide(left, 1, 1), order + 1
            if order:
                exact.append((_dyadic(2 * c + 1, k - d - 1), order))
            todo += [(left, 2 * c, d + 1), (_shift1(left), 2 * c + 1, d + 1)]
    for r, order in exact:  # so that no end of an isolating interval is a root of a
        for _ in range(order):
            a = _divide(a, r.numerator, r.denominator)
    return sorted(exact + multiple + [(_refine(a, c, e, prec + 32), 1) for c, e in simple])


def _shift1(q: list) -> list:
    """q(t + 1), integer coefficients lowest degree first (Taylor shift)."""
    q = list(q)
    for i in range(len(q) - 1):
        for j in range(len(q) - 2, i - 1, -1):
            q[j] += q[j + 1]
    return q


def _sign_changes(q: list) -> int:
    """Descartes' count: the sign changes along q's nonzero coefficients.
    Applied to (t + 1)^n q(1/(t + 1)), it bounds the roots of q in (0, 1)
    and has their parity."""
    signs = [c > 0 for c in q if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _divide(a: list, num: int, den: int) -> list:
    """a(p) / (den p - num), exact for integer coefficients when num/den is
    a root of a in lowest terms (Gauss's lemma)."""
    out, b = [0] * (len(a) - 1), 0
    for i in range(len(a) - 1, 0, -1):
        b = (a[i] + num * b) // den
        out[i - 1] = b
    return out


def _dyadic(man: int, exp: int) -> Fraction:
    """man 2^exp, exactly."""
    return Fraction(man, 1 << -exp) if exp < 0 else Fraction(man << exp)


def _horner(coeffs, p):
    """Horner's rule, lowest degree first, over ints or mpf."""
    out = 0
    for c in reversed(coeffs):
        out = out * p + c
    return out


def _refine(a: list, c: int, e: int, bits: int) -> Fraction:
    """The simple root of a (integers, lowest degree first) in the open
    interval (c 2^e, (c+1) 2^e), whose ends are no roots, to 2^-bits of
    itself: the root if it is a point of the grid below, else the midpoint
    of the one-unit bracket around it, which is what bisection returns.

    An interval from 0 is halved until its lower end is positive, so the
    root is known to a factor of 2.  Then p = m 2^-s on a grid of step
    2^-s at most 2^-bits of the lower end, and the bracket [lo, hi] of grid
    points, where a has opposite signs, narrows until hi - lo = 1.  A root
    u 2^-k in lowest terms has 2^k dividing a's leading coefficient (the
    rational root theorem), so only the first k + e halvings can land on
    one, and those are taken as bisection does.  Each later step is
    Newton's from the end where |a| is smaller, rounded to the grid and at
    least one unit.  It costs two evaluations, the value and the
    derivative, so it is taken only inside the bracket and when it is one
    unit or at most a quarter of the Newton step before it.  Otherwise the
    bracket is halved, and 1, 2, 4, ... further halvings pass before the
    derivative is evaluated again.  Newton from the near end matters where
    the root lies close to an end: the pole of the fit of
    ``3*#ei - 1/2*#stirling`` is 4e-33 below the end 1, and a step from
    the midpoint overshoots past 1 by about the square of its distance.
    """
    while c == 0:
        e -= 1
        y = _horner(_on_grid(a, -e), 1)  # a(2^e), up to a positive factor
        if not y:
            return _dyadic(1, e)
        c = int((y > 0) == (a[0] > 0))  # a keeps its sign at 0 up to 2^e
    shift = max(0, bits + 1 - c.bit_length())
    s = shift - e
    b = _on_grid(a, s)
    slope = [i * x for i, x in enumerate(b)][1:]
    lo, hi = c << shift, (c + 1) << shift
    ylo, yhi = _horner(b, lo), None
    halvings = max(0, (a[-1] & -a[-1]).bit_length() - 1 + e)  # those that can land on a root
    backoff, last = 1, 0
    while hi - lo > 1:
        m = None
        if halvings:
            halvings -= 1
        else:
            if yhi is None:
                yhi = _horner(b, hi)
            p, y = (lo, ylo) if abs(ylo) <= abs(yhi) else (hi, yhi)
            d = _horner(slope, p)
            if d:
                if d < 0:
                    y, d = -y, -d
                step = (d - 2 * y) // (2 * d) or (-1 if y > 0 else 1)  # -y/d to the nearest unit
                if lo < p + step < hi and (abs(step) == 1 or not last or 4 * abs(step) <= last):
                    m, last = p + step, abs(step)
            if m is None:
                halvings, backoff, last = backoff, 2 * backoff, 0
        if m is None:
            m = (lo + hi) >> 1
        y = _horner(b, m)
        if not y:
            return _dyadic(m, -s)
        if (y < 0) == (ylo < 0):
            lo, ylo = m, y
        else:
            hi, yhi = m, y
    return _dyadic(lo + hi, -s - 1)


def _on_grid(a: list, s: int) -> list:
    """Integer coefficients b with sum(b_i m^i) a positive multiple of
    a(m 2^-s): 2^(s n) a(m 2^-s) for s >= 0, a(m 2^-s) itself for s < 0."""
    n = len(a) - 1
    return [x << (s * (n - i)) for i, x in enumerate(a)] if s >= 0 else [x << (-s * i) for i, x in enumerate(a)]


class PadeKernel(BorelFunction):
    """Rational approximant; its real positive poles are its singularities.

    A rational function is single-valued: its value is its average.  The
    exact ``num`` and ``den`` are cleared once, in ``__init__``, to integer
    lists over one common denominator, which no precision changes, so no mpf
    copy of them is kept; ``value`` reads the working precision only to round
    its result.  ``singularities`` finds the poles exactly over Q each time,
    and ``residue`` gives each pole's residue exactly.
    """

    #: (c1, c3) with |F| <= c1 exp(c3 p) far out, set by hand, since a fit's
    #: tail is not known: the quadrature bounds its tail with them at x > c3
    growth = (2.0, 1.0)

    def __init__(self, num: Sequence[Fraction], den: Sequence[Fraction], name: str = ""):
        self.num = tuple(Fraction(c) for c in num)
        self.den = tuple(Fraction(c) for c in den)
        self.name = name
        cleared = _integers(self.num + self.den)
        self._int_num, self._int_den = cleared[: len(self.num)], cleared[len(self.num) :]

    def singularities(self) -> list[Fraction]:
        """The poles at the working precision.  A pole of order 2 or more has
        no principal value, so it raises SingularPointError here, before any
        quadrature."""
        poles = positive_roots(self.den, mp.mp.prec)
        for p, order in poles:
            if order > 1:
                raise SingularPointError(f"Pade pole of order {order} at p = {float(p):.15g} has no principal value")
        return [p for p, _ in poles]

    def residue(self, s: Fraction) -> Fraction:
        """num(s)/den'(s) at a pole s that ``singularities`` gave, exactly:
        r/(p - s) is the pole's part of num/den.  s is a binary fraction
        m 2^-k, so both integer lists are evaluated on m as ``value``'s
        exact branch evaluates them (``_on_grid``)."""
        slope = [i * c for i, c in enumerate(self._int_den)][1:]
        n = max(len(self._int_num), len(slope)) - 1
        k = s.denominator.bit_length() - 1
        num, den = (_horner(_on_grid(c + [0] * (n + 1 - len(c)), k), s.numerator) for c in (self._int_num, slope))
        return Fraction(num, den)

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
        """num(p)/den(p) at p's mpf, correctly rounded to the working precision.

        p (a Fraction is converted as ``laplace`` converts x) is a dyadic
        m 2^e.  Both integer lists are evaluated by Horner's rule in fixed
        point with F = max(wp + 40, -e) fraction bits, so the node is exact
        and each step truncates by less than a unit: for |p| < 2^g the sum is
        within deg 2^(g deg) + 1 units.  One division at wp + 80 bits gives
        the quotient with a bound; when both ends of that interval round to
        the same wp-bit mpf, it is the value (Ziv, ACM TOMS 17, 1991).
        Otherwise both are evaluated exactly on m, and a zero denominator
        raises SingularPointError.  A non-finite p raises DomainError.
        """
        wp = mp.mp.prec
        if isinstance(p, Fraction):
            p = _c2mp(p)
        elif not isinstance(p, mp.mpf):
            p = mp.mpf(p)
        sign, man, exp, bc = p._mpf_
        if not man and p._mpf_ != libmp.fzero:
            raise DomainError(f"Pade kernel at the non-finite point p = {p}")
        if sign:
            man = -man
        frac = max(wp + 40, -exp)
        node, g = man << (exp + frac), max(0, exp + bc)  # p 2^F exactly; |p| < 2^g
        a, ea = _fixed_horner(self._int_num, node, frac, g)
        b, eb = _fixed_horner(self._int_den, node, frac, g)
        margin = abs(b) - eb
        if margin > 0:
            s = wp + 80 - a.bit_length() + b.bit_length()
            q = (a << s) // b if s >= 0 else a // (b << -s)  # a/b 2^s, to below a unit
            # |num/den - a/b| 2^s <= (ea 2^s + |a/b| 2^s eb) / (|b| - eb)
            err = ((((ea << s) if s >= 0 else ea) + (abs(q) + 1) * eb) >> (margin.bit_length() - 1)) + 2
            lo = libmp.from_man_exp(q - err, -s, wp, libmp.round_nearest)
            if lo == libmp.from_man_exp(q + err, -s, wp, libmp.round_nearest):
                return mp.make_mpf(lo)
        n = max(len(self._int_num), len(self._int_den)) - 1
        num, den = (_horner(_on_grid(c + [0] * (n + 1 - len(c)), -exp), man) for c in (self._int_num, self._int_den))
        if not den:
            raise SingularPointError(f"Pade pole at p = {p}")
        return mp.make_mpf(libmp.from_rational(num, den, wp, libmp.round_nearest))


def _fixed_horner(coeffs: list, node: int, frac: int, g: int) -> tuple[int, int]:
    """c(p) 2^frac for integers c at p = node 2^-frac, |p| < 2^g, by Horner's
    rule in fixed point, and a bound on its error in units: each step
    truncates by less than one, which the later steps multiply by |p|."""
    acc = 0
    for c in reversed(coeffs):
        acc = ((acc * node) >> frac) + (c << frac)
    deg = max(len(coeffs) - 1, 0)
    return acc, (deg << (g * deg)) + 1


@dataclass(frozen=True)
class KernelEntry:
    """c times a Borel kernel.  The Laplace transform is linear, so the sum
    integrates the kernel alone and multiplies by c."""

    kernel: BorelFunction
    c: Fraction = Fraction(1)

    def scale(self, c) -> "KernelEntry":
        return KernelEntry(self.kernel, self.c * Fraction(c))

    def __add__(self, other: "KernelEntry") -> Optional["KernelEntry"]:
        """The entry of a sum of series: (c + d) * K for c * K + d * K, else
        None (a sum of different kernels is left to the Pade fallback)."""
        if self.kernel is not other.kernel:
            return None
        return KernelEntry(self.kernel, self.c + other.c)


def derive_antidiff_kernel(mu: Fraction, offset: Fraction, y, w) -> Optional[KernelEntry]:
    """Closed-form Borel transform of the antiderivative series w.

    For a group x^b e^(mu x) y with finite y and b in {0, 1}, the transform
    of the solution of w' + (mu + b/x) w = y is exact:

        b = 0:  W = Y / (mu - p)            (partial fractions)
        b = 1:  W = w_1 + int_0^p Y'(s)/(mu - s) ds   (a log plus a polynomial)

    where Y is the polynomial Borel transform of y.  For decaying groups the
    reference point mu is negative, so W is analytic on the Laplace ray; for
    growing ones its pole v^-1 at mu is summed as the principal value.
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

    if offset == 0:
        Q, r = divide(Y)
        # W = Q(p) + (r/lam) v^-1, v = 1 - p/lam
        terms = [(r / lam, Fraction(-1), 0)] if r else []
        return KernelEntry(ClosedFormKernel(lam, terms, Q, name=f"anti({lam})"))
    # offset == 1
    dY = BorelPoly(tuple((k + 1) * c for k, c in enumerate(Y.coeffs[1:])))
    Q, r = divide(dY)
    poly = p_integrate_poly(Q) + BorelPoly((Fraction(w.coeff(1)),))
    terms = [(-r, Fraction(0), 1)] if r else []  # -r log v
    return KernelEntry(ClosedFormKernel(lam, terms, poly, name=f"anti({lam})"))


# -- canonical kernels ---------------------------------------------------------


def pole_kernel(location=1, scale=1) -> ClosedFormKernel:
    """scale / (1 - p/location): the factorially divergent model kernel."""
    return ClosedFormKernel(Fraction(location), [(Fraction(scale), Fraction(-1), 0)], name="pole")


def sqrt_branch_kernel(location=1, scale=Fraction(1, 2)) -> ClosedFormKernel:
    """scale * (1 - p/location)^(-1/2); the average vanishes beyond the cut."""
    return ClosedFormKernel(Fraction(location), [(Fraction(scale), Fraction(-1, 2), 0)], name="sqrt-branch")


class CothKernel(BorelFunction):
    """(p coth(p/2) - 2) / (2 p^2): the Binet kernel of log Gamma.

    Its Laplace transform is Binet's function (``laplace``), so no sum
    evaluates it at a point.  Its Taylor coefficients come from
    ``coth_kernel_coeff``.  The tests keep the kernel's values (the
    ``tests/reference`` subclass), integrate them by quadrature and check
    the transform against the sum.
    """

    name = "coth"

    def taylor(self, K: int) -> list[Fraction]:
        from ..coefficients import coth_kernel_coeff

        return [coth_kernel_coeff(k) for k in range(K + 1)]

    def laplace(self, x, prec: int):
        """integral(e^(-xp) F(p), p = 0..inf) in closed form: F(p) is
        (1/2 - 1/p + 1/(e^p - 1))/p, and its transform is Binet's function
        J(x) = ln Gamma(x) - (x - 1/2) ln x + x - ln(2 pi)/2 (DLMF 5.9.13;
        Costin 2008, ch. 5), the Borel sum of ``#stirling``.

        ``special.binet`` shifts x up to about 0.6 wp and sums the Stirling
        series there as row 0 of the Euler-Maclaurin sum whose rows 1..K are
        log Gamma's Taylor terms (``special.loggamma_taylor``), in integers
        over the tangent-number table the Bernoulli numbers come from; no
        Gamma function and no mpmath Gamma table is used, so the catalog's
        log Gamma oracle (``mp.loggamma``) stays an independent check.  It works at wp = prec + 20 + max(log2 x, 0)
        fraction bits, within a bound of about 2^-wp, below 2^-(prec+16) of
        J ~ 1/(12x).  A Fraction x is rounded to wp bits first, which moves J
        by less than 2^-wp, since |J'(x)| < 1/(2x).  Returns (value, error)
        as mpf: the sum rounded to ``prec`` bits, and its bound plus |value|
        2^-prec for the rounding.  The error is built from magnitudes alone.
        No context precision is read or set, so threads may call it at once.
        """
        wp = prec + special.GUARD + max(special.mag(_interval(x, 53)[0]), 0)
        X, hi = _interval(x, wp)
        mid, bound = special.binet(X, wp)
        if X != hi:
            bound = libmp.mpf_add(bound, libmp.mpf_shift(libmp.fone, -wp), 53, _UP)
        val = libmp.mpf_pos(mid, prec, libmp.round_nearest)
        err = libmp.mpf_add(bound, libmp.mpf_shift(libmp.mpf_abs(val), -prec), 53, _UP)
        return mp.make_mpf(val), mp.make_mpf(err)


class AiryKernel(BorelFunction):
    """F(z) = 2F1(1/6, 5/6; 1; z) at z = side * p/2: the Borel transform of
    the Airy u-series, sum(u_k p^k / k!) with u_k = (1/6)_k (5/6)_k / (2^k k!)
    (DLMF 9.7.2).  side = +1 is ``#airy_u`` (Bi), whose F has a logarithmic
    branch point at p = 2; side = -1 is ``#airy_u_alt`` (Ai), analytic on
    the Laplace ray.

    Its Laplace transform is a modified Bessel function of order 1/3
    (``laplace``), so no sum evaluates it at a point.  The tests keep the
    kernel's values (the ``tests/reference`` subclass, a sum of one of four
    convergent 2F1 series), integrate them and check the transform against
    the sum: by tsr's quadrature on the Ai side, and by mpmath's, split at
    p = 2, on the Bi side, since tsr's quadrature subtracts simple poles
    only.
    """

    def __init__(self, side: int):
        if side not in (1, -1):
            raise ValueError("side is +1 (Bi) or -1 (Ai)")
        self.side = side
        self.name = "airy" if side > 0 else "airy-alt"

    def taylor(self, K: int) -> list[Fraction]:
        from ..coefficients import airy_u

        return [airy_u(k) * self.side**k / math.factorial(k) for k in range(K + 1)]

    def laplace(self, x, prec: int):
        """integral(e^(-xp) F(side p/2), p = 0..inf) in closed form: a modified
        Bessel function of order 1/3 (``special.airy_laplace``), within its
        error bound of the transform.

        A Fraction x is rounded to wp = prec + 21 + max(log2 x, 0) bits
        first.  That moves the transform by at most 2 (x + 1) 2^-wp of
        itself, since |x L'(x)| <= (x + 1) L(x) on either side (from the
        Bessel form and DLMF 10.29.2).  Returns (value, error) as mpf: the
        sum rounded to ``prec`` bits, and its bound plus |value| 2^(1-prec)
        for that move and the rounding.  No context precision is read or
        set, so threads may call it at once.
        """
        X = _interval(x, prec + special.GUARD + 1 + max(special.mag(_interval(x, 53)[0]), 0))[0]
        mid, bound = special.airy_laplace(X, self.side, prec)
        val = libmp.mpf_pos(mid, prec, libmp.round_nearest)
        err = libmp.mpf_add(bound, libmp.mpf_shift(libmp.mpf_abs(val), 1 - prec), 53, _UP)
        return mp.make_mpf(val), mp.make_mpf(err)


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
    """The solution x of rows x = rhs over Q, by fraction-free Gauss-Jordan
    elimination (Bareiss, Math. Comp. 22, 1968) on the augmented rows cleared
    to integers: every division is exact, and the right-hand column ends as
    d x, d the last pivot.  Each pivot is the first nonzero entry down its
    column, as elimination over Q finds it, so DegenerateTableError is raised
    exactly when the system is singular."""
    n = len(rows)
    a = [_integers([*row, v]) for row, v in zip(rows, rhs)]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            raise DegenerateTableError("singular Pade system")
        a[col], a[pivot] = a[pivot], a[col]
        top = a[col]
        d = top[col]
        for r in range(n):
            f = a[r][col]
            if r != col:
                a[r] = [(d * v - f * w) // prev for v, w in zip(a[r], top)]
        prev = d
    return [Fraction(row[n], prev) for row in a]
