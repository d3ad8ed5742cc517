"""The values of the Binet and Airy kernels: the tests' independent reference
for their closed-form Laplace sums.

``CothKernel`` and ``AiryKernel`` sum their transforms in closed form, so
``tsr`` never evaluates them at a point.  The subclasses here add the values
and the growth constants that bound a quadrature's tail, so a test can
integrate them by quadrature (``conftest.QuadratureOnly``) and compare with
the closed form.  The Airy values sum one convergent
series (DLMF 15.8), chosen by z = side p/2 so that its ratio is at most 5/8:

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

Past the branch point the two lateral continuations are complex
conjugates; their average, the value, is the real part of either, in
which ln w becomes ln|w| and (-z)^(-a) becomes |z|^(-a) cos(pi a).  The
coefficients are fixed-point integers, built once per working precision
and kept on the kernel; a value is a Horner sum over as many of them as its
ratio needs, in integer arithmetic.

tsr's quadrature subtracts simple poles only, so it cannot sum the Bi-side
kernel across its log branch point at p = 2: that kernel's ``singularities``
refuses with a SingularPointError, and the tests sum it with mpmath's
quadrature, split at p = 2.
"""

from __future__ import annotations

import math

import mpmath as mp
from mpmath import libmp

from tsr.errors import SingularPointError
from tsr.resummation import AiryKernel, CothKernel, special
from tsr.resummation.kernels import _c2mp, _horner


def _at_prec(cache: dict, build):
    """build()'s value at the working precision, built once per precision
    and kept in ``cache``; a lost race between threads stores an equal
    value."""
    prec = mp.mp.prec
    out = cache.get(prec)
    if out is None:
        out = cache[prec] = build()
    return out


class CothReference(CothKernel):
    """The Binet kernel with its values: the closed form, or the even Taylor
    polynomial near 0 where the closed form cancels."""

    growth = (1.0, 0.0)  # falls from 1/12 at p = 0 like 1/(2p): subexponential

    def __init__(self):
        self._mp_taylor: dict[int, tuple] = {}

    def singularities(self) -> list:
        return []

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


class AiryReference(AiryKernel):
    """The Airy kernel with its values (see the module docstring)."""

    #: c1 claims |F| <= 1.25: on the Ai side everywhere (0 < F <= 1), on the
    #: Bi side only past p = 2.33, since near its log branch point at p = 2
    #: F exceeds 1.25 on about (1.64, 2.33).  Only the tests' quadrature of
    #: the Ai side reads the constants; tsr sums both sides in closed form
    #: at every x > 0
    growth = (1.25, 0.0)

    def __init__(self, side: int):
        super().__init__(side)
        self._tables: dict[int, tuple] = {}

    def singularities(self) -> list:
        """None on the Ai side.  The Bi side's log branch point at p = 2 is no
        pole, so a quadrature sum, which subtracts simple poles only, is
        refused."""
        if self.side > 0:
            raise SingularPointError(
                "the Bi-side Airy kernel has a log branch point at p = 2; tsr's quadrature subtracts simple poles only"
            )
        return []

    def value(self, p):
        re = _airy_f(_at_prec(self._tables, _airy_tables), self.side * mp.mpf(p) / 2)
        return mp.make_mpf(libmp.mpf_pos(re, mp.mp.prec, libmp.round_nearest))


def _airy_tables() -> tuple:
    """(wp, series coefficients, constants) of ``_airy_f`` at the working
    precision: the coefficients as integers scaled by 2^wp, as many as a
    ratio of 5/8 needs, the constants as raw mpf at wp bits."""
    wp = mp.mp.prec + special.GUARD
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
    """Re F(z + i0), F = 2F1(1/6, 5/6; 1; .), at real z as a raw mpf at the
    precision of ``tables`` (see ``_airy_tables``); F is real below the
    branch point z = 1."""
    wp, (a, ah, e, g1, g2), (inv_2pi, c1, c2, half_sqrt3) = tables
    n = len(a)
    one = 1 << wp
    x = libmp.to_fixed(z._mpf_, wp)
    fixed = lambda v: libmp.from_man_exp(v, -wp)  # noqa: E731
    if 5 * abs(x) <= 3 * one:
        return fixed(_fixed_sum(x, wp, _terms(x, wp, n), a))
    if 0 < x and 5 * x <= 8 * one:
        w = one - x
        if w == 0:
            raise SingularPointError("evaluation at the branch point p = 2")
        s1, s0 = _fixed_sum2(w, wp, _terms(w, wp, n), ah, a)
        logw = libmp.mpf_log(fixed(abs(w)), wp)
        return libmp.mpf_mul(libmp.mpf_sub(fixed(s1), libmp.mpf_mul(logw, fixed(s0), wp), wp), inv_2pi, wp)
    if x < 0 and 5 * -x <= 8 * one:
        omz = one - x  # 1 - z
        zeta = (-x << wp) // omz  # z / (z - 1)
        s = _fixed_sum(zeta, wp, _terms(zeta, wp, n), e)
        return libmp.mpf_mul(fixed(s), libmp.mpf_nthroot(fixed(omz), -6, wp), wp)
    r = (one << wp) // x if x > 0 else -((one << wp) // -x)  # 1/z
    s1, s2 = _fixed_sum2(r, wp, _terms(r, wp, n), g1, g2)
    mag = libmp.mpf_abs(z._mpf_)
    root = libmp.mpf_nthroot(mag, -6, wp)  # |z|^(-1/6)
    t1 = libmp.mpf_mul(libmp.mpf_mul(c1, root, wp), fixed(s1), wp)
    t2 = libmp.mpf_div(libmp.mpf_mul(c2, fixed(s2), wp), libmp.mpf_mul(mag, root, wp), wp)  # |z|^(-5/6) G2
    if x < 0:
        return libmp.mpf_sub(t1, t2, wp)
    return libmp.mpf_mul(libmp.mpf_add(t1, t2, wp), half_sqrt3, wp)  # cos(pi/6) = -cos(5 pi/6)


def reference_kernel(kernel):
    """The reference with values for a registered Binet or Airy kernel; any
    other kernel as it is."""
    if isinstance(kernel, CothKernel):
        return CothReference()
    if isinstance(kernel, AiryKernel):
        return AiryReference(kernel.side)
    return kernel
