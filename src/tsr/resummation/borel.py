"""Borel-plane polynomials: transform, Laplace convolution, P-integration.

The Borel transform maps c_l x^-l (l >= 1) to c_(k+1) p^k / k!, so factorial
divergence in the physical plane becomes a finite radius of convergence here.
Everything in this module is exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from ..transseries.series import PowerSeries


@dataclass(frozen=True)
class BorelPoly:
    """Truncated Borel-plane polynomial sum(b_k p^k, k = 0..K)."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __add__(self, other: "BorelPoly") -> "BorelPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return BorelPoly(tuple(self.coeff(k) + other.coeff(k) for k in range(n)))

    def scale(self, c) -> "BorelPoly":
        return BorelPoly(tuple(Fraction(c) * v for v in self.coeffs))

    def __call__(self, p):
        out = 0
        for c in reversed(self.coeffs):
            out = out * p + c
        return out


def borel_transform(s: PowerSeries, K: int) -> BorelPoly:
    """b_k = c_(k+1) / k! for k = 0..K."""
    return BorelPoly(tuple(s.coeff(k + 1) / factorial(k) for k in range(K + 1)))


def inverse_borel(b: BorelPoly) -> PowerSeries:
    """The series whose Borel transform truncates to ``b``."""
    return PowerSeries.from_coeffs([b.coeff(l - 1) * factorial(l - 1) for l in range(1, b.degree + 2)])


def convolve(f: BorelPoly, g: BorelPoly) -> BorelPoly:
    """Laplace convolution: (p^a/a!) * (p^b/b!) = p^(a+b+1)/(a+b+1)!."""
    if not f.coeffs or not g.coeffs:
        return BorelPoly(())
    n = f.degree + g.degree + 2
    out = [Fraction(0)] * n
    for i, a in enumerate(f.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(g.coeffs):
            if b == 0:
                continue
            k = i + j + 1
            out[k] += a * b * Fraction(factorial(i) * factorial(j), factorial(k))
    return BorelPoly(tuple(out))


def unit() -> BorelPoly:
    return BorelPoly((Fraction(1),))


def p_integrate_poly(b: BorelPoly, m: int = 1) -> BorelPoly:
    """P^m on polynomials: m-fold antiderivative from 0 (equals (1*)^m b)."""
    out = b
    for _ in range(m):
        out = BorelPoly((Fraction(0),) + tuple(c / (k + 1) for k, c in enumerate(out.coeffs)))
    return out
