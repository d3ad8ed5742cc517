"""Borel-plane polynomials: transform and P-integration.

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

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __add__(self, other: "BorelPoly") -> "BorelPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return BorelPoly(tuple(self.coeff(k) + other.coeff(k) for k in range(n)))


def borel_transform(s: PowerSeries, K: int) -> BorelPoly:
    """b_k = c_(k+1) / k! for k = 0..K."""
    return BorelPoly(tuple(s.coeff(k + 1) / factorial(k) for k in range(K + 1)))


def p_integrate_poly(b: BorelPoly) -> BorelPoly:
    """P on polynomials: the antiderivative from 0 (equals 1 * b)."""
    return BorelPoly((Fraction(0),) + tuple(c / (k + 1) for k, c in enumerate(b.coeffs)))
