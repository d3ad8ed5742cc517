"""Borel-plane and averaging tools the tests use beside ``tsr.resummation``:
the Laplace convolution of Borel polynomials (the Borel image of a product
of series), and the half-half weight family, a second consistent family for
the consistency diagnostic."""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from tsr.resummation import BorelPoly


def convolve(f: BorelPoly, g: BorelPoly) -> BorelPoly:
    """Laplace convolution: (p^a/a!) * (p^b/b!) = p^(a+b+1)/(a+b+1)!."""
    if not f.coeffs or not g.coeffs:
        return BorelPoly(())
    n = len(f.coeffs) + len(g.coeffs)
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


def half_half_weight(a: str) -> Fraction:
    return Fraction(1, 2 ** len(a))
