"""The decimal Taylor terms of c x^n e^(rate x^p), computed the plain way:
e^phi as ``mpi_exp`` of an interval around phi and q_k(x) in mpf operator
arithmetic at the working precision.  ``exp_poly_taylor`` does the same
operations in raw ``libmp`` calls, one exponential at an exact phi, and the
tests check that the two agree bit for bit.  (They can differ where e^phi
lies within about 2^-12 units of the grid at guard bits, where the two
enclosures can differ by a unit: the midpoint then moves by half a unit at
guard bits, and a term only if that crosses a rounding boundary.)
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import mpmath as mp
from mpmath import libmp

from tsr.resummation import special


def taylor_polys(n: int, rate: Fraction, p: int, c: Fraction, k: int) -> dict:
    """q_k of f^(k) = e^phi q_k, phi = rate x^p, from q_0 = c x^n and
    q_(j+1) = q_j' + phi' q_j, as {power: coefficient}.  The powers are
    listed as the product's recurrence lists them, q_j' first, since a sum
    of rounded terms depends on its order."""
    q = {n: Fraction(c)}
    for _ in range(k):
        nxt = {j - 1: j * a for j, a in q.items() if j}
        for j, a in q.items():
            nxt[j + p - 1] = nxt.get(j + p - 1, Fraction(0)) + p * rate * a
        q = {j: a for j, a in nxt.items() if a}
    return q


def _exp_interval(mu: Fraction, x: mp.mpf, prec: int) -> tuple:
    """e^(mu x) enclosed at prec bits, mu x enclosed at the bits
    ``laplace._exp_rate`` picks."""
    wp = prec + max(special.mag(x._mpf_) + mu.numerator.bit_length(), 0) + 10
    m = (libmp.from_rational(mu.numerator, mu.denominator, wp, libmp.round_floor),
         libmp.from_rational(mu.numerator, mu.denominator, wp, libmp.round_ceiling))
    return libmp.mpi_exp(libmp.mpi_mul(m, (x._mpf_, x._mpf_), wp), prec)


def exp_poly_term(n: int, rate: Fraction, p: int, c: Fraction, x0, k: int) -> mp.mpf:
    """f^(k)(x0)/k! at the working precision, x0 rounded to it first."""
    prec = mp.mp.prec
    x = mp.mpf(x0)
    with mp.workprec(2 * p * prec):
        xp = x**p  # exact
    lo, hi = _exp_interval(Fraction(rate), xp, prec + special.GUARD)
    e_phi = mp.make_mpf(libmp.mpf_pos(libmp.mpf_shift(libmp.mpf_add(lo, hi), -1), prec, libmp.round_nearest))
    total = 0
    for j, a in taylor_polys(n, Fraction(rate), p, c, k).items():
        total += x**j * a.numerator / a.denominator
    return e_phi * total / factorial(k)
