"""Exact coefficient sequences for the worked function catalog.

Everything here is a rational-number recurrence: factorial growth for the
exponential-integral series, the binomial-halving erfi coefficients, the
Airy u_k recurrence, Bernoulli numbers and the Stirling tail they generate.
The registry maps each ``#name`` to its coefficients and Borel kernel;
:func:`named_series` gives the series with that kernel attached.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import factorial
from typing import Optional

from .resummation.kernels import AiryKernel, CothKernel, KernelEntry, pole_kernel, sqrt_branch_kernel
from .resummation.special import tangent_numbers
from .transseries.series import PowerSeries


def bernoulli(n: int) -> Fraction:
    """B_n with B_1 = -1/2; B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) from the
    tangent numbers T_k, the one table Binet's function is summed over too."""
    if n < 2:
        return Fraction(-1, 2) if n else Fraction(1)
    if n % 2:
        return Fraction(0)
    k = n // 2
    return (-1) ** (k - 1) * Fraction(n * tangent_numbers(k)[k - 1], 4**k * (4**k - 1))


@functools.lru_cache(maxsize=None)
def airy_u(k: int) -> Fraction:
    """DLMF 9.7.2: u_0 = 1, u_k = u_(k-1) (6k-5)(6k-3)(6k-1) / (216 k (2k-1))."""
    if k == 0:
        return Fraction(1)
    return airy_u(k - 1) * Fraction((6 * k - 5) * (6 * k - 3) * (6 * k - 1), 216 * k * (2 * k - 1))


def ei_coeff(l: int) -> Fraction:
    """Sum(k! x^(-k-1)): c_l = (l-1)!."""
    return Fraction(factorial(l - 1))


def erfi_coeff(l: int) -> Fraction:
    """Critical-time series of the erfi integral: c_l = (2n)!/(2 4^n n!), n = l-1.

    These are the rationalized Gamma(n + 1/2)/(2 sqrt(pi)) forced by the
    leading 1/(2x) term of the integration-by-parts expansion.
    """
    n = l - 1
    return Fraction(factorial(2 * n), 2 * 4**n * factorial(n))


def stirling_coeff(l: int) -> Fraction:
    """Stirling tail of log Gamma: B_(2n+2)/((2n+1)(2n+2)) at x^-(2n+1)."""
    if l % 2 == 0:
        return Fraction(0)
    n = (l - 1) // 2
    return bernoulli(2 * n + 2) / ((2 * n + 1) * (2 * n + 2))


def airy_ai_coeff(l: int) -> Fraction:
    """Alternating u-series of Ai in the critical time: c_l = (-1)^(l-1) u_(l-1)."""
    return (-1) ** (l - 1) * airy_u(l - 1)


def airy_bi_coeff(l: int) -> Fraction:
    return airy_u(l - 1)


def coth_kernel_coeff(k: int) -> Fraction:
    """Taylor coefficient of (p coth(p/2) - 2) / (2 p^2) at p^k (k >= 0)."""
    if k % 2 == 1:
        return Fraction(0)
    n = k // 2
    return bernoulli(2 * n + 2) / Fraction(factorial(2 * n + 2))


#: name -> (coefficients, Borel kernel factory).  Every transform
#: is known in closed form (Costin, *Asymptotics and Borel Summability*,
#: ch. 5): B(#ei) = 1/(1-p), B(#erfi) = (1-p)^(-1/2)/2, B(#stirling) =
#: (p coth(p/2) - 2)/(2 p^2), and B(#airy_u) = 2F1(1/6, 5/6; 1; p/2), at
#: -p/2 for #airy_u_alt.
_REGISTRY = {
    "ei": (ei_coeff, lambda: pole_kernel(1)),
    "erfi": (erfi_coeff, lambda: sqrt_branch_kernel(1, Fraction(1, 2))),
    "airy_u": (airy_bi_coeff, lambda: AiryKernel(1)),
    "airy_u_alt": (airy_ai_coeff, lambda: AiryKernel(-1)),
    "stirling": (stirling_coeff, CothKernel),
}

NAMED_SERIES = tuple(sorted(_REGISTRY))


@functools.cache
def named_series(name: str) -> PowerSeries:
    """The series #name, one instance per process; its kernel is built on first read."""
    try:
        coeff, kernel = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown series oracle #{name}") from None
    return PowerSeries(coeff, kernel=lambda: KernelEntry(kernel()))


def named_multiple(ps: PowerSeries) -> Optional[tuple[str, Fraction]]:
    """(name, c) when ``ps`` is c * #name, c nonzero, read off its kernel
    entry: #name's own kernel object (whose c is 1); else None."""
    entry = ps.kernel
    if entry is None or not entry.c:
        return None
    for name in NAMED_SERIES:
        if named_series(name).kernel.kernel is entry.kernel:
            return name, entry.c
    return None
