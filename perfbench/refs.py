"""Independent references: mpmath's own special functions and closed forms.

Nothing here calls ``tsr``.  Decimal references are computed at the op's
precision + 20 digits, outside the timed region.  Exact
references (Borel coefficients, the closed forms of some normal forms) are
rational numbers computed from textbook formulas.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

import mpmath as mp

GUARD_DIGITS = 20

#: Relative tolerances, as documented per catalog entry in ``tsr``
#: (``CatalogFunction.tolerance``), pinned here so the benchmark does not move
#: when the catalog does.  Antiderivatives built by ``antidiff_no`` document
#: max(tolerance, 1e-9).
TOLERANCE = {
    "ei": 1e-10,
    "erfi_integral": 1e-12,
    "airy_ai": 1e-8,
    "airy_bi": 2e-6,
    "loggamma": 1e-10,
    "gamma": 1e-10,
    "ei_integrand": 1e-24,
    "erfi_integrand": 1e-24,
    "exp_neg_over_x": 1e-24,
    "exp": 1e-24,
    "exp_neg": 1e-24,
}
#: ``tsr sum`` has no per-entry tolerance; its default target is --tol 1e-10.
SUM_TOLERANCE = 1e-10
#: The antiderivative entry whose tolerance applies to integrate(f, a, b).
INTEGRAL_OF = {"ei_integrand": "ei", "erfi_integrand": "erfi_integral"}
ANTIDIFF_TOLERANCE = 1e-9
#: The CLI prints 20 significant digits.
CLI_DIGITS_TOLERANCE = 1e-18


def rel_tolerance(name: str, prec: int, *, integral: bool = False, cli: bool = False) -> float:
    """Tolerance for a decimal output of entry ``name`` at ``prec`` digits."""
    if integral:
        tol = TOLERANCE[INTEGRAL_OF[name]] if name in INTEGRAL_OF else ANTIDIFF_TOLERANCE
    else:
        tol = TOLERANCE[name]
    tol = max(tol, 10.0 ** -(prec - 3))
    return max(tol, CLI_DIGITS_TOLERANCE) if cli else tol


# -- functions on the real line ------------------------------------------------------


def _erfi_integral(x):
    return mp.sqrt(mp.pi) / 2 * mp.erfi(x)


FUNCTION = {
    "ei": mp.ei,
    "erfi_integral": _erfi_integral,
    "airy_ai": mp.airyai,
    "airy_bi": mp.airybi,
    "loggamma": mp.loggamma,
    "gamma": mp.gamma,
    "exp": mp.exp,
    "exp_neg": lambda x: mp.exp(-x),
    "ei_integrand": lambda x: mp.exp(x) / x,
    "erfi_integrand": lambda x: mp.exp(x * x),
    "exp_neg_over_x": lambda x: mp.exp(-x) / x,
}

#: Antiderivatives with zero constant at +infinity where the integral
#: converges there (the ``antidiff_no`` convention); otherwise any
#: antiderivative, since only differences of them are compared.
ANTIDERIVATIVE = {
    "ei_integrand": mp.ei,
    "erfi_integrand": _erfi_integral,
    "exp_neg": lambda x: -mp.exp(-x),
    "exp_neg_over_x": lambda x: mp.ei(-x),  # -E1(x)
    "exp": mp.exp,
    "ei": lambda x: x * mp.ei(x) - mp.exp(x),
}


def _loggamma_integral(a, b):
    """Raabe: integral of log Gamma over [n, n+1] = log(2 pi)/2 + n log n - n."""
    if a != int(a) or b != int(b):
        return mp.quad(mp.loggamma, [a, b])
    return mp.fsum(mp.log(2 * mp.pi) / 2 + n * mp.log(n) - n for n in range(int(a), int(b)))


def definite_integral(name: str, a, b):
    if name == "loggamma":
        return _loggamma_integral(a, b)
    if name == "gamma":
        return mp.quad(mp.gamma, [a, b])
    F = ANTIDERIVATIVE[name]
    return F(b) - F(a)


# -- asymptotic series summed in closed form ---------------------------------------------


def _ei_series(x):
    return mp.exp(-x) * mp.ei(x)


def _stirling_series(x):
    return mp.loggamma(x) - (x - mp.mpf(1) / 2) * mp.log(x) + x - mp.log(2 * mp.pi) / 2


def _airy_z(t):
    return (3 * t / 2) ** (mp.mpf(2) / 3)


def _airy_ai_series(t):
    z = _airy_z(t)
    return 2 * mp.sqrt(mp.pi) * z ** (mp.mpf(1) / 4) * mp.exp(t) * mp.airyai(z) / t


def _airy_bi_series(t):
    z = _airy_z(t)
    return mp.sqrt(mp.pi) * z ** (mp.mpf(1) / 4) * mp.exp(-t) * mp.airybi(z) / t


def _erfi_series(t):
    return mp.exp(-t) / mp.sqrt(t) * _erfi_integral(mp.sqrt(t))


#: Sum of each parsed expression at x (medians of the lateral sums).
SERIES_SUM = {
    "#ei": _ei_series,
    "#stirling": _stirling_series,
    "#airy_u_alt": _airy_ai_series,
    "#airy_u": _airy_bi_series,
    "#erfi": _erfi_series,
    "3*#ei - 1/2*#stirling": lambda x: 3 * _ei_series(x) - _stirling_series(x) / 2,
    "#ei + exp(-2*x)*#stirling": lambda x: _ei_series(x) + mp.exp(-2 * x) * _stirling_series(x),
}




def series_sum(expr: str, x):
    """Sum of a parsed expression at x: a SERIES_SUM entry, or c*#name."""
    if expr in SERIES_SUM:
        return SERIES_SUM[expr](x)
    coef, _, name = expr.partition("*")
    q = Fraction(coef)
    return mp.mpf(q.numerator) / q.denominator * SERIES_SUM[name](x)


# -- Taylor coefficients ----------------------------------------------------------------


def taylor_coefficients(name: str, x0, n: int) -> list:
    """f^(k)(x0)/k! for k < n."""
    if name == "loggamma":
        return [mp.loggamma(x0)] + [mp.psi(k - 1, x0) / mp.factorial(k) for k in range(1, n)]
    if name == "gamma":
        # Gamma = exp(log Gamma): exponentiate the polygamma series
        a = taylor_coefficients("loggamma", x0, n)
        b = [mp.exp(a[0])]
        for m in range(1, n):
            b.append(mp.fsum(k * a[k] * b[m - k] for k in range(1, m + 1)) / m)
        return b
    if name in ("airy_ai", "airy_bi"):
        return [FUNCTION[name](x0, derivative=k) / mp.factorial(k) for k in range(n)]
    return mp.taylor(FUNCTION[name], x0, n - 1)


# -- exact closed forms -------------------------------------------------------------------


def bernoulli_numbers(n: int) -> list[Fraction]:
    """B_0..B_n (B_1 = +1/2) by the Akiyama-Tanigawa algorithm."""
    out = []
    a = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    return out


def airy_u(k: int) -> Fraction:
    """DLMF 9.7.2: u_k = (2k+1)(2k+3)...(6k-1) / (216^k k!)."""
    num = 1
    for j in range(2 * k + 1, 6 * k, 2):
        num *= j
    return Fraction(num, 216**k * factorial(k))


def series_coefficients(name: str, n: int) -> list[Fraction]:
    """c_1..c_n of the named series sum(c_l x^-l)."""
    if name == "#ei":
        return [Fraction(factorial(l - 1)) for l in range(1, n + 1)]
    if name == "#erfi":
        return [Fraction(factorial(2 * (l - 1)), 2 * 4 ** (l - 1) * factorial(l - 1)) for l in range(1, n + 1)]
    if name == "#airy_u":
        return [airy_u(l - 1) for l in range(1, n + 1)]
    if name == "#airy_u_alt":
        return [(-1) ** (l - 1) * airy_u(l - 1) for l in range(1, n + 1)]
    if name == "#stirling":
        B = bernoulli_numbers(n + 1)
        return [B[l + 1] / (l * (l + 1)) if l % 2 == 1 else Fraction(0) for l in range(1, n + 1)]
    raise KeyError(name)


def borel_coefficients(name: str, order: int) -> list[Fraction]:
    """The Borel transform c_(k+1) p^k / k!, k = 0..order."""
    c = series_coefficients(name, order + 1)
    return [c[k] / factorial(k) for k in range(order + 1)]


def ei_at_omega_coefficients(n: int) -> list[Fraction]:
    """Ei(w) = sum((k-1)! w^(w-k))."""
    return [Fraction(factorial(k - 1)) for k in range(1, n + 1)]


def erfi_at_omega_coefficients(n: int) -> list[Fraction]:
    """int_0^w e^(s^2) ds = sum((2k)!/(2 4^k k!) w^(w^2-2k-1)): 1/2, 1/4, 3/8, 15/16, ..."""
    return [Fraction(comb(2 * k, k) * factorial(k), 2 * 4**k) for k in range(n)]
