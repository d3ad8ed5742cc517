"""Ei and the erfi integral in raw ``mpmath.libmp`` arithmetic.

One implementation serves the catalog's real-line oracles and the closed-form
Laplace transforms of ``ClosedFormKernel``: the convergent series, DLMF 6.6.1
for Ei (O(x) terms) and 7.6.4 for integral(e^(s^2), s = 0..x) (O(x^2) terms),
and past the working bits their asymptotic series, DLMF 6.12.2 and 7.12, so
the work stays bounded at any x.  Every function takes an explicit precision,
works at ``GUARD`` bits above it and returns an unrounded raw mpf; nothing
reads or writes a context's precision, so threads may call them at once.
"""

from __future__ import annotations

from mpmath import libmp

GUARD = 20  # bits above the requested precision


def mag(v) -> int:
    """e with |v| < 2^e for a raw mpf; a very small number for zero."""
    return v[2] + v[3] if v[1] else -(1 << 62)


def _series(first, step, k, weight, wp):
    """sum(p_j / weight(j), j >= k) with p_k = first and p_j = p_(j-1) * step / j,
    for step > 0.

    It is first times sum(t_j / weight(j)), t_k = 1, t_j = t_(j-1) * step / j,
    summed in wp-bit fixed point: every term is positive and the sum is at
    least 1/weight(k), so an absolute 2^-wp per term is a relative one.  The
    sum stops at the first term that rounds to zero.
    """
    s = libmp.to_fixed(step, wp)
    t = 1 << wp
    total = t // weight(k)
    while t:
        k += 1
        t = (t * s >> wp) // k
        total += t // weight(k)
    return libmp.mpf_mul(first, libmp.from_man_exp(total, -wp), wp)


def ei(v, prec: int):
    """Ei(v) for a raw v > 0: gamma + ln v + sum(v^k / (k k!), k >= 1).

    Near the zero of Ei (v = 0.3725...) the three parts cancel; the sum is
    redone with as many more bits as the cancellation took.  Past v = wp,
    the working bits, the asymptotic series takes over.
    """
    wp = prec + GUARD
    if libmp.mpf_gt(v, libmp.from_int(wp)):
        return libmp.mpf_div(libmp.mpf_mul(libmp.mpf_exp(v, wp), _ei_asymptotic(v, wp), wp), v, wp)
    while True:
        parts = (libmp.mpf_euler(wp), libmp.mpf_log(v, wp), _series(v, v, 1, lambda k: k, wp))
        out = libmp.mpf_add(libmp.mpf_add(parts[0], parts[1], wp), parts[2], wp)
        lost = max(map(mag, parts)) - mag(out)
        if wp - lost >= prec + GUARD // 2:
            return out
        wp = prec + GUARD + lost


def ei_scaled(z, prec: int):
    """e^(-z) Ei(z) for a raw z > 0, with no e^z formed past z = wp."""
    wp = prec + GUARD
    if libmp.mpf_gt(z, libmp.from_int(wp)):
        return libmp.mpf_div(_ei_asymptotic(z, wp), z, wp)
    return libmp.mpf_mul(libmp.mpf_exp(libmp.mpf_neg(z), wp), ei(z, prec), wp)


def _ei_asymptotic(v, wp):
    """sum(k! / v^k, k >= 0), with Ei(v) = e^v / v times it, for v > wp (DLMF 6.12.2).

    The terms fall while k < v, to about e^-v sqrt(2 pi v) at k = v, which
    for v > wp is far below 2^-wp; the sum stops at the first term below
    2^-wp of it.
    """
    term = total = libmp.fone
    k = 0
    while mag(term) > mag(total) - wp:
        k += 1
        term = libmp.mpf_div(libmp.mpf_mul_int(term, k, wp), v, wp)
        total = libmp.mpf_add(total, term, wp)
    return total


def erfi_integral(v, prec: int):
    """integral(e^(s^2), s = 0..v) = sum(v^(2k+1) / (k! (2k+1)), k >= 0) for raw v.

    Every term has the sign of v.  Past v^2 = wp the asymptotic series
    takes over.
    """
    wp = prec + GUARD
    x2 = libmp.mpf_mul(v, v)  # exact
    if libmp.mpf_gt(x2, libmp.from_int(wp)):
        total = _erfi_integral_asymptotic(x2, wp)
        return libmp.mpf_div(libmp.mpf_mul(libmp.mpf_exp(x2, wp), total, wp), libmp.mpf_shift(v, 1), wp)
    return _series(v, libmp.mpf_mul(v, v, wp), 0, lambda k: 2 * k + 1, wp)


def erfi_integral_scaled(z, prec: int):
    """e^(-z) integral(e^(s^2), s = 0..sqrt(z)) / sqrt(z) for a raw z > 0: a
    series in z itself, sum(z^k / (k! (2k+1))), so no square root is formed."""
    wp = prec + GUARD
    if libmp.mpf_gt(z, libmp.from_int(wp)):
        return libmp.mpf_div(_erfi_integral_asymptotic(z, wp), libmp.mpf_shift(z, 1), wp)
    series = _series(libmp.fone, z, 0, lambda k: 2 * k + 1, wp)
    return libmp.mpf_mul(libmp.mpf_exp(libmp.mpf_neg(z), wp), series, wp)


def _erfi_integral_asymptotic(x2, wp):
    """sum((2k-1)!! / (2 x^2)^k, k >= 0) for x^2 = ``x2`` > wp, with the
    integral e^(x^2) / (2x) times it (Dawson's integral, DLMF 7.12).

    The terms fall to about e^-(x^2) at k = x^2, far below 2^-wp; the sum
    stops at the first term below 2^-wp of it.
    """
    two_x2 = libmp.mpf_shift(x2, 1)
    term = total = libmp.fone
    k = 0
    while mag(term) > mag(total) - wp:
        k += 1
        term = libmp.mpf_div(libmp.mpf_mul_int(term, 2 * k - 1, wp), two_x2, wp)
        total = libmp.mpf_add(total, term, wp)
    return total
