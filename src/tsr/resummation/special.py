"""Ei, the erfi integral, Binet's function, the log Gamma Taylor terms and the Airy Borel sums in raw ``mpmath.libmp`` arithmetic.

One implementation serves the catalog's real-line oracles and the closed-form
Laplace transforms of ``ClosedFormKernel``: the convergent series, DLMF 6.6.1
for Ei (O(x) terms) and 7.6.4 for integral(e^(s^2), s = 0..x) (O(x^2) terms),
and past the working bits their asymptotic series (``_asymptotic``), so the
work stays bounded at any x.  The Laplace transform of ``AiryKernel``
(``airy_laplace``) is a modified Bessel function of order 1/3, summed the same
two ways.  Binet's function (``binet``, the transform of ``CothKernel``) and
the Taylor coefficients of ln Gamma (``loggamma_taylor``: psi and Hurwitz
zeta values) are rows of one shifted Euler-Maclaurin sum (``_em_tails``),
over the table of tangent numbers (``tangent_numbers``) that the Bernoulli
numbers come from too.  Every function takes an explicit precision, works at
``GUARD`` bits above it and returns an unrounded raw mpf; nothing reads or
writes a context's precision, so threads may call them at once.
"""

from __future__ import annotations

import functools
import math
import threading

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


def _asymptotic(factor, v, wp):
    """sum(t_k, k >= 0), t_0 = 1, t_k = t_(k-1) factor(k) / v: past the
    working bits wp, Ei(v) is e^v / v times it for factor k (DLMF 6.12.2),
    and integral(e^(s^2), s = 0..x) is e^(x^2) / (2x) times it for factor
    2k - 1 and v = 2x^2 (DLMF 7.12).  The terms fall while factor(k) < v,
    to about e^-v sqrt(2 pi v) for Ei and e^-(x^2) for the integral, far
    below 2^-wp; the sum stops at the first term below 2^-wp of it.
    """
    term = total = libmp.fone
    k = 0
    while mag(term) > mag(total) - wp:
        k += 1
        term = libmp.mpf_div(libmp.mpf_mul_int(term, factor(k), wp), v, wp)
        total = libmp.mpf_add(total, term, wp)
    return total


def ei(v, prec: int):
    """Ei(v) for a raw v > 0: gamma + ln v + sum(v^k / (k k!), k >= 1).

    Near the zero of Ei (v = 0.3725...) the three parts cancel; the sum is
    redone with as many more bits as the cancellation took.  Past v = wp,
    the working bits, the asymptotic series takes over.
    """
    wp = prec + GUARD
    if libmp.mpf_gt(v, libmp.from_int(wp)):
        return libmp.mpf_div(libmp.mpf_mul(libmp.mpf_exp(v, wp), _asymptotic(lambda k: k, v, wp), wp), v, wp)
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
        return libmp.mpf_div(_asymptotic(lambda k: k, z, wp), z, wp)
    return libmp.mpf_mul(libmp.mpf_exp(libmp.mpf_neg(z), wp), ei(z, prec), wp)


def erfi_integral(v, prec: int):
    """integral(e^(s^2), s = 0..v) = sum(v^(2k+1) / (k! (2k+1)), k >= 0) for raw v.

    Every term has the sign of v.  Past v^2 = wp the asymptotic series
    takes over.
    """
    wp = prec + GUARD
    x2 = libmp.mpf_mul(v, v)  # exact
    if libmp.mpf_gt(x2, libmp.from_int(wp)):
        total = _asymptotic(lambda k: 2 * k - 1, libmp.mpf_shift(x2, 1), wp)
        return libmp.mpf_div(libmp.mpf_mul(libmp.mpf_exp(x2, wp), total, wp), libmp.mpf_shift(v, 1), wp)
    return _series(v, libmp.mpf_mul(v, v, wp), 0, lambda k: 2 * k + 1, wp)


def erfi_integral_scaled(z, prec: int):
    """e^(-z) integral(e^(s^2), s = 0..sqrt(z)) / sqrt(z) for a raw z > 0: a
    series in z itself, sum(z^k / (k! (2k+1))), so no square root is formed."""
    wp = prec + GUARD
    if libmp.mpf_gt(z, libmp.from_int(wp)):
        two_z = libmp.mpf_shift(z, 1)
        return libmp.mpf_div(_asymptotic(lambda k: 2 * k - 1, two_z, wp), two_z, wp)
    series = _series(libmp.fone, z, 0, lambda k: 2 * k + 1, wp)
    return libmp.mpf_mul(libmp.mpf_exp(libmp.mpf_neg(z), wp), series, wp)


_TANGENT_LOCK = threading.Lock()
_tangent = (1,)  # T_1, T_2, ...: replaced whole, under the lock, never changed


def tangent_numbers(n: int) -> tuple:
    """(T_1, ..., T_m) for some m >= n, with tan z = sum(T_k z^(2k-1) / (2k-1)!).

    Brent and Harvey's integer recurrence ("Fast computation of Bernoulli,
    tangent and secant numbers", 2013) builds the table in O(m^2) small
    multiples and sums.  A table that is too short is rebuilt at least twice
    as long, under a lock, and published as one immutable tuple, so every
    thread reads a whole table.
    """
    global _tangent
    table = _tangent
    if len(table) < n:
        with _TANGENT_LOCK:
            if len(_tangent) < n:
                m = max(n, 2 * len(_tangent))
                t = [0, 1] + [0] * (m - 1)
                for k in range(2, m + 1):
                    t[k] = (k - 1) * t[k - 1]
                for k in range(2, m + 1):
                    for j in range(k, m + 1):
                        t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
                _tangent = tuple(t[1:])
            table = _tangent
    return table


def binet(x, F: int):
    """Binet's function J(x) = ln Gamma(x) - (x - 1/2) ln x + x - ln(2 pi)/2
    at a raw x > 0, as raw (value, error bound), the bound about 2^-F for
    any F > log2 x.  No Gamma function is evaluated.

    x is shifted to X = x + N >= X0 (``_em_shift``), since
    ln Gamma(X) = ln Gamma(x) + ln(x (x+1) ... (x+N-1)):

        J(x) = J(X) + (X - 1/2) ln X - (x + 1/2) ln x - ln P - N,  P = prod(x + j, j = 1..N-1),

    and with N = 0 there is J(X) alone.  J(X) = X H_0 is the Stirling
    series sum(B_2i / (2i (2i-1) X^(2i-1))) (DLMF 5.11.1), row 0 of the
    Euler-Maclaurin tails (``_em_tails``); for real X > 0 its remainder is
    below the first term left out (DLMF 5.11(ii)), below 2^-(F+1) at X0
    (``_em_terms``) and so at every X >= X0, and 2^(1-F) bounds it with
    the float arithmetic of that choice.

    The product is taken two factors at a time, x^2 + (2j+1) x + j(j+1)
    from the integer x^2, and each factor and product is kept to ``keep``
    bits, each truncation within 2^(1-keep) of it, so ln P is off by less
    than N 2^(2-keep).  The logs and their products, at wp bits, are each
    within a few units of the largest part, 2^m, which adds 2^(m+5-wp).
    """
    X0, terms = _em_shift(F, range(1))
    N = max(X0 - libmp.to_int(x), 0)
    X = libmp.mpf_add(x, libmp.from_int(N))  # exact
    [(H, h_err)] = _em_tails(X, range(1), terms, F)
    JX = libmp.mpf_mul(X, H, F + 8)
    bound = libmp.mpf_mul(X, h_err, 53, libmp.round_up)
    for e in (1 - F, mag(JX) - F - 7):  # the remainder; the product's rounding
        bound = libmp.mpf_add(bound, libmp.mpf_shift(libmp.fone, e), 53, libmp.round_up)
    if not N:
        return JX, bound
    wp = F + mag(X) + mag(X).bit_length() + 5  # X ln X < 2^(wp - F - 5)
    keep = wp + N.bit_length() + 2
    _, man, exp, _ = x
    up = max(-exp, 0)
    base = man << exp + up  # x 2^up, an integer
    square, scaled = base * base, base << up
    p, shift = 1, 0
    for j in range(1, N, 2):
        if j + 1 < N:
            f, shift = square + (2 * j + 1) * scaled + (j * (j + 1) << 2 * up), shift - 2 * up
        else:
            f, shift = base + (j << up), shift - up
        drop = max(f.bit_length() - keep, 0)
        p *= f >> drop
        more = max(p.bit_length() - keep, 0)
        p >>= more
        shift += drop + more
    parts = (
        libmp.mpf_mul(libmp.mpf_sub(X, libmp.fhalf), libmp.mpf_log(X, wp), wp),
        libmp.mpf_neg(libmp.mpf_mul(libmp.mpf_add(x, libmp.fhalf), libmp.mpf_log(x, wp), wp)),
        libmp.mpf_neg(libmp.mpf_log(libmp.from_man_exp(p, shift), wp)),
    )
    mid = libmp.mpf_sum((JX, *parts, libmp.from_int(-N)))  # exact
    bound = libmp.mpf_add(bound, libmp.mpf_shift(libmp.fone, max(map(mag, parts)) + 5 - wp), 53, libmp.round_up)
    return mid, libmp.mpf_add(bound, libmp.from_man_exp(N, 2 - keep), 53, libmp.round_up)


def loggamma_taylor(x, K: int, prec: int) -> list:
    """[(psi(x), bound), (c_2, bound), ..., (c_K, bound)] at a raw x > 0, as
    raw values with error bounds: the Taylor coefficients k = 1..K of
    ln Gamma at x, psi(x) and c_k = psi^(k-1)(x) / k! = (-1)^k zeta(k, x) / k
    (DLMF 5.15, 25.11), each bound below 2^-(prec+3) of its value.  No Gamma
    or polygamma function is evaluated.

    ``_psi_zeta`` sums them at F bits, F = prec + GUARD to start.  The
    zeta sums are positive and come within 2^(4-F) of their values; psi
    alone is a difference and may cancel (its zero is at x = 1.4616...), so
    F grows by the bits the bound is short of until psi's bound holds too.
    """
    F = prec + GUARD
    while True:
        out = _psi_zeta(x, K, F)
        short = max(mag(err) - mag(val) for val, err in out) + prec + 4
        if short <= 0:
            return out
        F += min(short, F)


def _psi_zeta(x, K: int, F: int) -> list:
    """psi(x) within about 2^-F and c_k = (-1)^k zeta(k, x) / k within about
    2^-F of c_k, for k = 2..K, as [(value, bound), ...].

    x is shifted to X = x + N >= X0 (``_em_shift``), and

        psi(x) = psi(X) - S_1,   zeta(s, x) = S_s + zeta(s, X),   S_s = sum((x+j)^-s, j < N).

    The S_s are summed in fixed point, in units 2^-W (``_reciprocal_powers``):
    the unit is below 2^-F of the first term x^-s by about s log2(x) bits.
    At X the Euler-Maclaurin tails are rows 1..K of ``_em_tails`` (DLMF
    5.11.2, 25.11(xii)):

        psi(X) = ln X - 1/(2X) - H_1,   zeta(s, X) = X^(1-s) (1/(s-1) + 1/(2X) + H_s).

    Each tail is within 2^-(F + bitlen(s)) of the series, so within 2^-F
    of the bracket's 1/(s-1), or of 1 for psi.  The rest, at wp = F + 8
    bits in raw mpf, adds a few units of 2^-wp of each part.
    """
    rows = range(1, K + 1)
    X0, terms = _em_shift(F, rows)
    N = max(X0 - libmp.to_int(x), 0)
    X = libmp.mpf_add(x, libmp.from_int(N))  # exact
    W = F + (N * (2 * K - 1)).bit_length() + K * (max(mag(x), 0) + 1)
    sums, errs = _reciprocal_powers(x, N, K, W, mag(x))
    tails = _em_tails(X, rows, terms, F)
    wp = F + 8
    half_X = libmp.mpf_div(libmp.fone, libmp.mpf_shift(X, 1), wp)
    out = []
    for s, (H, h_err) in zip(rows, tails):
        h_err = libmp.mpf_add(h_err, libmp.mpf_shift(libmp.fone, -F - s.bit_length()), 53, libmp.round_up)
        S = libmp.from_man_exp(sums[s], -W)
        S_err = libmp.from_man_exp(errs[s], -W)
        if s == 1:
            parts = (libmp.mpf_log(X, wp), libmp.mpf_neg(half_X), libmp.mpf_neg(H), libmp.mpf_neg(S))
            val = libmp.mpf_sum(parts)  # exact
            err = libmp.mpf_add(h_err, S_err, 53, libmp.round_up)
            err = libmp.mpf_add(err, libmp.mpf_shift(libmp.fone, max(map(mag, parts)) + 3 - wp), 53, libmp.round_up)
            out.append((val, err))
            continue
        bracket = libmp.mpf_sum((libmp.mpf_div(libmp.fone, libmp.from_int(s - 1), wp), half_X, H), wp)
        power = libmp.mpf_pow_int(X, 1 - s, wp)
        tail = libmp.mpf_mul(power, bracket, wp)
        zeta = libmp.mpf_add(S, tail, wp)
        val = libmp.mpf_div(zeta, libmp.from_int(-s if s % 2 else s), wp)
        # the bracket's error, scaled by X^(1-s); the roundings: four of
        # the tail, one of zeta and one of the division, each below 2^(1-wp)
        err = libmp.mpf_add(S_err, libmp.mpf_mul(power, h_err, 53, libmp.round_up), 53, libmp.round_up)
        err = libmp.mpf_add(err, libmp.mpf_shift(zeta, 4 - wp), 53, libmp.round_up)
        err = libmp.mpf_div(err, libmp.from_int(s), 53, libmp.round_up)
        out.append((val, err))
    return out


def _reciprocal_powers(x, N: int, K: int, W: int, ex: int):
    """(S, E): S[s] = floor-rounded sum((x+j)^-s, j < N) in units 2^-W and
    E[s] a bound on its error in those units, for s = 1..K (index 0 unused).

    With x + j = d 2^-up for an integer d, r = floor(2^(W+up) / d) is
    1/(x+j) within a unit, and v_s = floor(v_(s-1) r / 2^W) its s-th
    power.  For y = 1/(x+j), v_s errs by E_s <= y E_(s-1) + y^(s-1) + 1:
    at most 2s - 1 units where y <= 1, and (2s - 1) y^(s-1) units where
    y > 1, so for all j below (2s - 1) max(1, 2^(1-ex))^(s-1), 2^(ex-1) <= x.
    """
    _, man, exp, _ = x
    up = max(-exp, 0)
    base = man << exp + up  # x 2^up, an integer
    one = 1 << W + up
    sums = [0] * (K + 1)
    for j in range(N):
        r = v = one // (base + (j << up))
        sums[1] += v
        for s in range(2, K + 1):
            v = v * r >> W
            sums[s] += v
    grow = max(1 - ex, 0)
    errs = [0] + [N * (2 * s - 1) << (s - 1) * grow for s in range(1, K + 1)]
    return sums, errs


def _em_tails(X, rows, terms, F: int) -> list:
    """[(H_s, bound) for s in rows] as raw mpf, with z = 1/(4X^2) and
    M_s from ``terms`` (``_em_shift``):

        H_s = sum((-1)^(i-1) b_i(s) z^i, i = 1..M_s),
        b_i(s) = T_i C(s+2i-2, 2i-1) / (4^i - 1),   b_i(0) = T_i / ((2i-1) (4^i - 1)),

    over the tangent numbers (``tangent_numbers``), since B_2i =
    (-1)^(i-1) 2i T_i / (4^i (4^i - 1)) and (s)_(2i-1) / (2i-1)! =
    C(s+2i-2, 2i-1).  Row 0 is the limit of C(s+2i-2, 2i-1) / s as s -> 0:
    X H_0 is the Stirling series of Binet's function (``binet``), and rows
    s >= 1 are the tails of psi and zeta(s) (``_psi_zeta``).  Each H_s is
    within its bound, about 2^-F, of the sum.

    By Horner's rule in integers: h_M = b_M, h_i = b_i - z h_(i+1) and
    H_s = z h_1.  Level i is held in units of 2^(-F1 + (i-1) D), with
    2^D <= 4X^2 < 2^(D+1), so a step multiplies by r = 2^D / (4X^2) in
    (1/2, 1], floored from G bits; each b_i is held to the absolute unit
    of the sum that its level maps to, so none underflows while b_i z^i
    still counts.  The one division of a level, q_i = T_i / (4^i - 1) in
    units 2^-E of the level's unit, serves every row: b_i(s) is q_i C >> E
    and b_i(0) is floor(q_i / (2i-1)) >> E, within 2 units for C < 2^E.
    So each step errs by at most 4 + |h| 2^-G units (two floors of b_i,
    one of the product and r's), and an error at level i reaches h_1
    times r^(i-1) <= 1.
    """
    K, M = rows[-1], max(terms)
    T = tangent_numbers(M)
    _, man, exp, _ = X
    m2 = man * man
    D = m2.bit_length() + 2 * exp + 1  # 2^D <= 4X^2 < 2^(D+1)
    F1 = F + K.bit_length() + (4 * M).bit_length() + 2
    E = K + 2 * M  # C(s+2i-2, 2i-1) < 2^(s+2i-2)
    G = F1 + M + K.bit_length() + 1  # |h| < max(s, 1) 2^(F1 + i) at level i
    r = (1 << G + m2.bit_length() - 1) // m2  # floor(2^(G+D) / (4X^2))
    q = [0]
    for i in range(1, M + 1):
        d, f = (1 << 2 * i) - 1, F1 - (i - 1) * D + E
        q.append((T[i - 1] << f) // d if f >= 0 else T[i - 1] // (d << -f))
    four_X2 = libmp.mpf_shift(libmp.mpf_mul(X, X), 2)  # exact
    out = []
    for s, M in zip(rows, terms):
        h = units = 0
        for i in range(M, 0, -1):
            units += 4 + (abs(h) >> G)
            b = q[i] * math.comb(s + 2 * i - 2, 2 * i - 1) if s else q[i] // (2 * i - 1)
            h = (b >> E) - (h * r >> G)
        H = libmp.mpf_div(libmp.from_man_exp(h, -F1), four_X2, F + 8)
        bound = libmp.mpf_div(libmp.from_man_exp(units, -F1), four_X2, 53, libmp.round_up)
        out.append((H, libmp.mpf_add(bound, libmp.mpf_shift(libmp.fone, mag(H) - F - 7), 53, libmp.round_up)))
    return out


@functools.lru_cache(maxsize=256)
def _em_shift(F: int, rows: range):
    """(X0, (M_s for s in rows)): the shift point for the tails ``rows`` of
    ``_em_tails`` at F bits, and each one's number of terms at X0
    (``_em_terms``).

    Row 0 alone (``binet``) shifts to X0 = ceil(0.6 F), rows 1..K
    (``_psi_zeta``) to ceil(0.17 F) + K, about 1.5 times the X at which
    the tail of zeta(K, X) first reaches 2^-F (2 pi X = F ln 2 + O(K)).
    Each was measured the cheapest first call, at 1000 and 3000 digits and
    from 15 to 1000 (the pair product or the reciprocal powers trade off
    against the tails); row 0 at 0.17 F takes a tangent table so long that
    its O(M^2) build made a cold 3000-digit Stirling sum 3.3 times as
    slow.  Should the tail still stop falling early, X0 grows by half
    until it does not; for smaller s the terms fall sooner.
    """
    K = rows[-1]
    X0 = math.ceil(0.17 * F) + K if K else math.ceil(0.6 * F)
    while _em_terms(F, X0, K) is None:
        X0 += X0 // 2
    return X0, tuple(_em_terms(F, X0, s) for s in rows)


def _em_terms(F: int, X0: int, s: int):
    """The first M whose term M + 1 of the tail H_s at X0 is below
    2^-(F + bitlen(s) + 1), or None if the terms stop falling first; at
    least one term is taken.  t^-s is completely monotone, so the remainder
    is below the first term left out (DLMF 2.10(i), 5.11(ii)).

    Term i is below 4 Gamma(s+2i-1) / (Gamma(s) (2 pi X0)^(2i)), as
    |B_2i| < 4 (2i)! / (2 pi)^(2i) (DLMF 24.9).  Row 0's bound drops the
    1/Gamma(s) and takes one more factor X0: it bounds the Stirling term
    X0 b_i(0) z^i = |B_2i| / (2i (2i-1) X0^(2i-1)) of ``binet``.
    """
    ln_2pi_x, floor = math.log(2 * math.pi * X0), -(F + s.bit_length() + 1) * math.log(2)
    lg_s = math.lgamma(s) if s else -math.log(X0)
    i = 1
    while True:
        nxt = math.log(4) + math.lgamma(s + 2 * i + 1) - lg_s - (2 * i + 2) * ln_2pi_x
        if nxt < floor:
            return i
        if (s + 2 * i - 1) * (s + 2 * i) >= (2 * math.pi * X0) ** 2:
            return None
        i += 1


def airy_laplace(t, side: int, prec: int):
    """The Borel sum of the Airy u-series, sum(side^k u_k / t^(k+1)), at a raw
    t > 0, as raw (value, error bound): the Laplace transform of the kernel
    2F1(1/6, 5/6; 1; side p/2), averaged past p = 2 for side = +1.  From
    Ai and Bi in terms of K and I of order 1/3 (DLMF 9.6.1, 9.6.3) and their
    expansions (DLMF 9.7.5, 9.7.7):

        side = -1:  L(t) = sqrt(2/(pi t)) e^t K_(1/3)(t)
        side = +1:  L(t) = sqrt(pi/(2t)) e^(-t) (I_(-1/3)(t) + I_(1/3)(t))

    Where the asymptotic series falls to 2^-wp before its terms grow, that
    series is summed (``_airy_asymptotic``), else the series of I_(-1/3) and
    I_(1/3) are (``_airy_bessel``).  The working precision wp starts at
    ``GUARD`` bits above prec and grows until the error bound is below
    2^-(prec+4) of the value.
    """
    wp = prec + GUARD
    while True:
        val, err = _airy_asymptotic(t, side, wp) or _airy_bessel(t, side, wp)
        short = mag(err) - mag(val) + prec + 4  # bits the bound is too coarse by
        if short <= 0:
            return val, err
        wp += short


def _airy_asymptotic(t, side: int, wp: int):
    """(sum(side^k u_k / t^k, k < l) / t, error bound) for the first l whose
    term has fallen to its own rounding, or None when the terms stop falling
    before that.

    u_k = (1/6)_k (5/6)_k / (2^k k!), so each term is the one before times
    r_k = (6k+1)(6k+5) / (72 (k+1) t), compared exactly.  The sum is the
    expansion of t L(t) from that of K_(1/3) (DLMF 10.40.2): on the ray of t
    itself for side -1; for side +1, I_(-1/3) + I_(1/3) is the difference of
    K_(1/3) at t e^(-pi i) and at t e^(pi i) over pi i (DLMF 10.34.2,
    10.27.4), so t L(t) is the mean of the two expansions, each this sum.
    On each ray the rest after l terms is at most 2 chi(l) exp(5 pi / (72 t))
    times the first term left out, with chi(l) = sqrt(pi) Gamma(l/2 + 1) /
    Gamma(l/2 + 1/2) < sqrt(2 (l+1)) (DLMF 10.40(iii); Olver 1974, ch. 7).
    The terms are wp-bit fixed-point integers, each floored once; while they
    fall, term k is below the true one by less than k units, so the sum is
    off by less than l^2/2 of them.
    """
    _, man, exp, _ = t
    up, down = max(-exp, 0), max(exp, 0)  # t = man 2^exp
    total, term, k = 0, 1 << wp, 0
    while term > k:
        total += term if side > 0 or k % 2 == 0 else -term
        num, den = (6 * k + 1) * (6 * k + 5) << up, 72 * (k + 1) * man << down
        if num >= den:
            return None
        term, k = term * num // den, k + 1
    # exp(5 pi / (72 t)) < 2 for t >= 2, and < e^pi < 2^5 for t > 5/72, where r_0 < 1
    boost = 1 if mag(t) >= 2 else 5
    units = k * k // 2 + ((math.isqrt(2 * k + 2) + 1) * (term + k) << boost + 1)
    val = libmp.mpf_div(libmp.from_man_exp(total, -wp), t, wp)
    err = libmp.mpf_div(libmp.from_man_exp(units, -wp), t, 53, libmp.round_up)
    return val, libmp.mpf_add(err, libmp.mpf_shift(libmp.mpf_abs(val), 1 - wp), 53, libmp.round_up)


def _airy_bessel(t, side: int, wp: int):
    """(L(t), error bound) from the power series of I_(-1/3) and I_(1/3).

    With y = t^2/4, c = (t/2)^(1/3), g = Gamma(1/3) (``gamma_third``) and
    Gamma(2/3) = 2 pi / (sqrt 3 g), Gamma(4/3) = g/3 (DLMF 10.25.2, 10.27.4,
    5.5.3):

        L(t) = sqrt(2/(pi t)) e^t (g A / (2c) - sqrt 3 pi c B / g)             side -1
        L(t) = sqrt(3/4) sqrt(2/(pi t)) e^(-t) (g A / (2c) + sqrt 3 pi c B / g)  side +1

    where A = sum((3y)^k / (k! prod(3j+2, j < k))) and B the same with 3j+4.
    Their terms are positive and summed in fixed point at wq bits; on the
    side -1 the two parts cancel to about e^(-2t) of each, so wq has
    2t log2(e) bits more.  After n terms, n below 2^b, the relative error of
    A and B is below 2^(b+3-wq): the step 3y is rounded once and each term
    floored twice, and while the terms grow each carries the errors of the
    ones before it.  The constants, at 10 bits more, add less than a unit,
    and the products three bits.
    """
    extra = int(2.886 * libmp.to_float(t)) + 8 if side < 0 else 0  # 2 log2(e) = 2.8854
    wq = wp + extra
    s = libmp.to_fixed(libmp.mpf_shift(libmp.mpf_mul(libmp.mpf_mul(t, t), libmp.from_int(3)), -2), wq)
    a = b = A = B = 1 << wq
    n = 0
    while a:
        n += 1
        a = (a * s >> wq) // (n * (3 * n - 1))
        b = (b * s >> wq) // (n * (3 * n + 1))
        A += a
        B += b
    w2 = wq + 10
    g = gamma_third(w2)
    c = libmp.mpf_cbrt(libmp.mpf_shift(t, -1), w2)
    pi = libmp.mpf_pi(w2)
    sqrt3 = libmp.mpf_sqrt(libmp.from_int(3), w2)
    left = libmp.mpf_div(libmp.mpf_mul(g, libmp.from_man_exp(A, -wq), w2), libmp.mpf_shift(c, 1), w2)
    right = libmp.mpf_div(libmp.mpf_mul(libmp.mpf_mul(sqrt3, pi, w2), libmp.mpf_mul(c, libmp.from_man_exp(B, -wq), w2), w2), g, w2)
    d = libmp.mpf_add(left, right if side > 0 else libmp.mpf_neg(right))  # exact
    pre = libmp.mpf_sqrt(libmp.mpf_div(libmp.ftwo, libmp.mpf_mul(pi, t, w2), w2), w2)
    pre = libmp.mpf_mul(pre, libmp.mpf_exp(libmp.mpf_neg(t) if side > 0 else t, w2), w2)
    if side > 0:
        pre = libmp.mpf_mul(pre, libmp.mpf_shift(sqrt3, -1), w2)
    val = libmp.mpf_mul(pre, d, wq)
    bound = mag(pre) + max(mag(left), mag(right)) + n.bit_length() + 6 - wq
    err = libmp.mpf_add(libmp.mpf_shift(libmp.fone, bound), libmp.mpf_shift(libmp.fone, mag(val) + 2 - wq), 53, libmp.round_up)
    return val, err


def precision_class(prec: int) -> int:
    """prec rounded up to a multiple of 64 bits: a constant that depends on
    the precision alone is computed once at its class and rounded to each
    precision of the class, so its value depends on prec alone."""
    return -(-prec // 64) * 64


def gamma_third(prec: int):
    """Gamma(1/3) as a raw mpf, good to a unit at prec bits: computed once
    per ``precision_class`` and rounded to nearest at prec."""
    return libmp.mpf_pos(_gamma_third_class(precision_class(prec)), prec, libmp.round_nearest)


@functools.lru_cache(maxsize=128)
def _gamma_third_class(prec: int):
    """Gamma(1/3) to a unit at prec bits from the AGM:
    Gamma(1/3)^3 = 2^(4/3) pi^2 / (3^(1/4) agm(1, (sqrt 6 + sqrt 2) / 4)),
    the complete elliptic integral at the singular value k_3 = sin(pi/12)
    (Borwein & Borwein, *Pi and the AGM*, 1987, ch. 1; DLMF 19.8.5)."""
    wp = prec + 10
    pi = libmp.mpf_pi(wp)
    k = libmp.mpf_shift(libmp.mpf_add(libmp.mpf_sqrt(libmp.from_int(6), wp), libmp.mpf_sqrt(libmp.from_int(2), wp), wp), -2)
    den = libmp.mpf_mul(libmp.mpf_sqrt(libmp.mpf_sqrt(libmp.from_int(3), wp), wp), libmp.mpf_agm(libmp.fone, k, wp), wp)
    num = libmp.mpf_shift(libmp.mpf_mul(libmp.mpf_cbrt(libmp.ftwo, wp), libmp.mpf_mul(pi, pi, wp), wp), 1)
    return libmp.mpf_cbrt(libmp.mpf_div(num, den, wp), prec)
