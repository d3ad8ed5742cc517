"""Calculus on T1: algebra, termwise differentiation, antidifferentiation.

Antidifferentiation solves, per exponential group x^b e^(mu x) y(x), the ODE
w' + (mu + b/x) w = y in power series.  Writing y = sum(c_l x^-l) and
w = sum(w_l x^-l), matching the coefficient of x^-l gives

    mu*w_l + (b - (l-1)) * w_(l-1) = c_l

so for decaying (mu < 0) and growing (mu > 0) groups alike, with w_0 = 0:

    w_l = (c_l + (l - 1 - b) * w_(l-1)) / mu.

The recurrence printed in the source material carries an inconsistent sign
and index; the derivation above is fixed by the normative round trip
ts_diff(ts_antidiff(T)) = T, which the tests enforce to every demanded order.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import DomainError
from .grid import Group, LogPart, TransseriesT1, assemble, groups_of
from .series import PowerSeries


def ts_add(a: TransseriesT1, b: TransseriesT1) -> TransseriesT1:
    return assemble(groups_of(a) + groups_of(b), a.log + b.log)


def ts_scale(c, a: TransseriesT1) -> TransseriesT1:
    c = Fraction(c)
    if c == 0:
        return TransseriesT1()
    groups = [Group(g.mu, g.offset, g.series.scale(c)) for g in groups_of(a)]
    return assemble(groups, a.log.scale(c))


def ts_mul_minus(a: TransseriesT1, b: TransseriesT1) -> TransseriesT1:
    """Product on the (unital) decaying algebra: groupwise Cauchy product.

    Constants are admitted as the algebra unit's multiples (the unit itself
    is x * x^-1 in the shifted normalization, which the assembler folds back
    into a plain constant).
    """
    ca = _constant_part(a)
    cb = _constant_part(b)
    out: list[Group] = []
    for ga in groups_of(a):
        for gb in groups_of(b):
            out.append(Group(ga.mu + gb.mu, ga.offset + gb.offset, ga.series.mul(gb.series)))
    if cb:
        out += [Group(g.mu, g.offset, g.series.scale(cb)) for g in groups_of(a)]
    if ca:
        out += [Group(g.mu, g.offset, g.series.scale(ca)) for g in groups_of(b)]
    const = ca * cb
    return assemble(out, LogPart(Q=(const,) if const else ()))


def _constant_part(ts: TransseriesT1) -> Fraction:
    """The constant of an operand of ``ts_mul_minus``; DomainError naming
    what lies outside the decaying algebra plus constants."""
    lp = ts.log
    parts = (("growing exponential groups", ts.plus), ("log part", lp.P), ("polynomial part", lp.Q[1:]))
    outside = [name for name, part in parts if part]
    if outside:
        raise DomainError(f"mul takes the decaying algebra plus constants; an operand has: {', '.join(outside)}")
    return lp.q_coeff(0)


def ts_diff(a: TransseriesT1) -> TransseriesT1:
    groups = [Group(g.mu, g.offset, g.series.diff_combo(g.offset, g.mu)) for g in groups_of(a)]
    lp = a.log
    # (P log x + Q)' = P' log x + P/x + Q'
    P = tuple((i + 1) * lp.p_coeff(i + 1) for i in range(max(len(lp.P) - 1, 0)))
    powers = [(i - 1, c) for i, c in enumerate(lp.P)] + [(i - 1, i * c) for i, c in enumerate(lp.Q)]
    return assemble(groups + _pure_powers(powers), LogPart(P))


def _pure_powers(powers) -> list[Group]:
    """The groups of the monomials c*x^i over the pairs (i, c), for assemble to fold."""
    return [Group(Fraction(0), i + 1, PowerSeries.from_coeffs([c])) for i, c in powers if c]


def _antidiff_group(g: Group) -> Group:
    mu, b, y = g.mu, g.offset, g.series

    def kernel():  # w's Borel kernel, where it is known in closed form
        from ..resummation.kernels import derive_antidiff_kernel

        return derive_antidiff_kernel(mu, b, y, w)

    def coeff(l: int) -> Fraction:
        # one recurrence for both signs of mu; w_(l-1) is memoized before w_l is asked for
        prev = w.coeff(l - 1) if l > 1 else 0
        return (y.coeff(l) + (l - 1 - b) * prev) / mu

    # the factor l-1-b vanishes at l = b+1 where y has ended: w stops at b
    ends = y.length is not None and b.denominator == 1 and b >= max(y.length, 1)
    w = PowerSeries(coeff, length=int(b) if ends else None, kernel=kernel)
    return Group(mu, b, w)


def ts_antidiff(a: TransseriesT1) -> TransseriesT1:
    """A_T: the antiderivative with zero constant term.  Each exponential
    group's series carries its derived Borel kernel (built on first read)."""
    groups: list[Group] = []
    log_coeff = Fraction(0)
    for g in groups_of(a):
        if g.mu != 0:
            groups.append(_antidiff_group(g))
            continue
        # pure inverse powers: c_1/x integrates to log x, the tail termwise
        y = g.series
        if g.offset != 0:
            raise ValueError("canonical form should keep mu = 0 content at offset 0")
        log_coeff += y.coeff(1)
        tail = PowerSeries(
            lambda l, y=y: -y.coeff(l + 1) / l,
            length=None if y.length is None else max(y.length - 1, 0),
        )
        groups.append(Group(Fraction(0), Fraction(0), tail))
    lp = a.log
    # x^i log x -> x^(i+1)/(i+1) log x - x^(i+1)/(i+1)^2, and x^i -> x^(i+1)/(i+1)
    P = (log_coeff,) + tuple(c / (i + 1) for i, c in enumerate(lp.P))
    n = max(len(lp.P), len(lp.Q))
    powers = [(i + 1, lp.q_coeff(i) / (i + 1) - lp.p_coeff(i) / (i + 1) ** 2) for i in range(n)]
    return assemble(groups + _pure_powers(powers), LogPart(P))


__all__ = [
    "ts_add",
    "ts_scale",
    "ts_mul_minus",
    "ts_diff",
    "ts_antidiff",
]
