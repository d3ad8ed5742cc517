"""Height-one, depth-one transseries: exponential groups, log part, and the T1 sum.

A transseries here is a triple

* ``minus``  -- sum(j) x^(beta_j) e^(-lambda_j x) y_j(x), lambda_j > 0 distinct,
  a tuple of ``Group``s, one per rate, rates ascending, after the mu = 0 series
* ``log``    -- P(x) log x + Q(x)
* ``plus``   -- sum(j) x^(beta_j) e^(lambda_j x) y_j(x), lambda_j > 0 distinct,
  a tuple of ``Group``s, one per rate, rates descending

with all series y O(1/x).  Every pure inverse power R(1/x) lives in the
mu = 0 series, and ``assemble`` is the one place a power of x moves between
Q and it.  ``assemble`` merges the groups of each sign with ``_merge_rates``,
which sums the groups of one rate at their highest offset as one flat
``PowerSeries.sum``.  The JSON form (``parser.ts_to_json``) writes each
part as its list of groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from typing import Iterable

from ..errors import GridMergeError
from .series import PowerSeries


@dataclass
class LogPart:
    """P(x) log x + Q(x), each polynomial as its coefficients from x^0 up."""

    P: tuple[Fraction, ...] = ()
    Q: tuple[Fraction, ...] = ()

    def __post_init__(self):
        self.P = _trim(tuple(Fraction(c) for c in self.P))
        self.Q = _trim(tuple(Fraction(c) for c in self.Q))

    def p_coeff(self, i: int) -> Fraction:
        return self.P[i] if i < len(self.P) else Fraction(0)

    def q_coeff(self, i: int) -> Fraction:
        return self.Q[i] if i < len(self.Q) else Fraction(0)

    def is_zero(self) -> bool:
        return not self.P and not self.Q

    def __add__(self, other: "LogPart") -> "LogPart":
        return LogPart(_poly_add(self.P, other.P), _poly_add(self.Q, other.Q))

    def scale(self, c: Fraction) -> "LogPart":
        c = Fraction(c)
        return LogPart(tuple(c * v for v in self.P), tuple(c * v for v in self.Q))


def _trim(p: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    out = list(p)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_add(a, b):
    n = max(len(a), len(b))
    return tuple(
        (a[i] if i < len(a) else Fraction(0)) + (b[i] if i < len(b) else Fraction(0)) for i in range(n)
    )


@dataclass
class Group:
    """One exponential group x^offset * e^(mu x) * series, series O(1/x)."""

    mu: Fraction  # signed rate; 0 means no exponential
    offset: Fraction
    series: PowerSeries

    def __post_init__(self):
        self.mu = Fraction(self.mu)
        self.offset = Fraction(self.offset)


@dataclass
class TransseriesT1:
    """minus + log + plus.  ``minus`` and ``plus`` hold the groups as
    ``assemble`` leaves them: one per rate, the mu = 0 series first and
    decaying rates ascending, growing rates descending."""

    minus: tuple[Group, ...] = ()
    log: LogPart = field(default_factory=LogPart)
    plus: tuple[Group, ...] = ()


# -- raw-group assembly -------------------------------------------------------


def groups_of(ts: TransseriesT1) -> list[Group]:
    """Flatten to exponential groups (log part excluded)."""
    return list(ts.minus) + list(ts.plus)


def assemble(groups: Iterable[Group], log: LogPart = None) -> TransseriesT1:
    """Build a normalized TransseriesT1 from raw groups plus a log part.

    A mu = 0 group x^a * s puts its first a coefficients into Q, as the
    powers x^(a-1) ... x^0, and the rest into the mu = 0 series."""
    log = log if log is not None else LogPart()
    Q = list(log.Q)
    parts = []
    rated: list[Group] = []
    for grp in groups:
        if grp.mu:
            rated.append(grp)
            continue
        if grp.offset.denominator != 1:
            raise GridMergeError(f"pure power content needs integer offsets, got x^{grp.offset}")
        a = int(grp.offset)
        Q += [Fraction(0)] * (a - len(Q))
        for l in range(1, a + 1):
            Q[a - l] += grp.series.coeff(l)
        parts.append((-a, grp.series))
    base = PowerSeries.sum(parts)
    minus = _merge_rates([g for g in rated if g.mu < 0])
    if base.length != 0:
        minus.insert(0, Group(Fraction(0), Fraction(0), base))
    plus = _merge_rates([g for g in rated if g.mu > 0])
    return TransseriesT1(minus=tuple(minus), log=LogPart(log.P, tuple(Q)), plus=tuple(plus))


def _merge_rates(groups: list[Group]) -> list[Group]:
    """One group per rate, ordered by mu descending: the groups of one rate
    sum, as one flat series, at the highest of their offsets, each shifted
    down by its integer distance from it."""
    out: list[Group] = []
    for mu, same in groupby(sorted(groups, key=lambda g: (-g.mu, -g.offset)), key=lambda g: g.mu):
        top, *rest = same
        for grp in rest:
            if (top.offset - grp.offset).denominator != 1:
                raise GridMergeError(
                    f"groups at rate {abs(mu)} have offsets {top.offset}, {grp.offset} "
                    "differing by a non-integer"
                )
        parts = [(int(top.offset - g.offset), g.series) for g in [top] + rest]
        out.append(Group(mu, top.offset, PowerSeries.sum(parts)))
    return out


# -- semantic views -----------------------------------------------------------


def semantic_terms(ts: TransseriesT1, order: int) -> dict[tuple[Fraction, Fraction, int], Fraction]:
    """Exact coefficients of transmonomials x^a (log x)^s e^(mu x).

    Keys are (mu, a, s); powers reach down to x^(offset - order) per group.
    Representation-independent, so it is the equality oracle of the tests.
    """
    out: dict[tuple[Fraction, Fraction, int], Fraction] = {}

    def put(mu: Fraction, a: Fraction, s: int, c: Fraction):
        if c == 0:
            return
        key = (mu, a, s)
        out[key] = out.get(key, Fraction(0)) + c
        if out[key] == 0:
            del out[key]

    for grp in groups_of(ts):
        for l in range(1, order + 1):
            put(grp.mu, grp.offset - l, 0, grp.series.coeff(l))
    lp = ts.log
    for i, c in enumerate(lp.P):
        put(Fraction(0), Fraction(i), 1, c)
    for i, c in enumerate(lp.Q):
        put(Fraction(0), Fraction(i), 0, c)
    return out


def eq_to_order(a: TransseriesT1, b: TransseriesT1, order: int) -> bool:
    return semantic_terms(a, order) == semantic_terms(b, order)
