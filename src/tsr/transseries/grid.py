"""Height-one, depth-one transseries: exponential groups, log part, and the T1 sum.

A transseries here is a triple

* ``minus``  -- sum(j) x^(beta_j) e^(-lambda_j x) y_j(x), lambda_j > 0 distinct,
  a tuple of ``Group``s, one per rate, rates ascending, after the mu = 0 series
* ``log``    -- P(x) log x + Q(x) + R(1/x) with R constant-free
* ``plus``   -- sum(j) x^(beta_j) e^(lambda_j x) y_j(x), lambda_j > 0 distinct,
  a tuple of ``Group``s, one per rate, rates descending

with all series y O(1/x).  Internally the representation is normalized to
m = 0: the R component is empty and every pure inverse power lives in the
mu = 0 series.  ``assemble`` folds an R into that series and is the one
place a power of x moves between Q and it; the ``TransseriesT1``
constructor rejects a nonempty R.  ``assemble`` merges the groups of each sign with ``_merge_rates``,
which sums the groups of one rate at their highest offset as one flat
``PowerSeries.sum``.

The multi-index grid sum(k) x^(beta.k) e^(-k.lambda x) y_k(x) of the decaying
part exists only in JSON: ``grid_from_groups`` derives it from the groups
alone, and ``groups_from_grid`` reads it back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from typing import Iterable, Optional

from ..errors import GridMergeError, ResonanceError
from .series import PowerSeries

MultiIndex = tuple[int, ...]

#: window used for bounded nonresonance validation
RESONANCE_WINDOW = 16


@dataclass
class LogPart:
    """P(x) log x + Q(x) + R(1/x); R stored as coefficients of x^-1, x^-2, ..."""

    P: tuple[Fraction, ...] = ()
    Q: tuple[Fraction, ...] = ()
    R: tuple[Fraction, ...] = ()

    def __post_init__(self):
        self.P = _trim(tuple(Fraction(c) for c in self.P))
        self.Q = _trim(tuple(Fraction(c) for c in self.Q))
        self.R = _trim(tuple(Fraction(c) for c in self.R))

    def p_coeff(self, i: int) -> Fraction:
        return self.P[i] if i < len(self.P) else Fraction(0)

    def q_coeff(self, i: int) -> Fraction:
        return self.Q[i] if i < len(self.Q) else Fraction(0)

    def is_zero(self) -> bool:
        return not self.P and not self.Q and not self.R

    def __add__(self, other: "LogPart") -> "LogPart":
        return LogPart(_poly_add(self.P, other.P), _poly_add(self.Q, other.Q), _poly_add(self.R, other.R))

    def scale(self, c: Fraction) -> "LogPart":
        c = Fraction(c)
        return LogPart(
            tuple(c * v for v in self.P), tuple(c * v for v in self.Q), tuple(c * v for v in self.R)
        )


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
    """minus + log + plus with R empty: ``assemble`` folds R(1/x) into the
    mu = 0 series, and the constructor rejects a nonempty R.  ``minus`` and
    ``plus`` hold the groups as ``assemble`` leaves them: one per rate, the
    mu = 0 series first and decaying rates ascending, growing rates
    descending."""

    minus: tuple[Group, ...] = ()
    log: LogPart = field(default_factory=LogPart)
    plus: tuple[Group, ...] = ()

    def __post_init__(self):
        if self.log.R:
            raise ValueError("a T1 keeps R(1/x) in its mu = 0 series; build it with assemble")


def validate_nonresonance(lam: tuple[Fraction, ...]) -> None:
    """Bounded check of the nonresonance condition on the rate generators.

    Rejects integer relations d . lam = 0 with |d_i| <= RESONANCE_WINDOW; this
    is exact for every support the library enumerates (all bounded by the window).
    """
    n = len(lam)
    if n <= 1:
        return
    # pairwise check is enough for relations of the form a*lam_i = b*lam_j
    for i in range(n):
        for j in range(i + 1, n):
            q = lam[i] / lam[j]
            if q.numerator <= RESONANCE_WINDOW and q.denominator <= RESONANCE_WINDOW:
                raise ResonanceError(
                    f"rates {lam[i]} and {lam[j]} are commensurate within the window: "
                    f"{q.denominator}*{lam[i]} = {q.numerator}*{lam[j]}"
                )


# -- raw-group assembly -------------------------------------------------------


def groups_of(ts: TransseriesT1) -> list[Group]:
    """Flatten to exponential groups (log part excluded)."""
    return list(ts.minus) + list(ts.plus)


def assemble(groups: Iterable[Group], log: LogPart = None) -> TransseriesT1:
    """Build a normalized TransseriesT1 from raw groups plus a log part.

    A mu = 0 group x^a * s puts its first a coefficients into Q, as the
    powers x^(a-1) ... x^0, and the rest into the mu = 0 series beside R(1/x)."""
    log = log if log is not None else LogPart()
    Q = list(log.Q)
    parts = [(0, PowerSeries.from_coeffs(log.R))]
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
    return TransseriesT1(minus=tuple(minus), log=LogPart(log.P, tuple(Q), ()), plus=tuple(plus))


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


# -- the JSON grid of the decaying part ----------------------------------------


def _dot(k: MultiIndex, v: Iterable[Fraction]) -> Fraction:
    return sum((Fraction(ki) * vi for ki, vi in zip(k, v)), Fraction(0))


def groups_from_grid(lam, beta, series: dict[MultiIndex, PowerSeries]) -> list[Group]:
    """The groups x^(beta.k) e^(-k.lambda x) y_k of a grid, ordered by rate
    ascending (ties: offset descending); refuses resonant generators and keys
    of one rate whose offsets differ by a non-integer."""
    lam, beta = tuple(map(Fraction, lam)), tuple(map(Fraction, beta))
    if any(v <= 0 for v in lam):
        raise ValueError("minus-grid rates must be positive")
    if len(beta) != len(lam):
        raise ValueError("lambda and beta must have equal length")
    validate_nonresonance(lam)
    for k in series:
        if len(k) != len(lam) or any(i < 0 for i in k):
            raise ValueError(f"bad multi-index {k}")
    groups = sorted(
        (Group(-_dot(k, lam), _dot(k, beta), s) for k, s in series.items()), key=lambda g: (-g.mu, -g.offset)
    )
    for a, b in zip(groups, groups[1:]):
        if a.mu == b.mu and (a.offset - b.offset).denominator != 1:
            raise ResonanceError(f"support points collide at rate {-a.mu}")
    return groups


def grid_from_groups(groups: Iterable[Group]):
    """(lambda, beta, keyed series, growing groups) of the JSON form, a
    function of the groups alone.  A finite series first drops its zero ends
    (``_trimmed``).  For the decaying groups, one generator, the gcd g of the
    rates, serves when every multiple r/g is at most 64 and one beta puts
    every offset at k*beta less a natural number; the least beta >=
    max(0, offset/k) is taken.  Otherwise the generators are picked greedily
    over ascending rates, and must be nonresonant.  Each series is padded to
    its key's offset k.beta, the mu = 0 series sitting at the zero key."""
    groups = [t for t in map(_trimmed, groups) if t is not None]
    decaying = [g for g in groups if g.mu < 0]
    lam, beta, keys = _one_generator(decaying) or _greedy(decaying)
    try:
        validate_nonresonance(lam)
    except ResonanceError as exc:
        raise GridMergeError(str(exc)) from exc
    keyed = [((0,) * len(lam), g.series) for g in groups if not g.mu]
    for k, g in zip(keys, decaying):
        keyed.append((k, g.series.shift_down(int(_dot(k, beta) - g.offset))))
    return lam, beta, keyed, [g for g in groups if g.mu > 0]


def _trimmed(g: Group) -> Optional[Group]:
    """The group with its finite series cut to its nonzero span, the offset
    lowered by the zeros cut at the start (the mu = 0 series keeps them and
    its offset 0); None for a zero finite series."""
    s = g.series
    if s.length is None:
        return g
    c = s.coeffs(s.length)
    nonzero = [l for l, v in enumerate(c) if v]
    if not nonzero:
        return None
    lead = nonzero[0] if g.mu else 0
    return Group(g.mu, g.offset - lead, PowerSeries.from_coeffs(c[lead : nonzero[-1] + 1]))


def _one_generator(groups: list[Group]):
    if not groups:
        return (), (), []
    rates = [-g.mu for g in groups]
    gen = rates[0]
    for r in rates[1:]:
        num = math.gcd(gen.numerator * r.denominator, r.numerator * gen.denominator)
        gen = Fraction(num, gen.denominator * r.denominator)
    ks = [int(r / gen) for r in rates]
    if max(ks) > 64:
        return None
    low = max([Fraction(0)] + [g.offset / k for g, k in zip(groups, ks)])
    # beta lies in (offset + Z)/k of the first group, and beta + 1 serves when beta does
    first = math.ceil(low * ks[0] - groups[0].offset)
    for n in range(first, first + ks[0]):
        b = (groups[0].offset + n) / ks[0]
        if all((k * b - g.offset).denominator == 1 for g, k in zip(groups, ks)):
            return (gen,), (b,), [(k,) for k in ks]
    return None


def _greedy(groups: list[Group]):
    lam: list[Fraction] = []
    beta: list[Fraction] = []
    keys: list[MultiIndex] = []
    for grp in groups:
        k = _express_rate(-grp.mu, grp.offset, lam, beta)
        if k is None:
            lam.append(-grp.mu)
            beta.append(grp.offset)
            keys = [key + (0,) for key in keys]
            k = (0,) * (len(lam) - 1) + (1,)
        keys.append(k)
    return tuple(lam), tuple(beta), keys


def _express_rate(
    rate: Fraction, offset: Fraction, lam: list[Fraction], beta: list[Fraction]
) -> Optional[MultiIndex]:
    """Find k >= 0 with k.lam = rate and offset reachable (integer slack >= 0)."""
    best: Optional[MultiIndex] = None
    n = len(lam)

    def search(i: int, remaining: Fraction, k: list[int]):
        nonlocal best
        if best is not None:
            return
        if i == n:
            if remaining == 0 and any(k):
                d = _dot(k, beta) - offset
                if d.denominator == 1 and d >= 0:
                    best = tuple(k)
            return
        limit = int(remaining / lam[i]) if lam[i] <= remaining else 0
        for ki in range(limit + 1):
            k.append(ki)
            search(i + 1, remaining - ki * lam[i], k)
            k.pop()
            if best is not None:
                return

    search(0, rate, [])
    return best


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
