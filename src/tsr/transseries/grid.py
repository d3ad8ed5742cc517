"""Height-one, depth-one transseries: grids, log part, and the T1 sum.

A transseries here is a triple

* ``minus``  -- sum(k) x^(beta.k) e^(-k.lambda x) y_k(x), lambda_i > 0
* ``log``    -- P(x) log x + Q(x) + R(1/x) with R constant-free
* ``plus``   -- sum(j) x^(beta_j) e^(lambda_j x) y_j(x), lambda_j > 0 distinct,
  a tuple of ``Group``s, one per rate, rates descending

with all series y O(1/x).  Internally the representation is normalized to
m = 0: the R component is empty and every pure inverse power lives in the
k = 0 series of the minus grid.  ``assemble`` folds an R into that series,
the ``TransseriesT1`` constructor rejects a nonempty R, and ``ts_decompose``
recuts the triple for any m.  ``assemble`` merges the groups of each sign
with ``_merge_rates``, which sums the groups of one rate at their highest offset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from ..errors import GridMergeError, ResonanceError
from .series import PowerSeries

MultiIndex = tuple[int, ...]

#: cap on merged grid generators
MAX_GENERATORS = 8
#: window used for bounded nonresonance validation
RESONANCE_WINDOW = 16


def _zero_index(n: int) -> MultiIndex:
    return (0,) * n


@dataclass
class GridMinus:
    """The decaying grid: generators lam/beta and per-multi-index series."""

    lam: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]
    series: dict[MultiIndex, PowerSeries] = field(default_factory=dict)

    def __post_init__(self):
        self.lam = tuple(Fraction(v) for v in self.lam)
        self.beta = tuple(Fraction(v) for v in self.beta)
        if any(v <= 0 for v in self.lam):
            raise ValueError("minus-grid rates must be positive")
        validate_nonresonance(self.lam)
        n = len(self.lam)
        if len(self.beta) != n:
            raise ValueError("lambda and beta must have equal length")
        self.series = {tuple(k): s for k, s in self.series.items()}
        for k in self.series:
            if len(k) != n or any(i < 0 for i in k):
                raise ValueError(f"bad multi-index {k}")
        classes: dict[Fraction, Fraction] = {}
        for k in sorted(self.series, key=self.rate):
            r, c = self.rate(k), self.offset(k) % 1
            if classes.setdefault(r, c) != c:
                raise ResonanceError(f"support points collide at rate {r}")

    @property
    def n(self) -> int:
        return len(self.lam)

    @classmethod
    def empty(cls) -> "GridMinus":
        return cls(lam=(), beta=())

    def rate(self, k: MultiIndex) -> Fraction:
        return sum((Fraction(ki) * li for ki, li in zip(k, self.lam)), Fraction(0))

    def offset(self, k: MultiIndex) -> Fraction:
        return sum((Fraction(ki) * bi for ki, bi in zip(k, self.beta)), Fraction(0))

    def series_at(self, k: MultiIndex) -> PowerSeries:
        return self.series.get(tuple(k), PowerSeries.zero())

    def support(self) -> list[MultiIndex]:
        """Support multi-indices ordered by rate ascending (ties: offset desc, lex)."""
        return sorted(self.series, key=lambda k: (self.rate(k), -self.offset(k), k))

    def is_zero(self, order: int = 12) -> bool:
        return all(s.is_zero_upto(order) for s in self.series.values())


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
    k = 0 series, and the constructor rejects a nonempty R.  ``plus`` holds
    the growing groups as ``assemble`` leaves them: mu > 0, one per rate,
    rates descending."""

    minus: GridMinus = field(default_factory=lambda: GridMinus.empty())
    log: LogPart = field(default_factory=LogPart)
    plus: tuple[Group, ...] = ()

    def __post_init__(self):
        if self.log.R:
            raise ValueError("a T1 keeps R(1/x) in its k = 0 series; build it with assemble")

    @classmethod
    def zero(cls) -> "TransseriesT1":
        return cls()

    def is_zero(self, order: int = 12) -> bool:
        plus_zero = all(g.series.is_zero_upto(order) for g in self.plus)
        return self.minus.is_zero(order) and self.log.is_zero() and plus_zero


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
    g = ts.minus
    out = [Group(-g.rate(k), g.offset(k), g.series_at(k)) for k in g.support()]
    return out + list(ts.plus)


def assemble(
    groups: Iterable[Group],
    log: LogPart = None,
    *,
    seed: tuple[tuple[Fraction, ...], tuple[Fraction, ...]] = ((), ()),
) -> TransseriesT1:
    """Build a normalized TransseriesT1 from raw groups plus a log part.

    ``seed`` pre-populates the minus-grid generator basis so operations on an
    existing grid stay on that grid instead of re-deriving one.
    """
    log = log if log is not None else LogPart()
    plus_raw: list[Group] = []
    minus_raw: list[Group] = []
    q_extra: list[tuple[int, Fraction]] = []
    r_extra: dict[int, Fraction] = {}
    zero_series = []

    for grp in groups:
        if grp.mu > 0:
            plus_raw.append(grp)
        elif grp.mu < 0:
            minus_raw.append(grp)
        else:
            # pure powers: split on the sign of the exponent
            if grp.offset.denominator != 1:
                raise GridMergeError(f"pure power content needs integer offsets, got x^{grp.offset}")
            a = int(grp.offset)
            s = grp.series
            if s.length is None and a >= 1:
                # peel the polynomial head, keep the O(1/x) tail
                for l in range(1, a + 1):
                    c = s.coeff(l)
                    if c != 0:
                        q_extra.append((a - l, c))
                zero_series.append((0, _shift_up(s, a)))
                continue
            top = s.length if s.length is not None else None
            scan = top if top is not None else 0
            for l in range(1, scan + 1):
                c = s.coeff(l)
                if c == 0:
                    continue
                power = a - l
                if power >= 0:
                    q_extra.append((power, c))
                else:
                    r_extra[-power] = r_extra.get(-power, Fraction(0)) + c
            if top is None:
                zero_series.append((a, s))

    # fold q/r residues into the log part and the k = 0 series
    Q = list(log.Q)
    for power, c in q_extra:
        while len(Q) <= power:
            Q.append(Fraction(0))
        Q[power] += c
    inverse: dict[int, Fraction] = dict(r_extra)
    for l, c in enumerate(log.R, 1):
        inverse[l] = inverse.get(l, Fraction(0)) + c

    base = PowerSeries.from_coeffs([inverse.get(l, Fraction(0)) for l in range(1, max(inverse, default=0) + 1)])
    for a, s in zero_series:  # infinite tails with offset <= 0
        base = base + s.shift_down(-a)
    lam, beta, series = _assemble_minus(minus_raw, seed=seed)
    if not base.is_finite() or base.length:
        series[_zero_index(len(lam))] = base
    try:
        minus = GridMinus(lam=lam, beta=beta, series=series)
    except ResonanceError as exc:
        raise GridMergeError(str(exc)) from exc

    plus = tuple(_merge_rates(plus_raw))
    return TransseriesT1(minus=minus, log=LogPart(log.P, tuple(Q), ()), plus=plus)


def _shift_up(s: PowerSeries, d: int) -> PowerSeries:
    """Multiply by x^d, dropping the (assumed consumed) head: c_l <- c_(l+d)."""
    return PowerSeries(
        lambda l: s.coeff(l + d),
        length=None if s.length is None else max(s.length - d, 0),
    )


def _merge_rates(groups: list[Group]) -> list[Group]:
    """One group per rate, ordered by mu descending: each group joins the
    first at its rate, the one with the highest offset, shifted down by the
    integer offset difference."""
    out: list[Group] = []
    for grp in sorted(groups, key=lambda g: (-g.mu, -g.offset)):
        if not out or out[-1].mu != grp.mu:
            out.append(grp)
            continue
        top = out[-1]
        d = top.offset - grp.offset
        if d.denominator != 1:
            raise GridMergeError(
                f"groups at rate {abs(grp.mu)} have offsets {top.offset}, {grp.offset} "
                "differing by a non-integer"
            )
        out[-1] = Group(top.mu, top.offset, top.series + grp.series.shift_down(int(d)))
    return out


def _assemble_minus(
    raw: list[Group],
    *,
    seed: tuple[tuple[Fraction, ...], tuple[Fraction, ...]] = ((), ()),
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...], dict[MultiIndex, PowerSeries]]:
    """Pick generators and multi-indices for decaying groups, greedily: (lam, beta, series)."""
    if not raw:
        return (), (), {}
    merged = _merge_rates(raw)

    # fast path: no seed, integer offsets -> one gcd generator
    if not seed[0] and all(g.offset.denominator == 1 for g in merged):
        rates = [-g.mu for g in merged]
        g0 = rates[0]
        for r in rates[1:]:
            g0 = _frac_gcd(g0, r)
        ks = [r / g0 for r in rates]
        if all(k.denominator == 1 and k <= 64 for k in ks):
            b = max(Fraction(0), max(-(-grp.offset // int(k)) for grp, k in zip(merged, ks)))
            series: dict[MultiIndex, PowerSeries] = {}
            for grp, k in zip(merged, ks):
                d = int(k) * b - grp.offset
                series[(int(k),)] = grp.series.shift_down(int(d))
            return (g0,), (b,), series

    lam: list[Fraction] = list(seed[0])
    beta: list[Fraction] = list(seed[1])
    slots: dict[MultiIndex, tuple[Fraction, PowerSeries]] = {}

    # one group per rate, ascending; distinct rates get distinct keys
    for grp in merged:
        rate = -grp.mu
        k = _express_rate(rate, grp.offset, lam, beta)
        if k is None:
            lam.append(rate)
            beta.append(grp.offset)
            if len(lam) > MAX_GENERATORS:
                raise GridMergeError(f"merged grid needs more than {MAX_GENERATORS} generators")
            slots = {key + (0,): val for key, val in slots.items()}
            k = (0,) * (len(lam) - 1) + (1,)
        slots[k] = (grp.offset, grp.series)

    n = len(lam)
    # prune generators no slot uses
    used = [any(k[i] for k in slots if i < len(k)) for i in range(n)]
    keep = [i for i in range(n) if used[i]]
    lam = [lam[i] for i in keep]
    beta = [beta[i] for i in keep]

    series: dict[MultiIndex, PowerSeries] = {}
    for k, (off, s) in slots.items():
        k = tuple(k) + (0,) * (n - len(k))
        k = tuple(k[i] for i in keep)
        want = sum((Fraction(ki) * bi for ki, bi in zip(k, beta)), Fraction(0))
        d = want - off
        if d.denominator != 1 or d < 0:
            raise GridMergeError(f"offset {off} not reachable from grid betas at {k}")
        series[k] = s.shift_down(int(d))
    return tuple(lam), tuple(beta), series


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    import math

    num = math.gcd(a.numerator * b.denominator, b.numerator * a.denominator)
    return Fraction(num, a.denominator * b.denominator)


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
                off = sum((Fraction(ki) * bi for ki, bi in zip(k, beta)), Fraction(0))
                d = off - offset
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
