"""Finite sign expansions with Conway's genetic field operations.

A surreal number of finite birthday is a finite sequence of signs.  The
lexicographic order (with "- < undefined < +") makes the collection of all
such sequences a totally ordered binary tree; ``simplest_between`` walks that
tree.  ``genetic_add`` and ``genetic_mul`` implement Conway's recursions over
canonical representations literally, reducing each set of options through
``simplest_between``.  The :class:`Dyadic` type is the exact value oracle:
every finite sign expansion denotes a dyadic rational and vice versa.

Nothing in ``tsr`` uses these: they are the tests' independent oracle for
normal-form arithmetic, Conway's definitions against which the closed forms
of ``tsr.surreal`` are checked (Gonshor, An Introduction to the Theory of
Surreal Numbers, 1986).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from tsr.errors import TsrError

PLUS = 1
MINUS = -1


class OverlapError(TsrError):
    """Left and right cut sets overlap: some l >= some r."""


@functools.total_ordering
class SignExpansion:
    """An immutable finite sequence over {-,+}, ordered lexicographically."""

    __slots__ = ("signs",)

    def __init__(self, signs: Iterable[int] = ()):
        signs = tuple(signs)
        if any(s not in (PLUS, MINUS) for s in signs):
            raise ValueError("signs must be +1 or -1")
        object.__setattr__(self, "signs", signs)

    @classmethod
    def parse(cls, text: str) -> "SignExpansion":
        return cls(PLUS if ch == "+" else MINUS for ch in text.strip())

    def __setattr__(self, *a):
        raise AttributeError("SignExpansion is immutable")

    def __len__(self) -> int:
        return len(self.signs)

    def __iter__(self) -> Iterator[int]:
        return iter(self.signs)

    def __hash__(self) -> int:
        return hash(self.signs)

    def __eq__(self, other) -> bool:
        return isinstance(other, SignExpansion) and self.signs == other.signs

    def __lt__(self, other: "SignExpansion") -> bool:
        # "-" < undefined < "+" at the first differing position.
        for a, b in zip(self.signs, other.signs):
            if a != b:
                return a < b
        if len(self) < len(other):
            return other.signs[len(self)] == PLUS
        if len(self) > len(other):
            return self.signs[len(other)] == MINUS
        return False

    @property
    def birthday(self) -> int:
        return len(self.signs)

    def append(self, sign: int) -> "SignExpansion":
        return SignExpansion(self.signs + (sign,))

    def predecessors(self) -> list["SignExpansion"]:
        """All proper initial segments, i.e. the simpler tree ancestors."""
        return [SignExpansion(self.signs[:k]) for k in range(len(self))]

    def left_options(self) -> list["SignExpansion"]:
        return [p for p in self.predecessors() if p < self]

    def right_options(self) -> list["SignExpansion"]:
        return [p for p in self.predecessors() if self < p]

    def to_dyadic(self) -> "Dyadic":
        return Dyadic.from_fraction(sign_value(self))

    def __neg__(self) -> "SignExpansion":
        return SignExpansion(-s for s in self.signs)

    def __str__(self) -> str:
        return "".join("+" if s == PLUS else "-" for s in self.signs) or "0"

    def __repr__(self) -> str:
        return f"SignExpansion({str(self)!r})"


@dataclass(frozen=True)
class Dyadic:
    """Exact dyadic rational numerator / 2**exponent in reduced form."""

    numerator: int
    exponent: int

    def __post_init__(self):
        if self.exponent < 0:
            raise ValueError("exponent must be a natural number")
        if self.exponent > 0 and self.numerator % 2 == 0:
            raise ValueError("not reduced: numerator even with positive exponent")

    @classmethod
    def from_fraction(cls, q: Fraction) -> "Dyadic":
        q = Fraction(q)
        e = q.denominator.bit_length() - 1
        if 1 << e != q.denominator:
            raise ValueError(f"{q} is not dyadic")
        return cls(q.numerator, e)

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, 1 << self.exponent)

    def to_sign_expansion(self) -> "SignExpansion":
        return sign_expansion_of(self.as_fraction())


def sign_value(x: SignExpansion) -> Fraction:
    """Dyadic value of a finite sign expansion (tree-descent evaluation)."""
    lo: Fraction | None = None
    hi: Fraction | None = None
    v = Fraction(0)
    for s in x.signs:
        if s == PLUS:
            lo = v
        else:
            hi = v
        v = _simplest_dyadic(lo, hi)
    return v


def _simplest_dyadic(lo: Fraction | None, hi: Fraction | None) -> Fraction:
    """The minimal-birthday dyadic strictly inside the open interval (lo, hi)."""
    if lo is None and hi is None:
        return Fraction(0)
    if hi is None:
        return Fraction(0) if lo < 0 else Fraction(math.floor(lo) + 1)
    if lo is None:
        return Fraction(0) if hi > 0 else Fraction(math.ceil(hi) - 1)
    if lo >= hi:
        raise OverlapError(f"empty interval ({lo}, {hi})")
    # Integers first: the one nearest zero wins.
    lo_int = math.floor(lo) + 1
    hi_int = math.ceil(hi) - 1
    if lo_int <= hi_int:
        if lo_int <= 0 <= hi_int:
            return Fraction(0)
        return Fraction(lo_int if lo_int > 0 else hi_int)
    # Otherwise halve until a mid-point of the dyadic mesh falls inside; the
    # first mesh admitting a point admits exactly one.
    k = 1
    while True:
        step = Fraction(1, 1 << k)
        n_lo = math.floor(lo / step) + 1
        n_hi = math.ceil(hi / step) - 1
        if n_lo <= n_hi:
            return n_lo * step
        k += 1


def sign_expansion_of(q: Fraction | int) -> SignExpansion:
    """Sign expansion of a dyadic rational (inverse of :func:`sign_value`)."""
    q = Fraction(q)
    Dyadic.from_fraction(q)  # validates dyadicity
    signs = []
    lo: Fraction | None = None
    hi: Fraction | None = None
    v = Fraction(0)
    while v != q:
        if q > v:
            signs.append(PLUS)
            lo = v
        else:
            signs.append(MINUS)
            hi = v
        v = _simplest_dyadic(lo, hi)
    return SignExpansion(signs)


def simplest_between(left: Iterable, right: Iterable) -> SignExpansion:
    """The minimal-length sign expansion strictly between the sets L and R.

    Members may be sign expansions or rational-valued normal forms.  Walks
    down the sign tree from the root; at each node exactly one of the two
    cut conditions can force a step, so the first unforced node is the
    simplest element of the cut.
    """
    left = [_as_sign(x) for x in left]
    right = [_as_sign(x) for x in right]
    for l in left:
        for r in right:
            if not (l < r):
                raise OverlapError(f"{l} >= {r}")
    x = SignExpansion()
    while True:
        if any(not (l < x) for l in left):
            x = x.append(PLUS)
        elif any(not (x < r) for r in right):
            x = x.append(MINUS)
        else:
            return x


def _as_sign(x) -> SignExpansion:
    if isinstance(x, SignExpansion):
        return x
    from tsr.surreal import SurrealNF

    if isinstance(x, SurrealNF):
        return sign_expansion_of(x.as_rational())
    return sign_expansion_of(Fraction(x))


def genetic_add(x: SignExpansion, y: SignExpansion) -> SignExpansion:
    """Conway's sum x + y = {x^L + y, x + y^L | x^R + y, x + y^R}."""
    return _add(x, y)


@functools.lru_cache(maxsize=None)
def _add(x: SignExpansion, y: SignExpansion) -> SignExpansion:
    left = [_add(xl, y) for xl in x.left_options()]
    left += [_add(x, yl) for yl in y.left_options()]
    right = [_add(xr, y) for xr in x.right_options()]
    right += [_add(x, yr) for yr in y.right_options()]
    return simplest_between(left, right)


def genetic_mul(x: SignExpansion, y: SignExpansion) -> SignExpansion:
    """Conway's product via the four bilinear option families."""
    return _mul(x, y)


@functools.lru_cache(maxsize=None)
def _mul(x: SignExpansion, y: SignExpansion) -> SignExpansion:
    xl, xr = x.left_options(), x.right_options()
    yl, yr = y.left_options(), y.right_options()

    def opt(a: SignExpansion, b: SignExpansion) -> SignExpansion:
        # x^O y + x y^O - x^O y^O
        return _add(_add(_mul(a, y), _mul(x, b)), -_mul(a, b))

    left = [opt(a, b) for a in xl for b in yl] + [opt(a, b) for a in xr for b in yr]
    right = [opt(a, b) for a in xl for b in yr] + [opt(a, b) for a in xr for b in yl]
    return simplest_between(left, right)


def all_sign_expansions(max_birthday: int) -> Iterator[SignExpansion]:
    """Every sign expansion with birthday <= max_birthday, shortest first."""
    frontier = [SignExpansion()]
    yield frontier[0]
    for _ in range(max_birthday):
        nxt = []
        for x in frontier:
            for s in (MINUS, PLUS):
                child = x.append(s)
                nxt.append(child)
                yield child
        frontier = nxt
