"""Hereditary normal forms: finite sums of w^(exponent) * coefficient.

A :class:`SurrealNF` is a finite sequence of (exponent, coefficient) terms
with exponents again normal forms, strictly decreasing, and nonzero rational
coefficients.  Arithmetic is polynomial-style with w^x * w^y = w^(x+y);
comparison is lexicographic on the term sequence, highest exponent first.

A normal form is immutable (``__setattr__`` raises), so its hash never
changes once computed: ``__hash__`` computes it on first use and caches it in
a slot.  Like terms are collected by hashing exponents, equal forms have
equal hashes, and ``==`` rejects a pair with different hashes before it
compares terms.  The cache needs no lock: two threads that race to fill it
compute the same integer.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterable, Union

RationalLike = Union[int, Fraction, str]

LT, EQ, GT = -1, 0, 1


def _rat(x: RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@functools.total_ordering
class SurrealNF:
    """Normal form sum(w^y_i * r_i) with strictly decreasing exponents y_i."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Iterable[tuple["SurrealNF", Fraction]] = (), *, _normalized=False):
        terms = tuple(terms)
        if not _normalized:
            terms = _normalize(terms)
        object.__setattr__(self, "terms", terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "SurrealNF":
        return _ZERO

    @classmethod
    def from_rational(cls, r: RationalLike) -> "SurrealNF":
        r = _rat(r)
        if r == 0:
            return _ZERO
        return cls(((_ZERO, r),), _normalized=True)

    @classmethod
    def monomial(cls, exponent: "SurrealNF", coefficient: RationalLike = 1) -> "SurrealNF":
        c = _rat(coefficient)
        if c == 0:
            return _ZERO
        return cls(((exponent, c),), _normalized=True)

    # -- structure ---------------------------------------------------------

    def __setattr__(self, *a):
        raise AttributeError("SurrealNF is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        """True when the value is 0 or a single w^0 term."""
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero())

    def as_rational(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"{self} is not a rational")
        return self.terms[0][1]

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, SurrealNF) or hash(self) != hash(other):
            return False
        return self.terms == other.terms

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(self.terms)
            object.__setattr__(self, "_hash", h)
            return h

    def __lt__(self, other: "SurrealNF") -> bool:
        return nf_cmp(self, other) == LT

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "SurrealNF":
        other = _coerce(other)
        return nf_add(self, other)

    __radd__ = __add__

    def __neg__(self) -> "SurrealNF":
        return SurrealNF(tuple((e, -c) for e, c in self.terms), _normalized=True)

    def __sub__(self, other) -> "SurrealNF":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "SurrealNF":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "SurrealNF":
        return nf_mul(self, _coerce(other))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "SurrealNF":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only natural powers")
        out = one()
        base = self
        while n:
            if n & 1:
                out = nf_mul(out, base)
            base = nf_mul(base, base) if n > 1 else base
            n >>= 1
        return out

    def __str__(self) -> str:
        from .render import render_nf

        return render_nf(self)

    def __repr__(self) -> str:
        return f"SurrealNF({str(self)})"

    # -- json ----------------------------------------------------------------

    def to_json_obj(self):
        def enc_exp(e: "SurrealNF"):
            if e.is_rational():
                q = e.as_rational()
                return int(q) if q.denominator == 1 else e.to_json_obj()
            return e.to_json_obj()

        return {"terms": [{"exp": enc_exp(e), "coef": str(c)} for e, c in self.terms]}


_ZERO = SurrealNF((), _normalized=True)


def _coerce(x) -> SurrealNF:
    if isinstance(x, SurrealNF):
        return x
    if isinstance(x, (int, Fraction)):
        return SurrealNF.from_rational(x)
    return NotImplemented


_BY_EXPONENT = functools.cmp_to_key(lambda a, b: nf_cmp(a[0], b[0]))


def _normalize(terms: Iterable[tuple[SurrealNF, Fraction]]) -> tuple:
    """Collect equal exponents, drop zeros, sort strictly decreasing."""
    collected: dict[SurrealNF, Fraction] = {}
    for e, c in terms:
        collected[e] = collected.get(e, 0) + _rat(c)
    out = [(e, c) for e, c in collected.items() if c != 0]
    out.sort(key=_BY_EXPONENT, reverse=True)
    return tuple(out)


def one() -> SurrealNF:
    return SurrealNF.from_rational(1)


def omega() -> SurrealNF:
    return SurrealNF.monomial(one())


def nf_cmp(a: SurrealNF, b: SurrealNF) -> int:
    """Lexicographic comparison: decide at the highest differing exponent."""
    if a is b:
        return EQ
    ia, ib = 0, 0
    ta, tb = a.terms, b.terms
    while ia < len(ta) and ib < len(tb):
        ea, ca = ta[ia]
        eb, cb = tb[ib]
        c = nf_cmp(ea, eb)
        if c == GT:
            # a has a term at a higher exponent; its sign decides.
            return GT if ca > 0 else LT
        if c == LT:
            return GT if cb < 0 else LT
        if ca != cb:
            return GT if ca > cb else LT
        ia += 1
        ib += 1
    if ia < len(ta):
        return GT if ta[ia][1] > 0 else LT
    if ib < len(tb):
        return GT if tb[ib][1] < 0 else LT
    return EQ


def nf_add(a: SurrealNF, b: SurrealNF) -> SurrealNF:
    """Merge on exponents with like-term collection."""
    out = []
    ia, ib = 0, 0
    ta, tb = a.terms, b.terms
    while ia < len(ta) and ib < len(tb):
        ea, ca = ta[ia]
        eb, cb = tb[ib]
        c = nf_cmp(ea, eb)
        if c == GT:
            out.append((ea, ca))
            ia += 1
        elif c == LT:
            out.append((eb, cb))
            ib += 1
        else:
            s = ca + cb
            if s != 0:
                out.append((ea, s))
            ia += 1
            ib += 1
    out.extend(ta[ia:])
    out.extend(tb[ib:])
    return SurrealNF(tuple(out), _normalized=True)


def nf_mul(a: SurrealNF, b: SurrealNF) -> SurrealNF:
    """Cauchy-style product with exponent addition, normalized once."""
    return SurrealNF((nf_add(ea, eb), ca * cb) for ea, ca in a.terms for eb, cb in b.terms)


def decompose(a: SurrealNF) -> tuple[SurrealNF, Fraction, SurrealNF]:
    """Split into (purely infinite, real, infinitesimal) parts by exponent sign."""
    infinite, real, small = [], Fraction(0), []
    zero = _ZERO
    for e, c in a.terms:
        c0 = nf_cmp(e, zero)
        if c0 == GT:
            infinite.append((e, c))
        elif c0 == EQ:
            real = c
        else:
            small.append((e, c))
    return (
        SurrealNF(tuple(infinite), _normalized=True),
        real,
        SurrealNF(tuple(small), _normalized=True),
    )
