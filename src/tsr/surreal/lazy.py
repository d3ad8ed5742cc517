"""Lazy normal forms: memoized streams of normal-form terms.

A :class:`LazyNF` is a stream of (exponent, coefficient) terms in strictly
decreasing exponent order, memoized as demanded.

The stream keeps one search budget for every generator: a generator yields
a zero term for each search step that found nothing (a cancelling sum, a
zero coefficient), and DEFAULT_ORDER_SCAN of them in a row raise
:class:`UndecidableSupport`.  A generator known to be finite skips zeros.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator

from ..errors import UndecidableSupport
from ..stream import DEFAULT_ORDER_SCAN, Stream
from .normal_form import GT, LT, SurrealNF, nf_cmp

Term = tuple[SurrealNF, Fraction]


class LazyNF:
    """A descending, possibly infinite stream of normal-form terms.

    Generators may be re-run; memoization makes repeated access cheap and is
    recomputation-safe (terms are immutable values).
    """

    def __init__(self, gen_fn: Callable[[], Iterator[Term]]):
        self._terms = Stream(lambda: _checked(gen_fn()))

    @classmethod
    def from_nf(cls, a: SurrealNF) -> "LazyNF":
        return cls(lambda: iter(a.terms))

    def term(self, i: int) -> Term | None:
        try:
            return self._terms[i]
        except IndexError:
            return None

    def terms(self, n: int) -> list[Term]:
        return self._terms.head(n)

    def truncate(self, n: int) -> SurrealNF:
        """First n terms as an exact normal form."""
        return SurrealNF(tuple(self.terms(n)), _normalized=True)

    def __iter__(self) -> Iterator[Term]:
        return iter(self._terms)

    def scale(self, c: Fraction) -> "LazyNF":
        c = Fraction(c)
        if c == 0:
            return LazyNF.from_nf(SurrealNF.zero())
        return LazyNF(lambda: ((e, c * r) for e, r in self))

    def shift(self, offset: SurrealNF) -> "LazyNF":
        """Multiply by the monomial w^offset."""
        return LazyNF(lambda: ((e + offset, r) for e, r in self))

    def __add__(self, other: "LazyNF") -> "LazyNF":
        """The termwise sum; a cancelling pair is a search step that found
        nothing (two infinite streams may cancel forever)."""

        def gen():
            a, b = iter(self), iter(other)
            ta, tb = next(a, None), next(b, None)
            while ta or tb:
                order = LT if ta is None else GT if tb is None else nf_cmp(ta[0], tb[0])
                if order == GT:
                    yield ta
                    ta = next(a, None)
                elif order == LT:
                    yield tb
                    tb = next(b, None)
                else:
                    yield (ta[0], ta[1] + tb[1])
                    ta, tb = next(a, None), next(b, None)

        return LazyNF(gen)

    def render(self, n_terms: int) -> str:
        from .render import render_nf

        head = self.truncate(n_terms)
        text = render_nf(head)
        if self.term(n_terms) is not None:
            text += " + ..."
        return text


def _checked(terms: Iterator[Term]) -> Iterator[Term]:
    """Drop zero coefficients and insist on strictly decreasing exponents.

    A zero coefficient is a search step that found nothing, and its exponent
    is not read; DEFAULT_ORDER_SCAN of them in a row raise UndecidableSupport.
    """
    prev, n, zeros = None, 0, 0
    for e, c in terms:
        if c == 0:
            zeros += 1
            if zeros >= DEFAULT_ORDER_SCAN:
                raise UndecidableSupport(f"{zeros} search steps in a row found no term")
            continue
        if n and nf_cmp(e, prev) != LT:
            raise ValueError(f"exponents not strictly decreasing at term {n}")
        prev, n, zeros = e, n + 1, 0
        yield (e, Fraction(c))
