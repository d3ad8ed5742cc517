"""Lazy normal forms: memoized streams of normal-form terms.

A :class:`LazyNF` is a stream of (exponent, coefficient) terms in strictly
decreasing exponent order, memoized as demanded.

Order is checked where terms are generated: a stream built from a generator
compares each exponent with the one before.  A stream derived from checked
terms (``from_nf``, ``scale``, ``shift``, ``drop`` and the merge of a sum)
keeps their order and maps them without comparing them again.

The stream keeps one search budget for every generator and every sum: a
zero term is a search step that found nothing (a cancelling sum, a zero
coefficient), and DEFAULT_ORDER_SCAN of them in a row raise
:class:`UndecidableSupport`.  A generator known to be finite skips zeros.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
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
        self._terms = Stream(lambda: _checked(gen_fn(), ordered=False))

    @classmethod
    def _derived(cls, gen_fn: Callable[[], Iterator[Term]]) -> "LazyNF":
        """The stream of gen_fn's terms, already nonzero with Fraction
        coefficients and strictly decreasing exponents."""
        out = cls.__new__(cls)
        out._terms = Stream(gen_fn)
        return out

    @classmethod
    def from_nf(cls, a: SurrealNF) -> "LazyNF":
        return cls._derived(lambda: iter(a.terms))

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
        c = c if type(c) is Fraction else Fraction(c)
        if not c:
            return LazyNF.from_nf(SurrealNF.zero())
        return LazyNF._derived(lambda: ((e, c * r) for e, r in self))

    def shift(self, offset: SurrealNF) -> "LazyNF":
        """Multiply by the monomial w^offset."""
        return LazyNF._derived(lambda: ((e + offset, r) for e, r in self))

    def drop(self, n: int) -> "LazyNF":
        """The stream after its first n terms."""
        return LazyNF._derived(lambda: islice(self, n, None))

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

        return LazyNF._derived(lambda: _checked(gen(), ordered=True))

    def render(self, n_terms: int) -> str:
        from .render import render_nf

        head = self.truncate(n_terms)
        text = render_nf(head)
        if self.term(n_terms) is not None:
            text += " + ..."
        return text


def _checked(terms: Iterator[Term], *, ordered: bool) -> Iterator[Term]:
    """Drop zero coefficients, and unless the terms are known to be
    ``ordered``, insist on strictly decreasing exponents: order is checked
    where terms are generated, not again in a stream derived from them.

    A zero coefficient is a search step that found nothing, and its exponent
    is not read; DEFAULT_ORDER_SCAN of them in a row raise UndecidableSupport.
    """
    prev, n, zeros = None, 0, 0
    for e, c in terms:
        if not c:
            zeros += 1
            if zeros >= DEFAULT_ORDER_SCAN:
                raise UndecidableSupport(f"{zeros} search steps in a row found no term")
            continue
        if n and not ordered and nf_cmp(e, prev) != LT:
            raise ValueError(f"exponents not strictly decreasing at term {n}")
        prev, n, zeros = e, n + 1, 0
        yield (e, c) if type(c) is Fraction else (e, Fraction(c))
