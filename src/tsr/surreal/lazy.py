"""Lazy normal forms and Conway Limits of absolutely convergent series.

A :class:`LazyNF` is a stream of (exponent, coefficient) terms in strictly
decreasing exponent order, memoized as demanded.  :func:`lim` turns a
sequence of normal forms into its Limit, certified by a caller-supplied
stabilization schedule: an enumeration of candidate exponents (descending)
together with the index from which each exponent's coefficient has
stabilized.  Stability is additionally spot-checked a few indices past the
schedule; an observed change raises :class:`NotStabilizedError`.

The stream keeps one search budget for every generator: a generator yields
a zero term for each search step that found nothing (a cancelling sum, a
zero scheduled coefficient), and DEFAULT_ORDER_SCAN of them in a row raise
:class:`UndecidableSupport`.  A generator known to be finite skips zeros.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Iterator

from ..errors import NotStabilizedError, UndecidableSupport
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

    @classmethod
    def from_terms(cls, terms: Iterable[Term]) -> "LazyNF":
        terms = list(terms)
        return cls(lambda: iter(terms))

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

    def is_finite_known(self) -> bool:
        return self._terms.done

    def __iter__(self) -> Iterator[Term]:
        return iter(self._terms)

    def scale(self, c: Fraction) -> "LazyNF":
        c = Fraction(c)
        if c == 0:
            return LazyNF.from_terms([])
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

    def __neg__(self) -> "LazyNF":
        return self.scale(Fraction(-1))

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


Schedule = Iterable[tuple[SurrealNF, int]]

#: indices past the scheduled one at which ``lim`` checks a coefficient
VERIFY_EXTRA = 2


def schedule_from_nf(a: SurrealNF) -> list[tuple[SurrealNF, int]]:
    """Schedule for a sequence already equal to ``a`` from its first element on."""
    return [(e, 0) for e, _ in a.terms]


def lim(seq: Callable[[int], SurrealNF], schedule: Schedule) -> LazyNF:
    """Limit of an absolutely convergent sequence of normal forms.

    ``seq(n)`` is the n-th element; ``schedule`` yields (exponent, m) pairs,
    exponents strictly decreasing, such that the coefficient of w^exponent in
    seq(n) equals its final value for every n >= m.  A zero coefficient is
    a search step that found nothing (the schedule may name zeros forever).
    """

    def gen():
        for exponent, m in schedule:
            c = seq(m).coefficient(exponent)
            for extra in range(1, VERIFY_EXTRA + 1):
                if seq(m + extra).coefficient(exponent) != c:
                    raise NotStabilizedError(
                        f"coefficient of w^({exponent}) changed after scheduled index {m}"
                    )
            yield (exponent, c)

    return LazyNF(gen)
