"""Conway Limits, coefficient lookup, the JSON reader and exp of an
infinitesimal, for normal forms: tools the tests use beside ``tsr.surreal``.

``lim`` builds a Limit from a sequence of normal forms and a stabilization
schedule, an enumeration of candidate exponents (descending) together with
the index from which each exponent's coefficient has stabilized; stability
is spot-checked a few indices past the schedule, and an observed change
raises :class:`NotStabilizedError`.  ``exp_infinitesimal`` sums exp(z) as a
Conway sum, the reference for ``tau.exp_grid``'s one-pass recurrence.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable, Iterable

from tsr.errors import TsrError
from tsr.operators.tau import conway_sum
from tsr.surreal import LazyNF, SurrealNF


class NotStabilizedError(TsrError):
    """A coefficient demanded from a Limit changed after its scheduled index."""


def coefficient(a: SurrealNF, exponent: SurrealNF) -> Fraction:
    """The coefficient of w^exponent in a."""
    for e, c in a.terms:
        if e == exponent:
            return c
    return Fraction(0)


Schedule = Iterable[tuple[SurrealNF, int]]

#: indices past the scheduled one at which ``lim`` checks a coefficient
VERIFY_EXTRA = 2


def lim(seq: Callable[[int], SurrealNF], schedule: Schedule) -> LazyNF:
    """Limit of an absolutely convergent sequence of normal forms.

    ``seq(n)`` is the n-th element; ``schedule`` yields (exponent, m) pairs,
    exponents strictly decreasing, such that the coefficient of w^exponent in
    seq(n) equals its final value for every n >= m.  A zero coefficient is
    a search step that found nothing (the schedule may name zeros forever).
    """

    def gen():
        for exponent, m in schedule:
            c = coefficient(seq(m), exponent)
            for extra in range(1, VERIFY_EXTRA + 1):
                if coefficient(seq(m + extra), exponent) != c:
                    raise NotStabilizedError(f"coefficient of w^({exponent}) changed after scheduled index {m}")
            yield (exponent, c)

    return LazyNF(gen)


def nf_from_json_obj(obj) -> SurrealNF:
    """The normal form that ``SurrealNF.to_json_obj`` wrote: an integer
    exponent, or {"terms": [{"exp": ..., "coef": "p/q"}, ...]}."""
    if isinstance(obj, (int, float)):
        return SurrealNF.from_rational(Fraction(obj).limit_denominator() if isinstance(obj, float) else obj)
    terms = []
    for t in obj["terms"]:
        e = t["exp"]
        exp = SurrealNF.from_rational(e) if isinstance(e, int) else nf_from_json_obj(e)
        terms.append((exp, Fraction(t["coef"])))
    return SurrealNF(terms)


def exp_infinitesimal(z: SurrealNF) -> LazyNF:
    """exp(z) = sum z^k / k! for strictly infinitesimal z (see ``conway_sum``)."""
    return conway_sum(lambda k: Fraction(1, factorial(k)), z)
