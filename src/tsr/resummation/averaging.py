"""Ecalle addresses and Catalan averaging weights: the diagnostic behind
``tsr weights`` and ``tsr check averaging``.

An address records how a forward path in the Borel plane threads the
singularities: one sign per crossed gap, written as a string of + and -.
A weight family is consistent when summing out the last sign reproduces the
shorter address's weight, with the empty address carrying weight 1.

The literal Catalan formula, 4^-n times the product of Catalan numbers of
the sign-run lengths, fails that condition already at n = 1 (both length-one
weights evaluate to 1/4).  The unique completion that keeps the 4^-n Catalan
product structure replaces the final run's Catalan number with the central
binomial coefficient:

    weight = 4^-n * C(n_1) ... C(n_(k-1)) * binom(2 n_k, n_k),

which satisfies the consistency condition for every address (the central
binomials obey binom(2m+2, m+1) = 4 binom(2m, m) - 2 C(m)).  This family is
what the library ships; the literal formula stays available for the
diagnostic that documents its failure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

from ..errors import DomainError

WeightFamily = Callable[[str], Fraction]


def parse_address(text: str) -> str:
    """``text`` as an address; DomainError unless it is a string of + and -."""
    if any(ch not in "+-" for ch in text):
        raise DomainError(f"an address is a string of + and -, got {text!r}")
    return text


def _runs(address: str) -> list[int]:
    """The lengths of the address's runs of equal signs."""
    return [len(list(run)) for _, run in itertools.groupby(parse_address(address))]


def catalan_number(n: int) -> Fraction:
    return Fraction(comb(2 * n, n), n + 1)


def catalan_weight_literal(a: str) -> Fraction:
    """The printed formula: 4^-n prod (2 n_i)! / (n_i! (n_i + 1)!)."""
    out = Fraction(1, 4 ** len(a))
    for b in _runs(a):
        out *= catalan_number(b)
    return out


def catalan_weight(a: str) -> Fraction:
    """The consistent Catalan family (central binomial on the last run)."""
    runs = _runs(a)
    if not runs:
        return Fraction(1)
    out = Fraction(1, 4 ** len(a))
    for b in runs[:-1]:
        out *= catalan_number(b)
    return out * comb(2 * runs[-1], runs[-1])


@dataclass
class ConsistencyReport:
    family: str
    n_max: int
    passed: bool
    first_failure: str | None
    lhs: Fraction | None
    rhs: Fraction | None
    total_mass: dict[int, Fraction]

    def summary(self) -> str:
        if self.passed:
            return f"{self.family}: consistency holds for all addresses of length <= {self.n_max}"
        return (
            f"{self.family}: FAILS at address {self.first_failure!r}: "
            f"children sum to {self.lhs}, parent weight is {self.rhs}"
        )


def average_consistency_check(
    n_max: int, weight: WeightFamily = catalan_weight, family: str = "catalan"
) -> ConsistencyReport:
    """Verify sum over the last sign reproduces each shorter address's weight."""
    first_failure = lhs = rhs = None
    passed = True
    for n in range(n_max):
        for a in map("".join, itertools.product("+-", repeat=n)):
            children = weight(a + "+") + weight(a + "-")
            if children != weight(a):
                passed = False
                first_failure, lhs, rhs = a or "(empty)", children, weight(a)
                break
        if not passed:
            break
    mass = {n: sum(map(weight, map("".join, itertools.product("+-", repeat=n))), Fraction(0)) for n in range(n_max + 1)}
    return ConsistencyReport(family, n_max, passed, first_failure, lhs, rhs, mass)
