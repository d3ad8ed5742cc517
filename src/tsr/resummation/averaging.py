"""Ecalle addresses and Catalan averaging weights.

An address records how a forward path in the Borel plane threads the
singularities: one sign per crossed gap.  A weight family is consistent when
summing out the last sign reproduces the shorter address's weight, with the
empty address carrying weight 1.

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
from typing import Callable, Iterator

from ..errors import DomainError

WeightFamily = Callable[["Address"], Fraction]


@dataclass(frozen=True)
class Address:
    """Finite sequence over {+,-} recording gap crossings."""

    eps: tuple[int, ...]

    def __post_init__(self):
        if any(e not in (1, -1) for e in self.eps):
            raise ValueError("address entries must be +1 or -1")

    @classmethod
    def parse(cls, text: str) -> "Address":
        if any(ch not in "+-" for ch in text):
            raise DomainError(f"an address is a string of + and -, got {text!r}")
        return cls(tuple(1 if ch == "+" else -1 for ch in text))

    def __len__(self) -> int:
        return len(self.eps)

    def __str__(self) -> str:
        return "".join("+" if e > 0 else "-" for e in self.eps)

    def blocks(self) -> tuple[int, ...]:
        """Run-length encoding of consecutive equal signs."""
        out = []
        for _, run in itertools.groupby(self.eps):
            out.append(len(list(run)))
        return tuple(out)

    def extended(self, sign: int) -> "Address":
        return Address(self.eps + (sign,))


def all_addresses(n: int) -> Iterator[Address]:
    for eps in itertools.product((1, -1), repeat=n):
        yield Address(eps)


def catalan_number(n: int) -> Fraction:
    return Fraction(comb(2 * n, n), n + 1)


def catalan_weight_literal(a: Address) -> Fraction:
    """The printed formula: 4^-n prod (2 n_i)! / (n_i! (n_i + 1)!)."""
    n = len(a)
    if n == 0:
        return Fraction(1)
    out = Fraction(1, 4**n)
    for b in a.blocks():
        out *= catalan_number(b)
    return out


def catalan_weight(a: Address) -> Fraction:
    """The consistent Catalan family (central binomial on the last run)."""
    n = len(a)
    if n == 0:
        return Fraction(1)
    blocks = a.blocks()
    out = Fraction(1, 4**n)
    for b in blocks[:-1]:
        out *= catalan_number(b)
    last = blocks[-1]
    return out * comb(2 * last, last)


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
        for a in all_addresses(n):
            children = weight(a.extended(1)) + weight(a.extended(-1))
            if children != weight(a):
                passed = False
                first_failure, lhs, rhs = str(a) or "(empty)", children, weight(a)
                break
        if not passed:
            break
    mass = {n: sum((weight(a) for a in all_addresses(n)), Fraction(0)) for n in range(n_max + 1)}
    return ConsistencyReport(family, n_max, passed, first_failure, lhs, rhs, mass)
