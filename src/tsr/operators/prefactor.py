"""Symbolic multiplicative scale factors for surreal values.

Coefficient arithmetic stays exact-rational throughout the library, so the
irrational scales that show up in the function catalog (powers of e, pi, and
surds like (2/3)^(1/6)) ride along as symbolic tags: a rational factor times
a product of named bases raised to rational powers.  Numeric contexts
evaluate them with mpmath at the working precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import mpmath as mp

#: named bases other than e, whose power e^q ``numeric`` takes as exp(q)
_BASE_VALUES = {
    "pi": lambda: mp.pi,
    "ln2pi": lambda: mp.log(2 * mp.pi),
}


def _base_value(sym: str):
    if sym in _BASE_VALUES:
        return _BASE_VALUES[sym]()
    if sym.startswith("rat:"):
        q = Fraction(sym[4:])
        return mp.mpf(q.numerator) / q.denominator
    if sym.startswith("ln:"):
        q = Fraction(sym[3:])
        return mp.log(mp.mpf(q.numerator) / q.denominator)
    raise KeyError(f"unknown prefactor base {sym!r}")


@dataclass(frozen=True)
class Prefactor:
    factor: Fraction = Fraction(1)
    powers: tuple[tuple[str, Fraction], ...] = ()

    @classmethod
    def one(cls) -> "Prefactor":
        return _ONE

    @classmethod
    def of(cls, factor=1, **powers) -> "Prefactor":
        return cls(Fraction(factor), tuple(sorted((k, Fraction(v)) for k, v in powers.items() if v)))

    @classmethod
    def rational_power(cls, base: Fraction, expo: Fraction) -> "Prefactor":
        """base^expo with exact extraction when the root is rational."""
        base = Fraction(base)
        expo = Fraction(expo)
        if base <= 0:
            raise ValueError("prefactor bases must be positive")
        if expo.denominator == 1:
            return cls(base ** int(expo), ())
        root = _exact_root(base, expo.denominator)
        if root is not None:
            return cls(root ** expo.numerator, ())
        return cls(Fraction(1), ((f"rat:{base}", expo),))

    def is_one(self) -> bool:
        return self.factor == 1 and not self.powers

    def __mul__(self, other: "Prefactor") -> "Prefactor":
        acc = dict(self.powers)
        for sym, q in other.powers:
            acc[sym] = acc.get(sym, Fraction(0)) + q
        return Prefactor(
            self.factor * other.factor, tuple(sorted((k, v) for k, v in acc.items() if v))
        )

    def numeric(self):
        out = mp.mpf(self.factor.numerator) / self.factor.denominator
        for sym, q in self.powers:
            q = mp.mpf(q.numerator) / q.denominator
            out *= mp.exp(q) if sym == "e" else _base_value(sym) ** q
        return out

    def render(self) -> str:
        bits = []
        for sym, q in self.powers:
            if sym.startswith("rat:"):
                name = f"({sym[4:]})" if "/" in sym else sym[4:]
            elif sym.startswith("ln:"):
                name = f"log({sym[3:]})"
            else:
                name = {"e": "e", "pi": "pi", "ln2pi": "log(2*pi)"}[sym]
            if q == 1:
                bits.append(name)
            elif q == Fraction(1, 2):
                bits.append(f"sqrt({name})")
            elif q == Fraction(-1, 2):
                bits.append(f"1/sqrt({name})")
            else:
                bits.append(f"{name}^({q})")
        if self.factor != 1 or not bits:
            bits.insert(0, str(self.factor))
        return "*".join(bits)


_ONE = Prefactor()


def _exact_root(q: Fraction, n: int) -> Fraction | None:
    """The exact n-th root of q > 0, if rational.

    Each integer root comes from Newton's method on integers, which falls
    from 2^ceil(bits/n) to floor(v^(1/n)); no float is formed, so q may have
    any size.
    """

    def iroot(v: int) -> int:
        r = 1 << -(-v.bit_length() // n)
        while r > 0 and (s := ((n - 1) * r + v // r ** (n - 1)) // n) < r:
            r = s
        return r

    a, b = iroot(q.numerator), iroot(q.denominator)
    return Fraction(a, b) if a**n == q.numerator and b**n == q.denominator else None


def ln_prefactor(base: Fraction) -> Prefactor:
    """The constant ln(base) as a tag (it multiplies, the value is additive)."""
    base = Fraction(base)
    if base == 1:
        raise ValueError("ln(1) is 0, not a usable factor")
    return Prefactor(Fraction(1), ((f"ln:{base}", Fraction(1)),))
