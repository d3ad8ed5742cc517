"""Symbolic multiplicative scale factors for surreal values.

Coefficient arithmetic stays exact-rational throughout the library, so the
irrational scales that show up in the function catalog (powers of e, pi, and
surds like (2/3)^(1/6)) ride along as symbolic tags: a rational factor times
a product of named bases raised to rational powers.  Numeric contexts
enclose them in raw ``mpmath.libmp`` intervals at an explicit precision
(``Prefactor.enclosure``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
from mpmath import libmp

from ..resummation.kernels import _exp, _interval, _rounded


def _base(sym: str, wp: int) -> tuple:
    """A raw interval at wp bits holding a named base other than e."""
    if sym in ("pi", "ln2pi"):
        pi = libmp.mpf_pi(wp, libmp.round_floor), libmp.mpf_pi(wp, libmp.round_ceiling)
        return pi if sym == "pi" else libmp.mpi_log(libmp.mpi_mul(pi, (libmp.ftwo, libmp.ftwo)), wp)
    if sym.startswith("rat:"):
        return _interval(Fraction(sym[4:]), wp)
    if sym.startswith("ln:"):
        return libmp.mpi_log(_interval(Fraction(sym[3:]), wp), wp)
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

    def enclosure(self, wp: int) -> tuple:
        """A raw interval at wp bits holding the prefactor; no context
        precision is read or set."""
        out = _interval(self.factor, wp)
        for sym, q in self.powers:
            power = _exp(_interval(q, wp), wp) if sym == "e" else libmp.mpi_pow(_base(sym, wp), _interval(q, wp), wp)
            out = libmp.mpi_mul(out, power, wp)
        return out

    def numeric(self):
        """The prefactor at the working precision: its enclosure's midpoint
        20 bits past it, rounded."""
        prec = mp.mp.prec
        return _rounded(self.enclosure(prec + 20), prec)[0]

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
