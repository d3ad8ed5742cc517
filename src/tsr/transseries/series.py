"""Formal power series sum(c_l * x^-l, l >= 1) with exact rational coefficients.

A series is its coefficients, its length and its kernel, all fixed when it
is built.  Coefficients come from a memoized oracle, so recurrence-backed
and closed-form series share one representation with explicit finite lists;
an oracle may read the series' own lower coefficients, which are memoized
before it asks.  ``length`` is the greatest possibly-nonzero index of a
finite series, None for an infinite one.  The kernel is the Borel kernel (a
``KernelEntry``, built on first read) the sum uses; ``scale`` carries it,
``PowerSeries.sum`` carries it for unshifted multiples of one kernel, and
all else drops it.  All operations are exact; memoization is
recomputation-safe.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property, reduce
from itertools import count
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from ..stream import Stream

if TYPE_CHECKING:
    from ..resummation.kernels import KernelEntry


class PowerSeries:
    """O(1/x) series with coefficient oracle ``coeff(l)`` for l >= 1."""

    def __init__(
        self,
        coeff_fn: Callable[[int], Fraction],
        *,
        length: Optional[int] = None,
        kernel: Optional[Callable[[], Optional["KernelEntry"]]] = None,
    ):
        self._coeff_fn = coeff_fn
        self._coeffs = Stream(lambda: map(lambda l: Fraction(coeff_fn(l)), count(1)))
        self.length = length
        self._kernel_fn = kernel or (lambda: None)

    @cached_property
    def kernel(self) -> Optional["KernelEntry"]:
        """The Borel kernel entry this series is summed with, or None."""
        return self._kernel_fn()

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> "PowerSeries":
        return cls(lambda l: Fraction(0), length=0)

    @classmethod
    def sum(cls, parts: Iterable[tuple[int, "PowerSeries"]]) -> "PowerSeries":
        """The sum of x^-d * s over the pairs (d, s), as one series.

        Coefficient l adds the c_(l-d) with l - d >= 1, so a negative d drops
        the first -d coefficients of s.  A part left empty by its shift is
        dropped, and a lone unshifted part is returned itself.  The finite
        parts' coefficients are added into one table, by index, on the first
        read, so a sum of n finite parts costs their total length, not n per
        coefficient; the infinite parts stay lazy.  The sum keeps a kernel
        only when no part is shifted: that of every part, added.  Finite
        parts that add to zero beside an infinite one are left out of it.
        """
        parts = [(d, s) for d, s in parts if s.length is None or s.length > max(-d, 0)]
        if not parts:
            return cls.zero()
        if len(parts) == 1 and parts[0][0] == 0:
            return parts[0][1]
        finite = [(d, s) for d, s in parts if s.length is not None]
        lazy = [(d, s) for d, s in parts if s.length is None]
        length = None if lazy else max(s.length + d for d, s in finite)

        @cache
        def head() -> dict[int, Fraction]:
            out: dict[int, Fraction] = {}
            for d, s in finite:
                for i in range(max(1, 1 - d), s.length + 1):
                    out[i + d] = out.get(i + d, 0) + s.coeff(i)
            return out

        def coeff(l: int) -> Fraction:
            c = head().get(l, 0)
            return c + sum(s.coeff(l - d) for d, s in lazy if d < l) if lazy else c

        def kernel():
            live = lazy if lazy and finite and not any(head().values()) else parts
            if any(d for d, _ in live):
                return None
            return reduce(lambda k, e: k and e and k + e, (s.kernel for _, s in live))

        return cls(coeff, length=length, kernel=kernel)

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[Fraction]) -> "PowerSeries":
        """Explicit leading coefficients c_1..c_n, the rest zero."""
        coeffs = [Fraction(c) for c in coeffs]
        return cls(lambda l: coeffs[l - 1] if 1 <= l <= len(coeffs) else Fraction(0), length=len(coeffs))

    # -- coefficient access ---------------------------------------------------

    def coeff(self, l: int) -> Fraction:
        if l < 1:
            raise IndexError("series indices start at 1")
        if self.length is not None and l > self.length:
            return Fraction(0)
        return self._coeffs[l - 1]

    def coeffs(self, n: int) -> list[Fraction]:
        return [self.coeff(l) for l in range(1, n + 1)]

    def is_finite(self) -> bool:
        return self.length is not None

    def nonzero_from(self, l: int) -> bool:
        """Whether a finite series has a nonzero coefficient at an index >= l.

        The oracle itself is read, downward from ``length`` and unmemoized,
        so a far-off last term costs one read, not one per index below it.
        """
        return any(self._coeff_fn(j) != 0 for j in range(self.length, max(l, 1) - 1, -1))

    def is_zero_upto(self, n: int) -> bool:
        return all(self.coeff(l) == 0 for l in range(1, n + 1))

    # -- arithmetic -----------------------------------------------------------

    def scale(self, c) -> "PowerSeries":
        c = Fraction(c)
        if c == 0:
            return PowerSeries.zero()
        if c == 1:
            return self
        return PowerSeries(
            lambda l: c * self.coeff(l),
            length=self.length,
            kernel=lambda: self.kernel and self.kernel.scale(c),
        )

    def mul(self, other: "PowerSeries") -> "PowerSeries":
        """Cauchy product (starts at x^-2)."""
        length = None
        if self.length is not None and other.length is not None:
            length = self.length + other.length

        def fn(l: int) -> Fraction:
            return sum(
                (self.coeff(i) * other.coeff(l - i) for i in range(1, l)),
                Fraction(0),
            )

        return PowerSeries(fn, length=length)

    def diff_combo(self, beta: Fraction, rate: Fraction) -> "PowerSeries":
        """(beta/x + rate) * y + y': content series of (x^beta e^(rate x) y)'."""
        beta = Fraction(beta)
        rate = Fraction(rate)

        def fn(l: int) -> Fraction:
            out = rate * self.coeff(l)
            if l >= 2:
                out += (beta - (l - 1)) * self.coeff(l - 1)
            return out

        length = None if self.length is None else self.length + 1
        return PowerSeries(fn, length=length)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs(4))
        return f"PowerSeries[{head}, ...]"
