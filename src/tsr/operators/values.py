"""The four kinds of value ``extend`` and ``integrate`` return.

A result is a bare ``mpf`` (a real point's oracle value), an exact
``SurrealValue``, a ``NumericTaylor`` (decimal Taylor coefficients in the
infinitesimal part zeta of a point x0 + zeta) or a ``DecoratedValue`` (a
surreal value plus a decimal real offset).  The last three subtract any
kind, a bare mpf on either side included, and sign, read and print
themselves, so no caller asks which kind it holds.  A difference is a value
or an ``UnsupportedPointError`` naming both kinds; its decimal parts take
the caller's working precision.  ``render(terms, digits)`` prints a real
offset and Taylor coefficients with ``digits`` significant digits and an
exact part exactly.  The kinds stay four types because the
benchmark's ``perfbench/execute.py::settle`` dispatches on them; one value
type waits for ROADMAP item 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

import mpmath as mp

from ..errors import UndecidableSupport, UnsupportedPointError
from ..stream import DEFAULT_ORDER_SCAN
from ..surreal import LazyNF, SurrealNF, render_nf
from .prefactor import Prefactor


class _Value:
    """Subtraction, and the text-only JSON of the decimal kinds."""

    def to_json(self, terms: int = 8, digits: int = 12) -> dict:
        return {"value": self.render(terms, digits)}

    def __sub__(self, other):
        return _difference(self, other) if isinstance(other, (mp.mpf, _Value)) else NotImplemented

    def __rsub__(self, other):
        return _difference(other, self) if isinstance(other, (mp.mpf, _Value)) else NotImplemented


@dataclass
class ValueGroup:
    prefactor: Prefactor
    stream: LazyNF

    def scaled(self, q: Fraction) -> "ValueGroup":
        return ValueGroup(self.prefactor, self.stream.scale(q))


@dataclass
class SurrealValue(_Value):
    """A finite sum of prefactor-scaled lazy normal forms."""

    groups: list[ValueGroup] = field(default_factory=list)

    @classmethod
    def zero(cls) -> "SurrealValue":
        return cls([])

    def merged(self) -> "SurrealValue":
        by_pref: dict[Prefactor, LazyNF] = {}  # in order of first appearance
        for g in self.groups:
            pref, stream = g.prefactor, g.stream
            if pref.factor != 1:
                # rational parts live in the stream; tags alone key the group
                pref, stream = Prefactor(Fraction(1), pref.powers), stream.scale(pref.factor)
            by_pref[pref] = by_pref[pref] + stream if pref in by_pref else stream
        return SurrealValue([ValueGroup(p, s) for p, s in by_pref.items() if s.term(0) is not None])

    def __add__(self, other: "SurrealValue") -> "SurrealValue":
        return SurrealValue(self.groups + other.groups).merged()

    def scale(self, q) -> "SurrealValue":
        q = Fraction(q)
        return SurrealValue([g.scaled(q) for g in self.groups] if q else [])

    def scale_prefactor(self, pref: Prefactor) -> "SurrealValue":
        if pref.is_one():
            return self
        return SurrealValue([ValueGroup(pref * g.prefactor, g.stream) for g in self.groups]).merged()

    def exact_nf(self, terms: int) -> SurrealNF:
        """The truncated normal form, requiring a single trivial prefactor."""
        merged = self.merged()
        if not merged.groups:
            return SurrealNF.zero()
        if len(merged.groups) != 1 or not merged.groups[0].prefactor.is_one():
            raise UnsupportedPointError("value carries irrational prefactors; no plain normal form")
        return merged.groups[0].stream.truncate(terms)

    def numeric_const(self):
        """Decimal value when every term sits at exponent zero (a constant)."""
        total = mp.mpf(0)
        for g in self.merged().groups:
            head = g.stream.truncate(2)
            if not head.is_rational():
                raise UnsupportedPointError(f"{self.render(3)} is not a real constant")
            q = head.as_rational()
            total += g.prefactor.numeric() * mp.mpf(q.numerator) / q.denominator
        return total

    def sign(self) -> int:
        return _sign(self.merged().groups, 0)

    def render(self, terms: int = 8, digits: int = 12) -> str:
        bits = []
        for g in self.merged().groups:
            body, pref = g.stream.render(terms), g.prefactor.render()
            bits.append(body if g.prefactor.is_one() else pref if body == "1" else f"{pref}*({body})")
        if not bits:
            return "0"
        return bits[0] + "".join(" - " + b[1:] if b.startswith("-") else " + " + b for b in bits[1:])

    def to_json(self, terms: int = 8, digits: int = 12) -> dict:
        return {
            "normal_form_terms": [
                {
                    "prefactor": g.prefactor.render(),
                    "terms": [{"exp": e.to_json_obj(), "coef": str(c)} for e, c in g.stream.terms(terms)],
                }
                for g in self.merged().groups
            ]
        }


@dataclass
class NumericTaylor(_Value):
    """Finite-point extension with decimal coefficients (oracle-backed)."""

    x0: Fraction
    coefficients: list  # mpf Taylor coefficients f^(k)(x0)/k!
    zeta: SurrealNF

    def numeric_const(self):
        if any(self.coefficients[1:]):
            raise UnsupportedPointError(f"{self.render(3)} is not a real constant")
        return self.coefficients[0] if self.coefficients else mp.mpf(0)

    def sign(self) -> int:
        """The sign of the first nonzero term c_k zeta^k."""
        for k, c in enumerate(self.coefficients):
            if c:
                return (1 if c > 0 else -1) * (1 if self.zeta.terms[0][1] > 0 else -1) ** k
        return 0

    def render(self, terms: int = 8, digits: int = 12) -> str:
        bits = []
        zk = SurrealNF.from_rational(1)
        for c in self.coefficients[:terms]:
            if c:
                co = mp.nstr(c, digits)
                bits.append(co if zk.is_rational() else f"{co}*({render_nf(zk)})")
            zk = zk * self.zeta
        return " + ".join(bits or ["0"]) + " + ..."

    def _coefficients_of(self, v) -> list:
        """v's Taylor coefficients in this zeta: its own, or a real constant's."""
        if isinstance(v, NumericTaylor) and v.zeta == self.zeta:
            return v.coefficients
        return [v if isinstance(v, mp.mpf) else v.numeric_const()] + [0] * (len(self.coefficients) - 1)


@dataclass
class DecoratedValue(_Value):
    """A surreal value plus a decimal real offset (mixed-endpoint integrals)."""

    surreal: SurrealValue
    offset: mp.mpf

    def numeric_const(self):
        return self.surreal.numeric_const() + self.offset

    def sign(self) -> int:
        """Without an infinite leading term the offset and the surreal
        part's constant decide together; the offset beats infinitesimals."""
        return _sign(self.surreal.merged().groups, self.offset)

    def render(self, terms: int = 8, digits: int = 12) -> str:
        body = self.surreal.render(terms)
        if self.offset == 0:
            return body
        text = mp.nstr(self.offset, digits)  # abs() would round to the context's precision
        return f"{body} - {text[1:]}" if text.startswith("-") else f"{body} + {text}"


def _difference(hi, lo):
    """hi - lo for two results, one of them at least a value class."""
    if isinstance(hi, NumericTaylor) or isinstance(lo, NumericTaylor):
        # a Taylor series at x0 + zeta less a real is the same series with its
        # constant coefficient shifted; two in one zeta subtract termwise
        for base in (hi, lo):
            if isinstance(base, NumericTaylor):
                try:
                    a, b = base._coefficients_of(hi), base._coefficients_of(lo)
                except UnsupportedPointError:
                    continue
                return replace(base, coefficients=[x - y for x, y in zip(a, b)])
        raise UnsupportedPointError(f"no difference of a {type(hi).__name__} and a {type(lo).__name__} value")
    (s, a), (t, b) = _parts(hi), _parts(lo)
    if s is t:  # a lazy stream less itself would cancel term after term
        surreal = SurrealValue.zero()
    else:
        surreal = s if not t.groups else t.scale(-1) if not s.groups else s + t.scale(-1)
    if a is None or b is None:
        offset = a if b is None else mp.fneg(b, exact=True)
    else:
        offset = a - b
    return surreal if offset is None else DecoratedValue(surreal, offset)


def _parts(v) -> tuple[SurrealValue, object]:
    """v as (exact part, decimal offset or None); a bare mpf is all offset."""
    if isinstance(v, mp.mpf):
        return SurrealValue.zero(), v
    return (v.surreal, v.offset) if isinstance(v, DecoratedValue) else (v, None)


def _sign(groups: list[ValueGroup], offset) -> int:
    """The sign of the sum of the groups and a real offset.

    The largest exponent among the groups' leading terms (the offset's is 0)
    decides; terms of several groups at one exponent add as decimals, and a
    zero sum passes the decision to the next exponent.
    """
    at = [0] * len(groups)  # each group's next term
    for _ in range(DEFAULT_ORDER_SCAN):
        heads = {k: t for k, g in enumerate(groups) if (t := g.stream.term(at[k])) is not None}
        exps = [e for e, _ in heads.values()] + ([SurrealNF.zero()] if offset else [])
        if not exps:
            return 0
        top = max(exps)
        total = mp.mpf(0)
        if offset and top.is_zero():
            total, offset = offset, 0
        for k, (e, c) in heads.items():
            if e == top:
                total += groups[k].prefactor.numeric() * c.numerator / c.denominator
                at[k] += 1
        if total:
            return 1 if total > 0 else -1
    raise UndecidableSupport(f"no nonzero term within scan bound {DEFAULT_ORDER_SCAN}")
