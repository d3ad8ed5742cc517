"""Text form of normal forms: ``w^(E)*C`` terms joined by `` + ``/`` - ``.

Examples of the grammar: ``w^w - 1``, ``w^(w-1) + w^(w-2) + 2*w^(w-3)``,
``1/2*w^(-1)``.  Exponents render recursively (compactly, without spaces);
``parse_nf`` reads the same grammar back.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import ExpressionSyntaxError
from ..scanner import Scanner
from .normal_form import SurrealNF


def _render_exponent(e: SurrealNF) -> str:
    if e.is_rational():
        q = e.as_rational()
        if q.denominator == 1 and q >= 0:
            return str(q)
        return f"({q})"
    if len(e.terms) == 1 and e.terms[0][1] == 1 and e.terms[0][0].is_rational() and e.terms[0][0].as_rational() == 1:
        return "w"
    return f"({render_nf(e, compact=True)})"


def _render_term(e: SurrealNF, c: Fraction) -> str:
    c = abs(c)
    if e.is_zero():
        return str(c)
    if e.is_rational() and e.as_rational() == 1:
        mono = "w"
    else:
        mono = f"w^{_render_exponent(e)}"
    if c == 1:
        return mono
    return f"{c}*{mono}"


def render_nf(a: SurrealNF, *, compact: bool = False) -> str:
    if a.is_zero():
        return "0"
    plus, minus = (" + ", " - ") if not compact else ("+", "-")
    parts = []
    for i, (e, c) in enumerate(a.terms):
        body = _render_term(e, c)
        if i == 0:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((plus if c > 0 else minus) + body)
    return "".join(parts)


def parse_nf(text: str) -> SurrealNF:
    sc = Scanner(text)
    value = _parse_sum(sc)
    sc.finish()
    return value


def _parse_sum(sc: Scanner) -> SurrealNF:
    negate = False
    if sc.take("-"):
        negate = True
    else:
        sc.take("+")
    total = _parse_term(sc)
    if negate:
        total = -total
    while True:
        if sc.take("+"):
            total = total + _parse_term(sc)
        elif sc.take("-"):
            total = total - _parse_term(sc)
        else:
            return total


def _parse_term(sc: Scanner) -> SurrealNF:
    ch = sc.peek()
    if ch == "w":
        return _parse_monomial(sc, Fraction(1))
    coef = sc.rational()
    if sc.take("*"):
        if sc.peek() != "w":
            raise ExpressionSyntaxError("expected w after *", sc.pos)
        return _parse_monomial(sc, coef)
    return SurrealNF.from_rational(coef)


def _parse_monomial(sc: Scanner, coef: Fraction) -> SurrealNF:
    sc.expect("w")
    if not sc.take("^"):
        return SurrealNF.monomial(SurrealNF.from_rational(1), coef)
    ch = sc.peek()
    if ch == "(":
        expo = sc.parenthesized(_parse_sum)
    elif ch == "w":
        sc.expect("w")
        expo = SurrealNF.monomial(SurrealNF.from_rational(1))
    else:
        expo = SurrealNF.from_rational(sc.rational())
    mono = SurrealNF.monomial(expo, coef)
    # allow coefficient written after the monomial, per the w^(E)*C shape
    if sc.take("*"):
        mono = mono * SurrealNF.from_rational(sc.rational())
    return mono
