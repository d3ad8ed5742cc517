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


def render_nf(a: SurrealNF, *, compact: bool = False) -> str:
    """The text of a, each coefficient formatted from its numerator and
    denominator."""
    if not a.terms:
        return "0"
    plus, minus = (" + ", " - ") if not compact else ("+", "-")
    parts = []
    for i, (e, c) in enumerate(a.terms):
        n, d = c.numerator, c.denominator
        sign = (plus if i else "") if n > 0 else (minus if i else "-")
        coef = str(abs(n)) if d == 1 else f"{abs(n)}/{d}"
        if not e.terms:
            parts.append(sign + coef)
        elif coef == "1":
            parts.append(sign + _monomial(e))
        else:
            parts.append(f"{sign}{coef}*{_monomial(e)}")
    return "".join(parts)


def _monomial(e: SurrealNF) -> str:
    """The text of w^e for a nonzero exponent e."""
    if len(e.terms) == 1:
        e0, c0 = e.terms[0]
        n, d = c0.numerator, c0.denominator
        if not e0.terms:  # a rational exponent
            if d != 1:
                return f"w^({n}/{d})"
            return "w" if n == 1 else f"w^{n}" if n > 0 else f"w^({n})"
        if n == d == 1 and e0.terms == _ONE.terms:
            return "w^w"
    return f"w^({render_nf(e, compact=True)})"


_ONE = SurrealNF.from_rational(1)


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
