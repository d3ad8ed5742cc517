"""Expression grammar and text/JSON forms for T1 transseries.

Atoms: rationals, ``x``, ``x^(p/q)``, ``exp(r*x)``, ``log(x)``,
``series![c1, c2, ...]`` (explicit leading coefficients) and named oracles
``#ei``, ``#erfi``, ``#airy_u``, ``#stirling``.  Expressions are sums of
products; parenthesized sums distribute over products.  Division is allowed
by monomial factors only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from ..errors import DomainError, ExpressionSyntaxError, GridMergeError
from ..scanner import Scanner, fraction
from .grid import Group, LogPart, TransseriesT1, assemble
from .series import PowerSeries


@dataclass
class _Raw:
    coef: Fraction = Fraction(1)
    mu: Fraction = Fraction(0)
    pow: Fraction = Fraction(0)
    logdeg: int = 0
    series: Optional[PowerSeries] = None

    def mul(self, other: "_Raw") -> "_Raw":
        if self.series is not None and other.series is not None:
            series = self.series.mul(other.series)
        else:
            series = self.series or other.series
        return _Raw(
            self.coef * other.coef,
            self.mu + other.mu,
            self.pow + other.pow,
            self.logdeg + other.logdeg,
            series,
        )

    def invert(self, pos: int) -> "_Raw":
        if self.series is not None or self.logdeg:
            raise ExpressionSyntaxError("can only divide by monomial factors", pos)
        if not self.coef:
            raise ExpressionSyntaxError("division by zero", pos)
        return _Raw(1 / self.coef, -self.mu, -self.pow, 0, None)


def ts_parse(text: str) -> TransseriesT1:
    tok = Scanner(text)
    terms = _parse_sum(tok)
    tok.finish()
    return _assemble_raw(terms)


def _parse_sum(tok: Scanner) -> list[_Raw]:
    out: list[_Raw] = []
    sign = Fraction(-1) if tok.take("-") else Fraction(1)
    out += [replace(t, coef=t.coef * sign) for t in _parse_product(tok)]
    while True:
        if tok.take("+"):
            out += _parse_product(tok)
        elif tok.take("-"):
            out += [replace(t, coef=-t.coef) for t in _parse_product(tok)]
        else:
            return out


def _parse_product(tok: Scanner) -> list[_Raw]:
    terms = _parse_factor(tok)
    while True:
        if tok.take("*"):
            terms = _cross(terms, _parse_factor(tok))
        elif tok.take("/"):
            pos = tok.pos
            divisor = _parse_factor(tok)
            if len(divisor) != 1:
                raise ExpressionSyntaxError("can only divide by monomial factors", pos)
            terms = _cross(terms, [divisor[0].invert(pos)])
        else:
            return terms


def _cross(a: list[_Raw], b: list[_Raw]) -> list[_Raw]:
    """The products of the terms of a and b, like terms collected: those with
    one (mu, pow, logdeg) and no series by adding their coefficients, those
    with a series by adding their scaled series, in one flat sum."""
    like: dict[tuple, list[_Raw]] = {}
    for t in (ta.mul(tb) for ta in a for tb in b):
        like.setdefault((t.mu, t.pow, t.logdeg, t.series is not None), []).append(t)
    out = []
    for first, *rest in like.values():
        if not rest:
            out.append(first)
        elif first.series is None:
            out.append(replace(first, coef=sum((t.coef for t in rest), first.coef)))
        else:
            series = PowerSeries.sum((0, t.series.scale(t.coef)) for t in [first, *rest])
            out.append(replace(first, coef=Fraction(1), series=series))
    return out


def _parse_factor(tok: Scanner) -> list[_Raw]:
    terms = _parse_atom(tok)
    if tok.take("^"):
        pos = tok.pos
        if tok.take("("):
            e = tok.rational()
            tok.expect(")")
        else:
            e = tok.rational()
        if len(terms) == 1 and terms[0].series is None and terms[0].logdeg == 0:
            t = terms[0]
            if t.coef != 1 and e.denominator != 1:
                raise ExpressionSyntaxError("fractional power of a coefficient", pos)
            if not t.coef and e < 0:
                raise ExpressionSyntaxError("division by zero", pos)
            coef = t.coef ** int(e) if e.denominator == 1 else Fraction(1)
            return [_Raw(coef, t.mu * e, t.pow * e, 0, None)]
        if e.denominator != 1 or e < 1:
            raise ExpressionSyntaxError("need a positive integer power here", pos)
        # square and multiply
        n, out = int(e), None
        while True:
            if n & 1:
                out = terms if out is None else _cross(out, terms)
            n >>= 1
            if not n:
                return out
            terms = _cross(terms, terms)
    return terms


def _parse_atom(tok: Scanner) -> list[_Raw]:
    ch = tok.peek()
    if ch == "(":
        return tok.parenthesized(_parse_sum)
    if tok.take("exp("):
        mu = _parse_linear_arg(tok)
        tok.expect(")")
        return [_Raw(mu=mu)]
    if tok.take("log(x)"):
        return [_Raw(logdeg=1)]
    if tok.take("series!["):
        coeffs = []
        if tok.peek() != "]":
            coeffs.append(tok.rational())
            while tok.take(","):
                coeffs.append(tok.rational())
        tok.expect("]")
        return [_Raw(series=PowerSeries.from_coeffs(coeffs))]
    if tok.take("#"):
        start = tok.pos
        while tok.pos < len(tok.text) and (tok.text[tok.pos].isalnum() or tok.text[tok.pos] == "_"):
            tok.pos += 1
        name = tok.text[start : tok.pos]
        from ..coefficients import named_series

        try:
            return [_Raw(series=named_series(name))]
        except KeyError:
            raise ExpressionSyntaxError(f"unknown series oracle #{name}", start) from None
    if ch == "x":
        tok.expect("x")
        return [_Raw(pow=Fraction(1))]
    if ch and (ch.isdigit() or ch in "+-"):
        return [_Raw(coef=tok.rational())]
    raise ExpressionSyntaxError("expected an atom", tok.pos)


def _parse_linear_arg(tok: Scanner) -> Fraction:
    """The exp argument: r*x with optional rational r (including -x, x)."""
    if tok.take("x"):
        return Fraction(1)
    if tok.startswith("-x"):
        tok.take("-x")
        return Fraction(-1)
    r = tok.rational()
    tok.expect("*")
    tok.expect("x")
    return r


def _assemble_raw(terms: list[_Raw]) -> TransseriesT1:
    groups: list[Group] = []
    P: list[Fraction] = []
    for t in terms:
        if t.logdeg >= 2:
            raise GridMergeError("log^2 terms leave the depth-one space")
        if t.logdeg == 1:
            if t.mu != 0 or t.series is not None:
                raise GridMergeError("log may only multiply pure powers in T1")
            if t.pow.denominator != 1 or t.pow < 0:
                raise GridMergeError("log terms need natural powers of x")
            i = int(t.pow)
            while len(P) <= i:
                P.append(Fraction(0))
            P[i] += t.coef
            continue
        if t.series is None:
            groups.append(Group(t.mu, t.pow + 1, PowerSeries.from_coeffs([t.coef])))
        else:
            groups.append(Group(t.mu, t.pow, t.series.scale(t.coef)))
    return assemble(groups, LogPart(tuple(P)))


# -- printing ------------------------------------------------------------------


def _series_text(ps: PowerSeries, offset: Fraction, truncation: int) -> str:
    """Render x^offset * ps as signed fragments like 2/x^3 or x^(1/2)."""
    frags: list[tuple[int, str]] = []  # (sign, body)
    shown = 0
    l = 1
    while shown < truncation and l <= truncation * 4:
        c = ps.coeff(l)
        if ps.length is not None and l > ps.length:
            break
        if c != 0:
            power = offset - l
            frags.append((1 if c > 0 else -1, _monomial_text(abs(c), power)))
            shown += 1
        l += 1
    more = (ps.length is None and shown == truncation) or (
        ps.length is not None and ps.nonzero_from(l)
    )
    if not frags:
        return "0"
    out = ("-" if frags[0][0] < 0 else "") + frags[0][1]
    for sgn, body in frags[1:]:
        out += (" + " if sgn > 0 else " - ") + body
    if more:
        out += " + ..."
    return out


def _monomial_text(c: Fraction, power: Fraction) -> str:
    if power == 0:
        return str(c)
    if power.denominator == 1 and power < 0:
        l = -int(power)
        xpow = "x" if l == 1 else f"x^{l}"
        if c == 1:
            return f"1/{xpow}"
        if c.denominator == 1:
            return f"{c}/{xpow}"
        return f"{c.numerator}/({c.denominator}*{xpow})"
    xpart = "x" if power == 1 else (f"x^{power}" if power.denominator == 1 else f"x^({power})")
    return xpart if c == 1 else f"{c}*{xpart}"


def _exp_text(mu: Fraction) -> str:
    if mu == 1:
        return "exp(x)"
    if mu == -1:
        return "exp(-x)"
    return f"exp({mu}*x)"


def ts_print(ts: TransseriesT1, truncation: int = 8) -> str:
    """Deterministic text form, dominant transmonomials first."""
    pieces: list[tuple[int, str]] = []

    def emit(sign: int, body: str):
        pieces.append((sign, body))

    for grp in ts.plus:
        body = f"{_exp_text(grp.mu)}*({_series_text(grp.series, grp.offset, truncation)})"
        emit(1, body)
    lp = ts.log
    for i in range(len(lp.P) - 1, -1, -1):
        c = lp.p_coeff(i)
        if c == 0:
            continue
        head = "log(x)" if i == 0 else f"{_monomial_text(Fraction(1), Fraction(i))}*log(x)"
        emit(1 if c > 0 else -1, head if abs(c) == 1 else f"{abs(c)}*" + head)
    for i in range(len(lp.Q) - 1, -1, -1):
        c = lp.q_coeff(i)
        if c != 0:
            emit(1 if c > 0 else -1, _monomial_text(abs(c), Fraction(i)))
    for grp in ts.minus:
        s = grp.series
        if s.is_zero_upto(truncation) and s.is_finite() and (s.length or 0) <= truncation:
            continue
        if grp.mu == 0:
            text = _series_text(s, Fraction(0), truncation)
            if text != "0":
                if text.startswith("-"):
                    emit(-1, text[1:])
                else:
                    emit(1, text)
            continue
        body = f"{_exp_text(grp.mu)}*({_series_text(s, grp.offset, truncation)})"
        emit(1, body)
    if not pieces:
        return "0"
    out = ("-" if pieces[0][0] < 0 else "") + pieces[0][1]
    for sign, body in pieces[1:]:
        out += (" + " if sign > 0 else " - ") + body
    return out


# -- JSON ----------------------------------------------------------------------


def _series_json(ps: PowerSeries, order: int):
    if ps.is_finite():
        return {"coeffs": [str(c) for c in ps.coeffs(ps.length or 0)]}
    from ..coefficients import named_multiple

    named = named_multiple(ps)
    if named:
        name, c = named
        return {"oracle": name, "order": order} | ({"scale": str(c)} if c != 1 else {})
    return {"coeffs": [str(c) for c in ps.coeffs(order)], "truncated": True}


def _trimmed(g: Group) -> Optional[Group]:
    """The group with its finite series cut to its nonzero span, the offset
    lowered by the zeros cut at the start (the mu = 0 series keeps them and
    its offset 0); None for a zero finite series."""
    s = g.series
    if s.length is None:
        return g
    c = s.coeffs(s.length)
    nonzero = [l for l, v in enumerate(c) if v]
    if not nonzero:
        return None
    lead = nonzero[0] if g.mu else 0
    return Group(g.mu, g.offset - lead, PowerSeries.from_coeffs(c[lead : nonzero[-1] + 1]))


def _groups_json(groups, order: int) -> list:
    """Each group x^beta e^(mu x) y as {"lambda": |mu|, "beta", "series"},
    its finite series first cut to its nonzero span (``_trimmed``), so
    equal transseries write equal JSON."""
    return [
        {"lambda": str(abs(g.mu)), "beta": str(g.offset), "series": _series_json(g.series, order)}
        for g in filter(None, map(_trimmed, groups))
    ]


def _json_kind(value, kind, where: str):
    """value, if it is a JSON object (kind dict) or array (kind list)."""
    if not isinstance(value, kind):
        raise DomainError(f"{where} must be a JSON {'object' if kind is dict else 'array'}, got {value!r}")
    return value


def _json_fraction(value, where: str) -> Fraction:
    """A rational number written as a string ("-3/2") or a JSON number."""
    if isinstance(value, (str, int, float)) and not isinstance(value, bool):
        try:
            return fraction(value) if isinstance(value, str) else Fraction(value)
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
        except DomainError as exc:
            raise DomainError(f"{where}: {exc}") from None
    raise DomainError(f"{where} must be a rational number, got {value!r}")


def _json_fractions(obj: dict, key: str, where: str) -> tuple:
    return tuple(_json_fraction(v, f"{where}[{i}]") for i, v in enumerate(_json_kind(obj.get(key, []), list, where)))


def _series_from_json(obj, where: str) -> PowerSeries:
    _json_kind(obj, dict, where)
    if "oracle" in obj:
        from ..coefficients import NAMED_SERIES, named_series

        if obj["oracle"] not in NAMED_SERIES:
            raise DomainError(f"{where}.oracle names no registered series: {obj['oracle']!r}")
        return named_series(obj["oracle"]).scale(_json_fraction(obj.get("scale", 1), f"{where}.scale"))
    if "coeffs" not in obj:
        raise DomainError(f"{where} needs \"coeffs\" or \"oracle\"")
    head = PowerSeries.from_coeffs(list(_json_fractions(obj, "coeffs", f"{where}.coeffs")))
    # a truncated series stays infinite, so it writes back truncated; past its head it reads 0
    return PowerSeries(head.coeff) if obj.get("truncated") else head


def ts_to_json(ts: TransseriesT1, order: int = 16) -> dict:
    """``minus`` and ``plus`` as their lists of groups: ``minus`` the mu = 0
    series first (lambda = 0), then x^beta e^(-lambda x) y by lambda
    ascending; ``plus`` x^beta e^(lambda x) y by lambda descending.  An
    infinite series writes its first ``order`` coefficients, or c * #name
    as {"oracle": name, "scale": c}.  R(1/x) is in the mu = 0 series, so
    "log" writes "R" empty."""
    return {
        "minus": _groups_json(ts.minus, order),
        "log": {
            "P": [str(c) for c in ts.log.P],
            "Q": [str(c) for c in ts.log.Q],
            "R": [],
        },
        "plus": _groups_json(ts.plus, order),
    }


def _groups_from_json(obj: dict, part: str) -> list[Group]:
    """The groups of ``part``: x^beta e^(-lambda x) y with lambda >= 0 in
    "minus", x^beta e^(lambda x) y with lambda > 0 in "plus"."""
    sign = 1 if part == "plus" else -1
    groups = []
    for i, t in enumerate(_json_kind(obj.get(part, []), list, part)):
        where = f"{part}[{i}]"
        _json_kind(t, dict, where)
        lam, beta = (_json_fraction(t.get(f), f"{where}.{f}") for f in ("lambda", "beta"))
        if lam < 0 or (lam == 0 and sign > 0):
            least = "positive" if sign > 0 else "at least 0"
            raise DomainError(f"{where}.lambda: {part}-part rates must be {least}, got {t['lambda']!r}")
        groups.append(Group(sign * lam, beta, _series_from_json(t.get("series"), f"{where}.series")))
    return groups


def ts_from_json(obj) -> TransseriesT1:
    """The T1 that ``ts_to_json`` wrote.  Input of another shape is a
    DomainError that names the field at fault, as "minus[0].series.coeffs[2]"."""
    _json_kind(obj, dict, "the transseries")
    minus = _groups_from_json(obj, "minus")
    lg = _json_kind(obj.get("log", {}), dict, "log")
    P, Q, R = (_json_fractions(lg, part, f"log.{part}") for part in "PQR")
    # re-normalize: assemble merges the groups, R(1/x) into the mu = 0 series
    r = Group(0, 0, PowerSeries.from_coeffs(R))
    return assemble([r] + minus + _groups_from_json(obj, "plus"), LogPart(P, Q))
