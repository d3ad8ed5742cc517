"""The map from transseries to surreal values at positive infinite points.

Evaluation points are surreals of the form nu = r*w + s (r > 0, s rational).
Transmonomials map through two imported exponential identities,

    exp(r * w^a) = w^(r * w^a)   for rational a >= 1, and
    log w = w^(1/w)              (equivalently exp(r*w^(1/w)) = w^r),

together with binomial re-expansion of the infinitesimal tilt.  The critical
time is t0 = b * w^p * (1 + u) with p > 0 and 1 + u = (1 + s/(r w))^p.  The
point is read as the rationals r, s and the power p it is made of: s != 0
needs an integer p, and then u = sum(binom(p, j) (s/r)^j w^-j, j = 1..p) is
written down term by term, with no normal-form power.  A series
sum(c_l t0^(offset - l)) has a closed-form coefficient at each leader
w^(p*offset - m): a finite sum over l <= m/p of binomial terms.  Every stream
produced here is an exact Conway Limit emitted one leader at a time.

A group's exponential e^(mu t0) is a monomial: mu t0 = mu b w^p (1 + u) has
the exponents p, p - 1, ..., 0 only, its w^0 coefficient is the real part q
and the rest is purely infinite, so its exponential is w^E e^q with no
infinitesimal part.  Every exponent of E is at least 1, above the rational
exponent of any leader, so the group's leaders are generated with E in
their exponents (E's terms, then the rational part), and e^q is a tag in the
group's prefactor.

Two exact sums of infinitesimals live here.  ``exp_grid`` takes a
lazy stream with rational exponents, all multiples of one step m = w^step,
and runs the recurrence n b_n = sum(j c_j b_(n-j)) on that grid in one pass
(Gamma at w is the exp of log Gamma's Stirling tail there), with a
monomial w^lead in each exponent as the leaders carry w^E.  ``conway_sum``
sums c_k z^k for a finite normal form z of any exponents by normal-form
products (the exact Taylor sums at finite points).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import comb, gcd
from typing import Callable, Iterator, Optional

from ..errors import UnsupportedPointError
from ..surreal import GT, LT, LazyNF, SurrealNF, decompose, nf_cmp, one
from ..transseries.grid import TransseriesT1, groups_of
from ..transseries.series import PowerSeries
from .prefactor import Prefactor, _exact_root, ln_prefactor
from .values import SurrealValue, ValueGroup

#: the zero term a generator yields for a search step that found no term;
#: the ``LazyNF`` drops it unread and counts it against its search budget
_NOTHING = (SurrealNF.zero(), 0)


# -- the imported exponential identities ---------------------------------------


def g_map_exponent(y: SurrealNF) -> SurrealNF:
    """g with exp(w^y) = w^(w^g(y)); imported for y >= 1 and y = 1/w."""
    if nf_cmp(y, one()) != LT:
        return y
    if y == SurrealNF.monomial(SurrealNF.from_rational(-1)):
        return SurrealNF.zero()
    raise UnsupportedPointError(f"no imported exponential identity for exponent {y}")


def exp_purely_infinite(a: SurrealNF) -> SurrealNF:
    """exp(sum r_i w^(y_i)) = w^E with E = sum r_i w^(g(y_i)); returns E."""
    out = []
    for y, r in a.terms:
        if nf_cmp(y, SurrealNF.zero()) != GT:
            raise ValueError("argument must be purely infinite")
        out.append((g_map_exponent(y), r))
    return SurrealNF(out, _normalized=True)  # g keeps the exponents in order


def conway_sum(coeff: Callable[[int], Fraction], z: SurrealNF, *, length: Optional[int] = None) -> LazyNF:
    """sum(coeff(k) z^k, k >= 0) for strictly infinitesimal z, exactly.

    Partial sums stabilize leader by leader: z^k only reaches exponents at or
    below k * (leading exponent of z), so once c_k z^k is added, the terms
    above (k + 1) * top are final.  Only the terms not yet final are kept:
    each step merges c_k z^k into them and emits their final head, so a
    step's work does not grow with the terms emitted before it.  With
    ``length`` the coefficients from c_length on are known to be zero: the
    sum is final after c_(length-1) z^(length-1), and the stream ends there.
    Without it, a zero coefficient with no term pending is a search step
    that found nothing, and the stream keeps the budget for such steps.
    """
    top = z.terms[0][0]  # leading (negative) exponent

    def gen() -> Iterator:
        pending = SurrealNF.zero()  # the partial sum less the terms emitted
        zk = one()
        for k in count():
            if k:
                zk = zk * z
            c = coeff(k)
            if c:
                pending = pending + zk * c
            final = length is not None and k + 1 >= length
            terms = pending.terms
            i = len(terms)
            if not final:
                horizon = (k + 1) * top
                i = next((j for j, t in enumerate(terms) if nf_cmp(t[0], horizon) != GT), i)
            yield from terms[:i]
            if final:
                return
            pending = SurrealNF(terms[i:], _normalized=True)
            if length is None and not c and not pending.terms:
                yield _NOTHING

    return LazyNF(gen)


def exp_grid(z: LazyNF, lead: SurrealNF = SurrealNF.zero()) -> LazyNF:
    """w^lead exp(z) for a lazily given strictly infinitesimal z, in one pass.

    With step the first exponent of z, z = sum(c_j m^j, j >= 1) on the grid
    m = w^step, and exp(z) = sum(b_n m^n) with b_0 = 1 and

        n b_n = sum(j c_j b_(n-j), j = 1..n)

    (exp(z)' = z' exp(z) under m d/dm), in Fractions.  ``lead`` has no
    infinitesimal terms (Gamma's w^E, E from ``exp_purely_infinite``), so
    the exponent of b_n is lead's infinite terms followed by its rational
    part plus n step, and no normal forms are added.  b_n is final once
    c_1..c_n are known: once z is pulled to a term at or below m^n, or to its
    end.  A later exponent off the grid refines the step to the rational gcd
    and re-indexes the pulled c_j and the b_n so far; the new term lies below
    every emitted one, so they stay final.  A non-rational exponent raises
    UnsupportedPointError.  While z may hold more terms, a zero b_n is a
    search step that found nothing, and the stream keeps the budget for such
    steps; a finite z cannot give an endless run, as exp of a nonzero
    polynomial in m is no polynomial.
    """

    head, base, _ = decompose(lead)

    def gen() -> Iterator:
        yield (lead, Fraction(1))
        terms = iter(z)
        first = next(terms, None)
        if first is None:
            return
        step = _rational_exponent(first[0])
        jc = [(1, first[1])]  # (j, j c_j) for each pulled term, j ascending
        b = [Fraction(1)]
        last, ended = 1, False  # c_1..c_last are known
        while True:
            while not ended and last < len(b):
                t = next(terms, None)
                if t is None:
                    ended = True
                    break
                d = _rational_exponent(t[0]) / step
                a = d.denominator
                if a != 1:  # refine the grid to m^(1/a)
                    step /= a
                    jc = [(j * a, v * a) for j, v in jc]
                    grid = [0] * ((len(b) - 1) * a + 1)
                    grid[::a] = b
                    b = grid
                last = int(d * a)
                jc.append((last, last * t[1]))
            n = len(b)
            bn = sum((v * b[n - j] for j, v in jc if j <= n), Fraction(0)) / n
            b.append(bn)
            if bn:
                e = base + n * step
                yield (SurrealNF(head.terms + ((SurrealNF.zero(), e),) if e else head.terms, _normalized=True), bn)
            elif not ended:
                yield _NOTHING

    return LazyNF(gen)


def _rational_exponent(e: SurrealNF) -> Fraction:
    if not e.is_rational():
        raise UnsupportedPointError(f"exp of a stream with the non-rational exponent {e}")
    return e.as_rational()


# -- points and powers ----------------------------------------------------------


@dataclass
class PointData:
    """nu = r*w + s decomposed, plus its critical-time image t0 = c * nu^q."""

    r: Fraction
    s: Fraction
    t0_lead_exp: Fraction  # t0 = r1 * w^(e1) * (1 + u)
    t0_lead_coef: Fraction
    u: SurrealNF  # the tilt (1 + s/(r w))^q - 1: binom(q, j) (s/r)^j w^-j, j = 1..q; 0 if s = 0


def analyze_point(nu: SurrealNF, *, crit_coef: Fraction = Fraction(1), crit_power: Fraction = Fraction(1)) -> PointData:
    """Validate nu = r*w + s and build t0 = crit_coef * nu^crit_power."""
    terms = dict()
    for e, c in nu.terms:
        if not e.is_rational():
            raise UnsupportedPointError(f"point {nu} outside the r*w + s grammar")
        terms[e.as_rational()] = c
    if set(terms) - {Fraction(1), Fraction(0)}:
        raise UnsupportedPointError(f"point {nu} outside the r*w + s grammar")
    r = terms.get(Fraction(1), Fraction(0))
    s = terms.get(Fraction(0), Fraction(0))
    if r <= 0:
        raise UnsupportedPointError("point must be positive infinite: need r > 0")
    crit_power = Fraction(crit_power)
    if crit_power <= 0:
        raise UnsupportedPointError(f"critical power {crit_power}: the critical time must be positive infinite")

    # nu^p = r^p w^p (1 + x/w)^p with x = s/r, and for an integer p the tilt
    # (1 + x/w)^p - 1 is the binomial sum of x^j w^-j, j = 1..p, in order
    if s == 0:
        u = SurrealNF.zero()
    elif crit_power.denominator != 1:
        raise UnsupportedPointError("fractional critical powers need s = 0 in the evaluation point")
    else:
        p, x = int(crit_power), s / r
        u = SurrealNF([(SurrealNF.from_rational(-j), comb(p, j) * x**j) for j in range(1, p + 1)], _normalized=True)
    lead_coef = _rational_pow(r, crit_power)
    return PointData(r=r, s=s, t0_lead_exp=crit_power, t0_lead_coef=Fraction(crit_coef) * lead_coef, u=u)


def _rational_pow(base: Fraction, q: Fraction) -> Fraction:
    if q.denominator == 1:
        return base ** int(q)
    root = _exact_root(base, q.denominator)
    if root is None:
        raise UnsupportedPointError(f"{base}^{q} is irrational; unsupported leader coefficient")
    return root**q.numerator


def eval_series_at(ps: PowerSeries, pt: PointData, offset: Fraction, shift=SurrealNF.zero()) -> tuple[Prefactor, LazyNF]:
    """w^shift * sum(c_l t0^(offset - l), l >= 1) as a prefactor-scaled
    descending stream, for a purely infinite ``shift`` whose exponents are
    all at least 1 (a group's e^(mu t0) less its real part).

    The leader coefficient b = t0_lead_coef enters each term as b^(offset - l)
    = b^offset * b^-l; the possibly irrational b^offset factors out as the
    group prefactor while the stream stays rational.

    With s = 0 the tilt is 1 and term l alone sits at w^(e1 (offset - l)).
    Otherwise 1 + u = (1 + x/w)^p with x = s/r and the integer p = e1, so the
    coefficient of w^(p offset - m) is exactly

        sum(c_l b^-l binom(p (offset - l), m - p l) x^(m - p l), l = 1..m // p).

    Each l keeps one live term, the leader m_l it entered at and an integer
    numerator over a denominator D that all live terms share, so a leader
    costs one gcd: its coefficient is Fraction(sum of numerators, D).  From
    leader m - 1 to m every term gains (p offset - m + 1) x / j, j = m - m_l
    its binomial order after the step, and D gains q_d x_d m (p offset =
    q_n / q_d, x = x_n / x_d), so a numerator n becomes
    n (q_n - (m - 1) q_d) x_n m // j.  The division is exact: a term's
    value has a denominator dividing den(c_l b^-l) (q_d x_d)^j j!, which
    divides D.  A new term whose den(c_l b^-l) does not divide D scales D
    and the live numerators by the missing factor; D restarts at 1 whenever
    no term is live (every step when s = 0).  The stream ends when the
    series is finite and every binomial has terminated; a zero leader of an
    unbounded series is a search step that found nothing, and the stream
    keeps the budget for such steps.

    A leader's exponent is the shift's terms followed by its rational
    exponent, which lies below all of them, so no normal forms are added.
    """
    pref = Prefactor.rational_power(pt.t0_lead_coef, offset)
    return pref, LazyNF(lambda: _series_leaders(ps, pt, offset, shift.terms))


def _series_leaders(ps: PowerSeries, pt: PointData, offset: Fraction, head: tuple) -> Iterator:
    b, x = pt.t0_lead_coef, pt.s / pt.r
    # s = 0 is the same recurrence with p = 1, x = 0 and exponents scaled by e1
    p, unit = (int(pt.t0_lead_exp), 1) if x else (1, pt.t0_lead_exp)
    top = p * offset  # term l's binomial upper index is top - p l
    qn, qd, xn, xd = top.numerator, top.denominator, x.numerator, x.denominator
    zero = SurrealNF.zero()
    live = []  # (the leader l entered at, its numerator over den) per live l
    den = 1
    for m in count(p):
        # from leader m - 1 to m every term gains (top - m + 1) x / (m - its entry)
        f = (qn - (m - 1) * qd) * xn * m
        if f and live:
            den *= qd * xd * m
            live = [(m0, n * f // (m - m0)) for m0, n in live]
        else:
            live, den = [], 1  # x = 0, or every binomial ends here
        l, rem = divmod(m, p)
        if rem == 0 and (ps.length is None or l <= ps.length):
            c = ps.coeff(l)
            if c:
                v = c * b**-l
                g = v.denominator // gcd(v.denominator, den)
                if g != 1:
                    den *= g
                    live = [(m0, n * g) for m0, n in live]
                live.append((m, v.numerator * (den // v.denominator)))
        elif ps.length is not None and l >= ps.length and not live:
            return
        total = sum(n for _, n in live)
        if total:
            e = unit * (top - m)  # below every exponent of the shift's head
            yield (SurrealNF(head + ((zero, e),) if e else head, _normalized=True), Fraction(total, den))
        elif ps.length is None:
            yield _NOTHING


def tau_eval_group(mu: Fraction, offset: Fraction, ps: PowerSeries, pt: PointData) -> ValueGroup:
    """One grid group x^offset e^(mu x) y(x) at the point's critical time.

    e^(mu t0) = w^E e^q is read off the rational coefficients of mu t0 at
    w^p, ..., w^0 (the tilt's, times mu b): q is the one at w^0, and E maps
    the others through ``exp_purely_infinite``.  The series stream carries E
    in its leaders' exponents, and e^q joins its prefactor.
    """
    if mu == 0:
        return ValueGroup(*eval_series_at(ps, pt, offset))
    coefs = [mu * pt.t0_lead_coef]
    coefs += [coefs[0] * c for _, c in pt.u.terms]
    real = coefs.pop() if pt.u.terms else Fraction(0)
    infinite = SurrealNF([(SurrealNF.from_rational(pt.t0_lead_exp - j), c) for j, c in enumerate(coefs)], _normalized=True)
    series_pref, series_stream = eval_series_at(ps, pt, offset, exp_purely_infinite(infinite))
    return ValueGroup(Prefactor.of(1, e=real) * series_pref, series_stream)


def tau_eval(
    ts: TransseriesT1,
    nu: SurrealNF,
    *,
    crit_coef: Fraction = Fraction(1),
    crit_power: Fraction = Fraction(1),
    ln2pi_coef: Fraction = Fraction(0),
) -> SurrealValue:
    """Evaluate a T1 transseries (in its critical time) at nu = r*w + s."""
    pt = analyze_point(nu, crit_coef=crit_coef, crit_power=crit_power)
    groups = [tau_eval_group(grp.mu, grp.offset, grp.series, pt) for grp in groups_of(ts)]
    lp = ts.log
    if not lp.is_zero():
        if lp.P and pt.u.terms:
            raise UnsupportedPointError("a log part's P log t at s != 0 needs log(1 + s/(r w)), which is not evaluated")
        # t0 = r1 w^(e1) (1 + u); polynomials in t0 are exact normal forms
        t0 = SurrealNF.monomial(SurrealNF.from_rational(pt.t0_lead_exp), pt.t0_lead_coef) * (one() + pt.u)
        # at u = 0, log t0 = e1 log w + ln(r1) with log w = w^(1/w)
        log_t0 = SurrealNF.monomial(SurrealNF.monomial(SurrealNF.from_rational(-1)), pt.t0_lead_exp)
        pvals = _poly_at(lp.P, t0)
        groups.append(ValueGroup(Prefactor.one(), LazyNF.from_nf(pvals * log_t0)))
        if pt.t0_lead_coef != 1:
            groups.append(ValueGroup(ln_prefactor(pt.t0_lead_coef), LazyNF.from_nf(pvals)))
        groups.append(ValueGroup(Prefactor.one(), LazyNF.from_nf(_poly_at(lp.Q, t0))))
    if ln2pi_coef:
        groups.append(ValueGroup(Prefactor.of(1, ln2pi=1), LazyNF.from_nf(SurrealNF.from_rational(ln2pi_coef))))
    # an empty group takes no place in the merged order, as in a sum built group by group
    return SurrealValue([g for g in groups if g.stream.term(0) is not None]).merged()


def _poly_at(coeffs, t0: SurrealNF) -> SurrealNF:
    out = SurrealNF.zero()
    power = one()
    for c in coeffs:
        out = out + power * c
        power = power * t0
    return out

