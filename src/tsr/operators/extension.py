"""Extension to the surreals, surreal antidifferentiation, and integration.

``extend`` realizes the three-way definition: oracle values at real points,
Conway-convergent Taylor series at finite surreal points, and the
transseries image at positive infinite points.  ``antidiff_no`` conjugates
transseries antidifferentiation through the extension (an entry's stored
antiderivative where it has one), and ``integrate`` is
the two-endpoint difference, with the zero-constant-at-infinity convention
making the constant vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, takewhile
from typing import Optional, Union

import mpmath as mp
from mpmath import libmp

from ..errors import DomainError, UnsupportedPointError
from ..resummation import QuadratureConfig
from ..surreal import LazyNF, SurrealNF, nf_cmp
from ..transseries import TransseriesT1, ts_antidiff
from .catalog import CatalogFunction, catalog, shifted_taylor, term_value
from .prefactor import Prefactor
from .tau import SurrealPoint, SurrealValue, ValueGroup, conway_sum, tau_eval


def transseriate(f: CatalogFunction) -> TransseriesT1:
    """Tr f: the stored transseries (inverting the resummation is not
    algorithmic, so Tr is data validated against the oracle)."""
    if f.transseries is None:
        raise UnsupportedPointError(f"{f.name} has no height-one transseries")
    return f.transseries


@dataclass
class NumericTaylor:
    """Finite-point extension with decimal coefficients (oracle-backed)."""

    x0: Fraction
    coefficients: list  # mpf Taylor coefficients f^(k)(x0)/k!
    zeta: SurrealNF

    def render(self, terms: int) -> str:
        from ..surreal import render_nf

        bits = []
        zk = SurrealNF.from_rational(1)
        for k, c in enumerate(self.coefficients[:terms]):
            if c == 0:
                continue
            mono = render_nf(zk) if not zk.is_rational() else None
            co = mp.nstr(c, 12)
            bits.append(co if mono is None else f"{co}*({mono})")
            zk = zk * self.zeta
        return " + ".join(bits) + " + ..."


ExtendResult = Union[mp.mpf, SurrealValue, NumericTaylor]


def extend(f: CatalogFunction, point, terms: int = 8, *, cfg: QuadratureConfig = None) -> ExtendResult:
    """E f at a real, finite-surreal, or infinite-surreal point."""
    cfg = cfg or QuadratureConfig()
    if isinstance(point, (float, mp.mpf)) and not mp.isfinite(point):
        raise DomainError(f"{f.name} has no value at the non-finite point {point}")
    if isinstance(point, mp.mpf):
        point = Fraction(*libmp.to_rational(point._mpf_))  # a finite mpf is dyadic: exact
    if isinstance(point, (int, float, Fraction)):
        point = SurrealPoint.real_point(point)
    if isinstance(point, SurrealNF):
        point = SurrealPoint.from_nf(point)

    if point.kind == "real":
        f.check_domain(point.real)
        if f.exact_value is not None:
            hit = f.exact_value(point.real)
            if hit is not None:
                pref, q = hit
                return SurrealValue([ValueGroup(pref, LazyNF.from_nf(SurrealNF.from_rational(q)))])
        with mp.workdps(cfg.precision):
            return f.oracle(mp.mpf(point.real.numerator) / point.real.denominator)

    if point.kind == "finite":
        return _extend_finite(f, point, terms, cfg)

    if point.is_negative_infinite():
        if f.reflected_name is None:
            raise UnsupportedPointError(f"{f.name} has no reflection entry for negative infinite points")
        reflected = catalog()[f.reflected_name]
        return extend(reflected, SurrealPoint.from_nf(-point.nf), terms, cfg=cfg)

    if f.compose_exp_of is not None:
        base = catalog()[f.compose_exp_of]
        inner = extend(base, point, max(terms, 12), cfg=cfg)
        return exp_surreal_value(inner)

    # a positive infinite point lies beyond any real domain endpoint
    return tau_eval(
        f.transseries,
        point.nf,
        crit_coef=f.crit_coef,
        crit_power=f.crit_power,
        ln2pi_coef=f.ln2pi_coef,
    ).scale_prefactor(f.prefactor)


def _extend_finite(f: CatalogFunction, point: SurrealPoint, terms: int, cfg: QuadratureConfig):
    """Taylor series in the infinitesimal part, Conway-convergent by design."""
    x0, zeta = point.real, point.zeta
    f.check_domain(x0)
    # each term once, at the working precision; the exact stream reuses them
    with mp.workdps(cfg.precision):
        kinds = [f.taylor_term(x0, k) for k in range(terms)]
        if all(t[0] == "exact" for t in kinds):
            kinds += [f.taylor_term(x0, k) for k in range(terms, terms + 2)]
    if all(t[0] == "exact" for t in kinds):
        prefs = {t[1] for t in kinds if t[2] != 0}
        if len(prefs) <= 1:
            pref = prefs.pop() if prefs else Prefactor.one()

            def coeff(k):
                return (kinds[k] if k < len(kinds) else f.taylor_term(x0, k))[2]

            length = None if f.taylor_degree is None else f.taylor_degree + 1
            return SurrealValue([ValueGroup(pref, conway_sum(coeff, zeta, length=length))])
    with mp.workdps(cfg.precision):
        return NumericTaylor(x0=x0, coefficients=[term_value(t) for t in kinds[:terms]], zeta=zeta)


def exp_surreal_value(v: SurrealValue) -> SurrealValue:
    """exp of a surreal value; supported when it splits into one plain
    stream plus ln-tagged constants (the log Gamma shape)."""
    from ..surreal import one

    main: Optional[LazyNF] = None
    pref = Prefactor.one()
    for g in v.merged().groups:
        if g.prefactor.is_one():
            if main is not None:
                raise UnsupportedPointError("exp of a multi-stream value")
            main = g.stream
        else:
            # constants like   q * ln(b):   exp gives the tag b^q
            syms = g.prefactor.powers
            head = g.stream.truncate(2)
            if not head.is_rational() or len(syms) != 1:
                raise UnsupportedPointError("exp of a non-constant tagged group")
            sym, power = syms[0]
            q = head.as_rational() * g.prefactor.factor * power
            if sym == "ln2pi":
                # exp(q ln 2pi) = 2^q pi^q
                pref = pref * Prefactor.rational_power(Fraction(2), q) * Prefactor.of(1, pi=q)
            elif sym.startswith("ln:"):
                pref = pref * Prefactor.rational_power(Fraction(sym[3:]), q)
            else:
                raise UnsupportedPointError(f"exp of constant tagged {sym}")
    if main is None:
        return SurrealValue([ValueGroup(pref, LazyNF.from_nf(one()))])

    # split the stream: purely infinite head must be finite, the rest splits
    head_terms = list(takewhile(lambda t: nf_cmp(t[0], SurrealNF.zero()) == 1, islice(main, 65)))
    if len(head_terms) > 64:
        raise UnsupportedPointError("purely infinite part does not terminate")
    i = len(head_terms)
    real_t = main.term(i)
    real = Fraction(0)
    if real_t is not None and real_t[0].is_zero():
        real = real_t[1]
        i += 1

    from .tau import exp_purely_infinite, exp_prefactor

    lead = exp_purely_infinite(SurrealNF(tuple(head_terms), _normalized=True)) if head_terms else SurrealNF.zero()
    if real:
        pref = pref * exp_prefactor(real)

    small = LazyNF(lambda: islice(main, i, None))
    if small.term(0) is None:
        return SurrealValue([ValueGroup(pref, LazyNF.from_nf(SurrealNF.monomial(lead)))])
    stream = exp_lazy_infinitesimal(small).shift(lead)
    return SurrealValue([ValueGroup(pref, stream)])


def exp_lazy_infinitesimal(z: LazyNF) -> LazyNF:
    """exp of a lazily given infinitesimal: exp(truncation) stabilizes
    leader by leader because the dropped tail only reaches lower leaders."""

    def gen():
        from .tau import exp_infinitesimal

        emitted = 0
        n = 4
        while True:
            zn = z.truncate(n)
            nxt = z.term(n)
            if zn.is_zero():
                yield from SurrealNF.from_rational(1).terms
                return
            # the first `emitted` terms are final: this longer truncation repeats them
            if nxt is None:
                yield from islice(exp_infinitesimal(zn), emitted, None)
                return
            # terms above the first dropped exponent are final, and the rest
            # of this truncation's exponential can never reach them
            for t in islice(exp_infinitesimal(zn, nxt[0]), emitted, None):
                yield t
                emitted += 1
            n *= 2

    return LazyNF(gen)


# -- antidifferentiation and the integral ----------------------------------------


def antidiff_no(f: CatalogFunction) -> CatalogFunction:
    """A_No f: the antiderivative entry with zero constant at infinity.

    Raises ``UnsupportedPointError`` for an entry with neither a stored
    antiderivative nor a transseries to antidifferentiate (gamma).
    """
    if f.antiderivative is not None:
        return f.antiderivative()
    if f.crit_power != 1 or f.crit_coef != 1:
        raise UnsupportedPointError(
            f"antidifferentiation of {f.name} needs a stored antiderivative (critical time change)"
        )
    anti_ts = ts_antidiff(transseriate(f))  # its series carry their derived kernels
    decaying = not f.transseries.plus.terms and f.transseries.log.is_zero()

    def oracle(x, f=f):
        # zero constant at infinity: -integral(x..oo) when it converges,
        # resummation assembly otherwise
        x = mp.mpf(x)
        if decaying:
            return -mp.quad(lambda s: f.oracle(s), [x, mp.inf])
        val, _ = anti_entry.eb_value(x)
        return val

    anti_entry = CatalogFunction(
        name=f"antidiff({f.name})",
        transseries=anti_ts,
        oracle=oracle,
        taylor_term=shifted_taylor(f.taylor_term, oracle, None),
        domain_c=f.domain_c,
        tolerance=max(f.tolerance, 1e-9),
    )
    return anti_entry


def combine_entries(a: CatalogFunction, ca, b: CatalogFunction, cb) -> CatalogFunction:
    """ca*a + cb*b for entries sharing a critical time."""
    from ..transseries import ts_add, ts_scale

    if (a.crit_coef, a.crit_power) != (b.crit_coef, b.crit_power):
        raise UnsupportedPointError("combining entries across critical times")
    if not a.prefactor.is_one() or not b.prefactor.is_one():
        raise UnsupportedPointError("combining entries with symbolic prefactors")
    ca, cb = Fraction(ca), Fraction(cb)

    def taylor(x0, k):
        ta, tb = a.taylor_term(x0, k), b.taylor_term(x0, k)
        if ta[0] == "exact" and tb[0] == "exact" and ta[1] == tb[1]:
            return ("exact", ta[1], ca * ta[2] + cb * tb[2])
        return (
            "num",
            mp.mpf(ca.numerator) / ca.denominator * term_value(ta)
            + mp.mpf(cb.numerator) / cb.denominator * term_value(tb),
        )

    return CatalogFunction(
        name=f"{ca}*{a.name}+{cb}*{b.name}",
        transseries=ts_add(ts_scale(ca, a.transseries), ts_scale(cb, b.transseries)),
        oracle=lambda x: a.oracle(x) * ca.numerator / ca.denominator + b.oracle(x) * cb.numerator / cb.denominator,
        taylor_term=taylor,
        crit_coef=a.crit_coef,
        crit_power=a.crit_power,
        ln2pi_coef=a.ln2pi_coef * ca + b.ln2pi_coef * cb,
        domain_c=max(filter(lambda v: v is not None, [a.domain_c, b.domain_c]), default=None),
        tolerance=max(a.tolerance, b.tolerance),
    )


def integrate(f: CatalogFunction, a, b, terms: int = 8, *, cfg: QuadratureConfig = None):
    """integral(f, a..b) = (A_No f)(b) - (A_No f)(a)."""
    cfg = cfg or QuadratureConfig()
    anti = antidiff_no(f)
    hi = extend(anti, b, terms, cfg=cfg)
    lo = extend(anti, a, terms, cfg=cfg)
    return value_difference(hi, lo, cfg)


def value_difference(hi, lo, cfg: QuadratureConfig):
    """hi - lo; a decimal part keeps the precision ``cfg`` asks for."""
    if isinstance(hi, SurrealValue) and isinstance(lo, SurrealValue):
        return hi - lo
    if isinstance(hi, SurrealValue) and isinstance(lo, mp.mpf):
        return DecoratedValue(hi, mp.fneg(lo, exact=True))
    if isinstance(lo, SurrealValue) and isinstance(hi, mp.mpf):
        return DecoratedValue(lo.scale(-1), hi)
    return mp.fsub(hi, lo, dps=cfg.precision)


@dataclass
class DecoratedValue:
    """A surreal value plus a decimal real offset (mixed-endpoint integrals)."""

    surreal: SurrealValue
    offset: mp.mpf

    def render(self, terms: int = 8) -> str:
        body = self.surreal.render(terms)
        if self.offset == 0:
            return body
        sign = "+" if self.offset > 0 else "-"
        return f"{body} {sign} {mp.nstr(abs(self.offset), 12)}"
