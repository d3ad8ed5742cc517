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

from fractions import Fraction
from itertools import islice, takewhile
from typing import Optional, Union

import mpmath as mp
from mpmath import libmp

from ..errors import DomainError, UnsupportedPointError
from ..resummation import QuadratureConfig
from ..resummation.kernels import _c2mp
from ..stream import DEFAULT_ORDER_SCAN
from ..surreal import LazyNF, SurrealNF, decompose, nf_cmp, one
from ..transseries import TransseriesT1, ts_antidiff
from .catalog import CatalogFunction, antiderivative_taylor, catalog, term_value
from .prefactor import Prefactor
from .tau import conway_sum, exp_grid, exp_purely_infinite, tau_eval
from .values import NumericTaylor, SurrealValue, ValueGroup


def transseriate(f: CatalogFunction) -> TransseriesT1:
    """Tr f: the stored transseries (inverting the resummation is not
    algorithmic, so Tr is data validated against the oracle)."""
    if f.transseries is None:
        raise UnsupportedPointError(f"{f.name} has no height-one transseries")
    return f.transseries


ExtendResult = Union[mp.mpf, SurrealValue, NumericTaylor]


def extend(f: CatalogFunction, point, terms: int = 8, *, cfg: QuadratureConfig = None) -> ExtendResult:
    """E f at a point of No: a number or a normal form.

    A number is a real point as it is; ``decompose`` splits a normal form
    into its purely infinite, real and infinitesimal parts.  They pick the
    definition: the oracle at a real point, the Taylor series at a finite
    point x0 + zeta, and the transseries at an infinite point, a negative
    one reflected to -point.
    """
    cfg = cfg or QuadratureConfig()
    if isinstance(point, (float, mp.mpf)) and not mp.isfinite(point):
        raise DomainError(f"{f.name} has no value at the non-finite point {point}")
    if isinstance(point, mp.mpf):
        point = Fraction(*libmp.to_rational(point._mpf_))  # a finite mpf is dyadic: exact
    if isinstance(point, (int, float, Fraction)):
        infinite, x0, zeta = SurrealNF.zero(), Fraction(point), SurrealNF.zero()
    else:
        infinite, x0, zeta = decompose(point)

    if infinite.is_zero() and zeta.is_zero():
        f.check_domain(x0)
        if f.exact_value is not None:
            hit = f.exact_value(x0)
            if hit is not None:
                pref, q = hit
                return SurrealValue([ValueGroup(pref, LazyNF.from_nf(SurrealNF.from_rational(q)))])
        with mp.workdps(cfg.precision):
            return f.oracle(_c2mp(x0))

    if infinite.is_zero():
        return _extend_finite(f, x0, zeta, terms, cfg)

    if point.terms[0][1] < 0:
        if f.reflected_name is None:
            raise UnsupportedPointError(f"{f.name} has no reflection entry for negative infinite points")
        reflected = catalog()[f.reflected_name]
        return extend(reflected, -point, terms, cfg=cfg)

    if f.compose_exp_of is not None:
        base = catalog()[f.compose_exp_of]
        inner = extend(base, point, max(terms, 12), cfg=cfg)
        return exp_surreal_value(inner)

    # a positive infinite point lies beyond any real domain endpoint
    return tau_eval(
        f.transseries,
        point,
        crit_coef=f.crit_coef,
        crit_power=f.crit_power,
        ln2pi_coef=f.ln2pi_coef,
    ).scale_prefactor(f.prefactor)


def _extend_finite(f: CatalogFunction, x0: Fraction, zeta: SurrealNF, terms: int, cfg: QuadratureConfig):
    """f at the finite point x0 + zeta, x0 real and zeta a nonzero
    infinitesimal: the Taylor series at x0 in zeta, Conway-convergent by
    design."""
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
    stream plus ln-tagged constants (the log Gamma shape).

    The stream's purely infinite head maps to a monomial w^E, its real part
    to the tag e^r, and its infinitesimal tail z to exp_grid(z, E): one pass
    of the exp recurrence on z's exponent grid, with E in each exponent,
    which needs z's exponents rational (as log Gamma's Stirling tail at w
    is).
    """
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
    head_terms = list(takewhile(lambda t: nf_cmp(t[0], SurrealNF.zero()) == 1, islice(main, DEFAULT_ORDER_SCAN + 1)))
    if len(head_terms) > DEFAULT_ORDER_SCAN:
        raise UnsupportedPointError("purely infinite part does not terminate")
    i = len(head_terms)
    real_t = main.term(i)
    real = Fraction(0)
    if real_t is not None and real_t[0].is_zero():
        real = real_t[1]
        i += 1

    lead = exp_purely_infinite(SurrealNF(tuple(head_terms), _normalized=True)) if head_terms else SurrealNF.zero()
    if real:
        pref = pref * Prefactor.of(1, e=real)

    return SurrealValue([ValueGroup(pref, exp_grid(main.drop(i), lead))])


# -- antidifferentiation and the integral ----------------------------------------


def antidiff_no(f: CatalogFunction) -> CatalogFunction:
    """A_No f: the antiderivative entry with zero constant at infinity.

    Without a stored antiderivative, its value at a real point is the Borel
    sum of the antiderivative transseries.  Raises ``UnsupportedPointError``
    for an entry with neither a stored antiderivative nor a transseries to
    antidifferentiate (gamma).
    """
    if f.antiderivative is not None:
        return f.antiderivative()
    if f.crit_power != 1 or f.crit_coef != 1:
        raise UnsupportedPointError(
            f"antidifferentiation of {f.name} needs a stored antiderivative (critical time change)"
        )
    anti_ts = ts_antidiff(transseriate(f))  # its series carry their derived kernels

    def oracle(x):
        # zero constant at infinity: the Borel sum of the antiderivative
        # transseries, at the working precision
        val, _ = anti_entry.eb_value(mp.mpf(x), QuadratureConfig(precision=mp.mp.dps))
        return val

    anti_entry = CatalogFunction(
        name=f"antidiff({f.name})",
        transseries=anti_ts,
        taylor_term=antiderivative_taylor(f.taylor_term, oracle, None),
        domain_c=f.domain_c,
    )
    return anti_entry


def integrate(f: CatalogFunction, a, b, terms: int = 8, *, cfg: QuadratureConfig = None):
    """integral(f, a..b) = (A_No f)(b) - (A_No f)(a); a decimal part keeps the
    precision ``cfg`` asks for.  Equal endpoints give one value less itself,
    or 0 at a real point where no antiderivative is stored."""
    cfg = cfg or QuadratureConfig()
    if a == b and f.antiderivative is None and isinstance(a, (int, float, Fraction, mp.mpf)):
        f.check_domain(a)
        return mp.mpf(0)
    anti = antidiff_no(f)
    hi = extend(anti, b, terms, cfg=cfg)
    lo = hi if a == b else extend(anti, a, terms, cfg=cfg)
    with mp.workdps(cfg.precision):
        return hi - lo
