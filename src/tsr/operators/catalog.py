"""The worked function catalog: transseries, Borel kernels, oracles.

Each entry pairs a stored transseries (in its critical time) with an
independent high-precision oracle on the reals, an exact derivative facility
for Taylor extensions at finite points, and documented tail constants.  The
Borel kernels travel with the series: each entry is built from the registered
``#name`` series of ``tsr.coefficients``, whose closed-form kernel (or the
Airy Pade fit) its resummation reads.  Entries whose transseries would need
an irrational global scale carry it as a symbolic prefactor; the erfi
integral needs none because Gamma(n+1/2)/(2 sqrt(pi)) is rational.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from math import factorial
from typing import Callable, Optional

import mpmath as mp

from ..coefficients import named_series, series_name
from ..errors import DomainError
from ..resummation import KernelEntry, QuadratureConfig, eb_sum, resolve_default
from ..stream import Stream
from ..transseries import (
    LogPart,
    PowerSeries,
    TransseriesT1,
    from_minus_term,
    from_plus_term,
    assemble,
)
from ..transseries.grid import Group, groups_of
from .prefactor import Prefactor

TaylorTerm = tuple  # ("exact", Prefactor, Fraction) | ("num", mpf)


@dataclass
class CatalogFunction:
    name: str
    transseries: Optional[TransseriesT1]
    oracle: Callable
    taylor_term: Callable  # (x0, k) -> TaylorTerm; x0 Fraction or mpf
    crit_coef: Fraction = Fraction(1)
    crit_power: Fraction = Fraction(1)
    prefactor: Prefactor = field(default_factory=Prefactor.one)
    ln2pi_coef: Fraction = Fraction(0)
    domain_c: Optional[float] = None
    tolerance: float = 1e-10
    tail_constants: tuple = (4.0, 1.0, 0.5)  # documented (c1, c2, c3)
    exact_value: Optional[Callable] = None  # x0 -> (Prefactor, Fraction) | None
    antiderivative_of: Optional[str] = None
    derivative_name: Optional[str] = None
    reflected_name: Optional[str] = None
    compose_exp_of: Optional[str] = None  # entry computed as exp(other entry)

    # -- numerics ---------------------------------------------------------

    def resolver(self, series: PowerSeries) -> Optional[KernelEntry]:
        """The series' kernel; a Pade fit without one; None for a finite sum."""
        return series.kernel or (None if series.is_finite() else resolve_default(series))

    def critical_time(self, x):
        return (
            mp.mpf(self.crit_coef.numerator)
            / self.crit_coef.denominator
            * mp.mpf(x) ** (mp.mpf(self.crit_power.numerator) / self.crit_power.denominator)
        )

    def eb_value(self, x, cfg: QuadratureConfig = None):
        """Resummation-side value: prefactor * eb_sum at the critical time."""
        cfg = cfg or QuadratureConfig()
        if self.compose_exp_of is not None:
            base = catalog()[self.compose_exp_of]
            inner, err = base.eb_value(x, cfg)
            with mp.workdps(cfg.precision):
                val = mp.exp(inner)
                return val, abs(val) * err
        with mp.workdps(cfg.precision):
            t = self.critical_time(x)
            val, err = eb_sum(self.transseries, t, cfg, resolver=self.resolver)
            scale = self.prefactor.numeric()
            out = scale * val
            if self.ln2pi_coef:
                out += mp.mpf(self.ln2pi_coef.numerator) / self.ln2pi_coef.denominator * mp.log(2 * mp.pi)
            return out, abs(scale) * err

    def check_domain(self, x):
        if self.domain_c is not None and not mp.mpf(x) > self.domain_c:
            raise DomainError(f"{self.name} is defined on ({self.domain_c}, oo); got {x}")


# -- oracles --------------------------------------------------------------------


def _expm1_over(ctx):
    return lambda s: ctx.expm1(s) / s if s != 0 else ctx.mpf(1)


class EiOracle:
    """Ei(x) = PV integral(e^s/s, s = -oo..x), by principal-value quadrature.

    Split: the PV over [-1, 1] is integral((e^s - 1)/s) since PV of 1/s
    vanishes; the log endpoint contributes ln(x) for x < 1.  The two pieces
    that do not depend on x, integral(-oo..-1) and the PV over [-1, 1], are
    memoized per binary precision (a nested ``mp.quad`` works 20 bits
    higher, so each nesting level has its own entry).  They are computed in
    a private ``MPContext`` at the precision of the key, so a thread that
    changes the global precision meanwhile cannot store a wrong value, and
    threads that race on a cold key store equal values.
    """

    def __init__(self):
        self._constants: dict[int, tuple] = {}  # prec -> (left, mid)

    def constants(self, prec: int) -> tuple:
        hit = self._constants.get(prec)
        if hit is None:
            ctx = mp.MPContext()
            ctx.prec = prec
            left = ctx.quad(lambda u: -ctx.exp(-u) / u, [1, ctx.inf])  # integral(-oo..-1)
            mid = ctx.quad(_expm1_over(ctx), [-1, 0, 1])
            hit = self._constants.setdefault(prec, (mp.make_mpf(left._mpf_), mp.make_mpf(mid._mpf_)))
        return hit

    def __call__(self, x):
        x = mp.mpf(x)
        if x <= 0:
            raise DomainError("Ei oracle implemented for x > 0")
        left, mid = self.constants(mp.mp.prec)
        if x >= 1:
            right = mp.quad(lambda s: mp.exp(s) / s, [1, x]) if x > 1 else mp.mpf(0)
            return left + mid + right
        mid = mp.quad(_expm1_over(mp), [-1, 0, x])
        return left + mid + mp.log(x)


ei_oracle = EiOracle()


def erfi_integral_oracle(x):
    x = mp.mpf(x)
    if x == 0:
        return mp.mpf(0)
    return mp.quad(lambda s: mp.exp(s * s), [0, x])


def _airy_series_step(y0, y1, z0, h, n_terms=60):
    """Taylor step for y'' = z y from z0 to z0 + h."""
    c = [y0, y1]
    for n in range(n_terms):
        prev = c[n - 1] if n >= 1 else mp.mpf(0)
        c.append((z0 * c[n] + prev) / ((n + 1) * (n + 2)))
    val = mp.mpf(0)
    dval = mp.mpf(0)
    for n in reversed(range(len(c))):
        val = val * h + c[n]
        if n >= 1:
            dval = dval * h + n * c[n]
    return val, dval


def _airy_pair(kind: str, z):
    """(y, y') for Ai or Bi at real z, by Taylor-series ODE integration."""
    z = mp.mpf(z)
    if kind == "ai":
        y = mp.mpf(3) ** mp.mpf("-2/3") / mp.gamma(mp.mpf(2) / 3)
        dy = -(mp.mpf(3) ** mp.mpf("-1/3")) / mp.gamma(mp.mpf(1) / 3)
    else:
        y = mp.mpf(3) ** mp.mpf("-1/6") / mp.gamma(mp.mpf(2) / 3)
        dy = mp.mpf(3) ** mp.mpf("1/6") / mp.gamma(mp.mpf(1) / 3)
    z0 = mp.mpf(0)
    step = mp.mpf("0.5")
    remaining = z - z0
    while abs(remaining) > 0:
        h = min(step, abs(remaining)) * mp.sign(remaining)
        y, dy = _airy_series_step(y, dy, z0, h)
        z0 += h
        remaining = z - z0
    return y, dy


def airy_ai_oracle(z):
    return _airy_pair("ai", z)[0]


def airy_bi_oracle(z):
    return _airy_pair("bi", z)[0]


def loggamma_oracle(x):
    x = mp.mpf(x)
    if x <= 0:
        raise DomainError("log Gamma oracle needs x > 0")
    if x == mp.floor(x):
        return mp.log(mp.mpf(factorial(int(x) - 1)))
    return mp.loggamma(x)


def gamma_oracle(x):
    x = mp.mpf(x)
    if x == mp.floor(x) and x > 0:
        return mp.mpf(factorial(int(x) - 1))
    return mp.gamma(x)


# -- derivative facilities --------------------------------------------------------


def _to_mpf(x0):
    """x0 at the working precision; a Fraction converts exactly (no float)."""
    if isinstance(x0, Fraction):
        return mp.mpf(x0.numerator) / x0.denominator
    return mp.mpf(x0)


def _laurent_diff(q: dict) -> dict:
    """d/dx of sum(c_j x^j) as a sparse dict."""
    out = {}
    for j, c in q.items():
        if j != 0:
            out[j - 1] = out.get(j - 1, Fraction(0)) + j * c
    return out


def _laurent_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for j, c in b.items():
        out[j] = out.get(j, Fraction(0)) + c
    return {j: c for j, c in out.items() if c}


def _laurent_mul(a: dict, b: dict) -> dict:
    out = {}
    for i, c in a.items():
        out = _laurent_add(out, {i + j: c * d for j, d in b.items()})
    return out


def _laurent_eval(q: dict, x0):
    total = Fraction(0) if isinstance(x0, Fraction) else mp.mpf(0)
    for j, c in q.items():
        cc = c if isinstance(x0, Fraction) else mp.mpf(c.numerator) / c.denominator
        total += cc * x0**j
    return total


def exp_poly_taylor(phi: dict, q0: dict) -> Callable:
    """Taylor facility of f = e^phi * q0, phi a polynomial and q0 a Laurent one.

    f^(k) = e^phi * q_k with q_(k+1) = q_k' + phi' * q_k.  A term is exact at
    a Fraction x0 unless x0 = 0 and q_k has a negative power.
    """
    dphi = _laurent_diff(phi)

    def polys():
        q = q0
        while True:
            yield q
            q = _laurent_add(_laurent_diff(q), _laurent_mul(dphi, q))

    qs = Stream(polys)

    def taylor(x0, k) -> TaylorTerm:
        q = qs[k]
        if isinstance(x0, Fraction) and (x0 != 0 or min(q, default=0) >= 0):
            return ("exact", Prefactor.of(1, e=_laurent_eval(phi, x0)), _laurent_eval(q, x0) / factorial(k))
        x = _to_mpf(x0)
        return ("num", mp.exp(_laurent_eval(phi, x)) * _laurent_eval(q, x) / mp.factorial(k))

    return taylor


def shifted_taylor(derivative: Callable, oracle: Callable, exact_value: Optional[Callable]) -> Callable:
    """Taylor facility of an antiderivative F from that of F' (a shift by one).

    F^(k)(x0)/k! = (F')^(k-1)(x0)/(k-1)! / k for k >= 1; F(x0) itself is
    ``exact_value`` where that gives a value, else the oracle.
    """

    def taylor(x0, k) -> TaylorTerm:
        if k == 0:
            hit = exact_value(x0) if exact_value is not None and isinstance(x0, Fraction) else None
            return ("exact", *hit) if hit is not None else ("num", oracle(_to_mpf(x0)))
        t = derivative(x0, k - 1)
        if t[0] == "exact":
            return ("exact", t[1], t[2] / k)
        return ("num", t[1] / k)

    return taylor


def _airy_taylor(kind: str):
    # y^(k) = a_k y + b_k y' with a_(k+1) = a_k' + z b_k, b_(k+1) = a_k + b_k'
    def pairs():
        a, b = {0: Fraction(1)}, {}
        while True:
            yield a, b
            zb = {j + 1: c for j, c in b.items()}
            a, b = _laurent_add(_laurent_diff(a), zb), _laurent_add(a, _laurent_diff(b))

    ab = Stream(pairs)

    def taylor(x0, k) -> TaylorTerm:
        a, b = ab[k]
        x = _to_mpf(x0)
        y, dy = _airy_pair(kind, x)
        return ("num", (_laurent_eval(a, x) * y + _laurent_eval(b, x) * dy) / mp.factorial(k))

    return taylor


def _loggamma_taylor(x0, k) -> TaylorTerm:
    x0m = _to_mpf(x0)
    if k == 0:
        return ("num", loggamma_oracle(x0m))
    return ("num", mp.psi(k - 1, x0m) / mp.factorial(k))


def exp_of_taylor(inner: Callable, oracle: Callable) -> Callable:
    """Taylor facility of f = e^g from the numeric one of g and f's oracle.

    With l_j = g^(j)(x0)/j!, f(x0 + h)/f(x0) = exp(sum_(j>=1) l_j h^j) has
    coefficients b_0 = 1, b_n = (1/n) sum_(j=1..n) j l_j b_(n-j).  The terms
    at one (x0, precision) are one Stream, so term k computes only l_k; the
    streams of the last few points are kept.
    """

    @functools.lru_cache(maxsize=8)
    def terms(x0, prec) -> Stream:
        x = _to_mpf(x0)

        def gen():
            fx, ls, bs = oracle(x), [], [mp.mpf(1)]
            yield fx
            for n in count(1):
                ls.append(inner(x, n)[1])
                bs.append(mp.fsum(j * ls[j - 1] * bs[n - j] for j in range(1, n + 1)) / n)
                yield fx * bs[n]

        return Stream(gen)

    return lambda x0, k: ("num", terms(x0, mp.mp.prec)[k])


# -- entry construction ------------------------------------------------------------


def _exp_entry() -> CatalogFunction:
    ts = from_plus_term(1, 1, PowerSeries.from_coeffs([Fraction(1)]))
    return CatalogFunction(
        name="exp",
        transseries=ts,
        oracle=lambda x: mp.exp(mp.mpf(x)),
        taylor_term=exp_poly_taylor({1: Fraction(1)}, {0: Fraction(1)}),
        domain_c=None,
        tolerance=1e-24,
        tail_constants=(1.0, 1.0, 0.0),
        exact_value=lambda q: (Prefactor.of(1, e=q), Fraction(1)),
        derivative_name="exp",
        reflected_name="exp_neg",
    )


def _exp_neg_entry() -> CatalogFunction:
    ts = from_minus_term(1, 1, PowerSeries.from_coeffs([Fraction(1)]))
    return CatalogFunction(
        name="exp_neg",
        transseries=ts,
        oracle=lambda x: mp.exp(-mp.mpf(x)),
        taylor_term=exp_poly_taylor({1: Fraction(-1)}, {0: Fraction(1)}),
        domain_c=None,
        tolerance=1e-24,
        tail_constants=(1.0, 1.0, 0.0),
        exact_value=lambda q: (Prefactor.of(1, e=-q), Fraction(1)),
    )


def _ei_integrand_entry() -> CatalogFunction:
    ts = from_plus_term(1, 0, PowerSeries.from_coeffs([Fraction(1)]))
    return CatalogFunction(
        name="ei_integrand",
        transseries=ts,
        oracle=lambda x: mp.exp(mp.mpf(x)) / mp.mpf(x),
        taylor_term=exp_poly_taylor({1: Fraction(1)}, {-1: Fraction(1)}),
        domain_c=0.0,
        tolerance=1e-24,
        tail_constants=(1.0, 1.0, 0.0),
    )


def _ei_entry() -> CatalogFunction:
    ts = from_plus_term(1, 0, named_series("ei"))
    return CatalogFunction(
        name="ei",
        transseries=ts,
        oracle=ei_oracle,
        taylor_term=shifted_taylor(_ei_integrand_entry().taylor_term, ei_oracle, None),
        domain_c=0.0,
        tolerance=1e-10,
        # |man B y| = 1/|1-p| <= 4 off the principal-value window; any x > 0
        tail_constants=(4.0, 1.0, 0.0),
        antiderivative_of="ei_integrand",
        derivative_name="ei_integrand",
    )


def _erfi_integrand_entry() -> CatalogFunction:
    ts = from_plus_term(1, 1, PowerSeries.from_coeffs([Fraction(1)]))
    return CatalogFunction(
        name="erfi_integrand",
        transseries=ts,
        crit_power=Fraction(2),
        oracle=lambda x: mp.exp(mp.mpf(x) ** 2),
        taylor_term=exp_poly_taylor({2: Fraction(1)}, {0: Fraction(1)}),
        domain_c=None,
        tolerance=1e-24,
        tail_constants=(1.0, 1.0, 0.0),
    )


def _erfi_integral_entry() -> CatalogFunction:
    ts = from_plus_term(1, Fraction(1, 2), named_series("erfi"))
    at_zero = lambda q: (Prefactor.one(), Fraction(0)) if q == 0 else None  # noqa: E731
    return CatalogFunction(
        name="erfi_integral",
        transseries=ts,
        crit_power=Fraction(2),
        oracle=erfi_integral_oracle,
        taylor_term=shifted_taylor(_erfi_integrand_entry().taylor_term, erfi_integral_oracle, at_zero),
        domain_c=None,
        tolerance=1e-12,
        # averaged kernel is supported on [0, 1]: c3 = 0
        tail_constants=(1.0, 1.0, 0.0),
        antiderivative_of="erfi_integrand",
        derivative_name="erfi_integrand",
        exact_value=at_zero,
    )


def _airy_entry(kind: str) -> CatalogFunction:
    series = named_series("airy_u_alt" if kind == "ai" else "airy_u")
    series.kernel  # the catalog fits its Pade kernel, as it always has
    if kind == "ai":
        ts = from_minus_term(1, Fraction(5, 6), series)
        pref = Prefactor.of(Fraction(1, 2), pi=Fraction(-1, 2)) * Prefactor.rational_power(
            Fraction(2, 3), Fraction(1, 6)
        )
        oracle = airy_ai_oracle
    else:
        ts = from_plus_term(1, Fraction(5, 6), series)
        pref = Prefactor.of(1, pi=Fraction(-1, 2)) * Prefactor.rational_power(Fraction(2, 3), Fraction(1, 6))
        oracle = airy_bi_oracle
    return CatalogFunction(
        name=f"airy_{kind}",
        transseries=ts,
        crit_coef=Fraction(2, 3),
        crit_power=Fraction(3, 2),
        prefactor=pref,
        oracle=oracle,
        taylor_term=_airy_taylor(kind),
        domain_c=None,
        tolerance=2e-6 if kind == "bi" else 1e-8,
        tail_constants=(2.0, 1.0, 1.0),
    )


def _loggamma_entry() -> CatalogFunction:
    ts = assemble(
        [Group(Fraction(0), Fraction(0), named_series("stirling"))],
        LogPart(P=(Fraction(-1, 2), Fraction(1)), Q=(Fraction(0), Fraction(-1))),
    )
    return CatalogFunction(
        name="loggamma",
        transseries=ts,
        ln2pi_coef=Fraction(1, 2),
        oracle=loggamma_oracle,
        taylor_term=_loggamma_taylor,
        domain_c=0.0,
        tolerance=1e-10,
        # |(p coth(p/2) - 2)/(2 p^2)| <= 1/12 + 1/(2p): subexponential
        tail_constants=(1.0, 1.0, 0.0),
    )


def _gamma_entry() -> CatalogFunction:
    return CatalogFunction(
        name="gamma",
        transseries=None,
        oracle=gamma_oracle,
        taylor_term=exp_of_taylor(_loggamma_taylor, gamma_oracle),
        domain_c=0.0,
        tolerance=1e-10,
        compose_exp_of="loggamma",
    )


def monomial_entry(n: int) -> CatalogFunction:
    """x^n as a catalog entry (polynomials live in the log part's Q)."""
    if n < 0:
        raise ValueError("use series entries for inverse powers")
    Q = tuple(Fraction(0) for _ in range(n)) + (Fraction(1),)
    ts = assemble([], LogPart(Q=Q))
    return CatalogFunction(
        name=f"monomial_{n}",
        transseries=ts,
        oracle=lambda x, n=n: mp.mpf(x) ** n,
        taylor_term=exp_poly_taylor({}, {n: Fraction(1)}),
        domain_c=None,
        tolerance=1e-24,
        tail_constants=(1.0, 1.0, 0.0),
        exact_value=lambda q, n=n: (Prefactor.one(), q**n),
    )


def _exp_neg_over_x_entry() -> CatalogFunction:
    ts = from_minus_term(1, 0, PowerSeries.from_coeffs([Fraction(1)]))
    return CatalogFunction(
        name="exp_neg_over_x",
        transseries=ts,
        oracle=lambda x: mp.exp(-mp.mpf(x)) / mp.mpf(x),
        taylor_term=exp_poly_taylor({1: Fraction(-1)}, {-1: Fraction(1)}),
        domain_c=0.0,
        tolerance=1e-24,
        tail_constants=(1.0, 1.0, 0.0),
    )


_CATALOG: Optional[dict[str, CatalogFunction]] = None


def catalog() -> dict[str, CatalogFunction]:
    """The immutable registry of worked functions."""
    global _CATALOG
    if _CATALOG is None:
        entries = [
            _exp_entry(),
            _exp_neg_entry(),
            _ei_integrand_entry(),
            _ei_entry(),
            _erfi_integrand_entry(),
            _erfi_integral_entry(),
            _airy_entry("ai"),
            _airy_entry("bi"),
            _loggamma_entry(),
            _gamma_entry(),
            _exp_neg_over_x_entry(),
        ]
        _CATALOG = {e.name: e for e in entries}
    return _CATALOG


def catalog_manifest() -> dict:
    """JSON-ready manifest: per entry the kernels, constants, and tolerances."""
    from ..transseries import ts_to_json

    out = {}
    for name, e in catalog().items():
        named = {series_name(g.series): g.series.kernel for g in groups_of(e.transseries)} if e.transseries else {}
        named.pop(None, None)
        out[name] = {
            "transseries": ts_to_json(e.transseries) if e.transseries is not None else None,
            "critical_time": {"coef": str(e.crit_coef), "power": str(e.crit_power)},
            "prefactor": e.prefactor.render(),
            "ln2pi_coef": str(e.ln2pi_coef),
            "kernels": {k: type(v.kernel).__name__ for k, v in named.items()},
            "regularization_m": {k: v.m for k, v in named.items()},
            "tail_constants": list(e.tail_constants),
            "domain_c": e.domain_c,
            "tolerance": e.tolerance,
            "composes": e.compose_exp_of,
        }
    return out
