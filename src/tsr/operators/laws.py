"""Operator-law suites: extension laws, antidifferentiation laws, integral laws.

Formal checks run exactly on transseries; numeric checks compare against
oracles at real points, with derivatives taken by Richardson-extrapolated
central differences.  Each suite returns a report with one line per law.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp

from ..errors import ToleranceNotMet
from ..resummation import QuadratureConfig, eb_sum
from ..resummation.laplace import _panel, _split_span
from ..surreal import SurrealNF, omega, one
from ..transseries import eq_to_order, ts_add, ts_antidiff, ts_diff, ts_mul_minus, ts_parse, ts_scale
from .catalog import catalog, monomial_entry, term_value
from .extension import antidiff_no, extend, integrate
from .tau import tau_eval


@dataclass
class LawReport:
    suite: str
    results: list[tuple[str, bool, str]] = field(default_factory=list)

    def record(self, law: str, ok: bool, note: str = ""):
        self.results.append((law, bool(ok), note))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.results)

    def lines(self) -> list[str]:
        out = []
        for law, ok, note in self.results:
            mark = "PASS" if ok else "FAIL"
            out.append(f"[{mark}] {self.suite}.{law}" + (f": {note}" if note else ""))
        return out

    def summary(self) -> str:
        return "\n".join(self.lines())


def central_derivative(fn, x):
    """Richardson-extrapolated central difference, step 10^-(dps // 3)."""
    x = mp.mpf(x)
    h = mp.mpf(10) ** (-mp.mp.dps // 3)
    d1 = (fn(x + h) - fn(x - h)) / (2 * h)
    d2 = (fn(x + h / 2) - fn(x - h / 2)) / h
    return (4 * d2 - d1) / 3


def as_number(v):
    """Decimal value of an integrate/extend result that is a real constant."""
    return v.numeric_const() if hasattr(v, "numeric_const") else mp.mpf(v)


def _rel_close(a, b, tol):
    a, b = as_number(a), as_number(b)
    return abs(a - b) <= tol * max(1, abs(a), abs(b))


def _quad_prec(cfg: QuadratureConfig) -> int:
    """Bits for a law's quadrature: the working precision, but at most 50
    digits, a cap on the cost of the node sums only; the stop is
    ``QUAD_TOL``."""
    return mp.libmp.dps_to_prec(min(cfg.precision, 50))


#: Where a law's quadrature stops a panel: a thousandth of the tightest law
#: tolerance (1e-12) on integrals below 10^3.
QUAD_TOL = 1e-15


def _quad(fn, a, b, prec: int):
    """integral(fn, a..b) of an fn analytic on [a, b]: [a, b] cut as a
    smooth Laplace span is, and each panel summed by the nested rule until
    two levels differ by at most max(QUAD_TOL, 8 2^-prec), at prec + 20
    bits.  A panel whose last two levels differ by more raises
    ToleranceNotMet, so no law compares against an unsettled integral."""
    with mp.workprec(prec + 20):
        eps = max(mp.mpf(QUAD_TOL), mp.ldexp(1, 3 - prec))
        pts = _split_span(mp.mpf(a), mp.mpf(b))
        total = []
        for lo, hi in zip(pts, pts[1:]):
            val, diff = _panel(fn, lo, hi, eps, prec)
            if diff > eps:
                raise ToleranceNotMet(
                    f"the panel [{mp.nstr(lo, 8)}, {mp.nstr(hi, 8)}] does not settle at {prec} bits: "
                    f"its last two levels differ by {mp.nstr(diff, 5)}"
                )
            total.append(val)
        return mp.fsum(total)


def antidiff_laws(cfg: QuadratureConfig = None) -> LawReport:
    """The six antidifferentiation-operator laws on the catalog."""
    cfg = cfg or QuadratureConfig()
    reg = catalog()
    report = LawReport("antidiff")
    with mp.workdps(cfg.precision):
        # (i) derivative of the antiderivative: formal + numeric
        formal = all(
            eq_to_order(ts_diff(ts_antidiff(reg[n].transseries)), reg[n].transseries, 14)
            for n in ("ei_integrand", "exp_neg_over_x", "exp")
        )
        numeric = True
        for name, x in [("ei_integrand", 3.0), ("exp_neg_over_x", 2.0)]:
            f = reg[name]
            anti = antidiff_no(f)
            got = central_derivative(lambda s: anti.oracle(s), x)
            numeric = numeric and _rel_close(got, f.oracle(mp.mpf(x)), 1e-6)
        report.record("i_derivative_inverts", formal and numeric)

        # (ii) linearity
        f, g = reg["ei_integrand"], reg["exp"]
        lhs = ts_antidiff(ts_add(ts_scale(Fraction(2, 3), f.transseries), ts_scale(Fraction(-1, 2), g.transseries)))
        rhs = ts_add(
            ts_scale(Fraction(2, 3), ts_antidiff(f.transseries)),
            ts_scale(Fraction(-1, 2), ts_antidiff(g.transseries)),
        )
        report.record("ii_linearity", eq_to_order(lhs, rhs, 14))

        # (iii) monotonicity on a nonnegative entry
        f = reg["exp_neg_over_x"]
        anti = antidiff_no(f)
        xs = [2, 3, 5]
        vals = [anti.oracle(mp.mpf(x)) for x in xs]
        mono = all(b >= a for a, b in zip(vals, vals[1:]))
        surreal_side = extend(anti, omega(), 4, cfg=cfg) - extend(anti, 2, 4, cfg=cfg)
        pos = surreal_side.sign() >= 0
        report.record("iii_monotone", mono and pos)

        # (iv) A(x^n) = x^(n+1)/(n+1)
        ok = True
        for n in range(0, 5):
            anti = antidiff_no(monomial_entry(n))
            want = tuple(Fraction(0) for _ in range(n + 1)) + (Fraction(1, n + 1),)
            ok = ok and anti.transseries.log.Q == want
        report.record("iv_monomials", ok)

        # (v) A(exp) = exp
        report.record("v_exp_fixed", antidiff_no(reg["exp"]) is reg["exp"])

        # (vi) constant difference: A f = F + C when F' = f
        f = reg["ei_integrand"]
        anti = antidiff_no(f)  # the Ei entry
        shifted = anti.oracle(mp.mpf(5)) - anti.oracle(mp.mpf(3))
        direct = _quad(f.oracle, 3, 5, _quad_prec(cfg))
        report.record("vi_constant_difference", _rel_close(shifted, direct, 1e-12))
    return report


def extension_laws(cfg: QuadratureConfig = None) -> LawReport:
    """The four extension-operator laws."""
    cfg = cfg or QuadratureConfig()
    reg = catalog()
    report = LawReport("extension")
    rng = __import__("random").Random(7)
    with mp.workdps(cfg.precision):
        # (i) E f extends f: resummation values against the oracle at random
        # reals, the sum's enclosure meeting the oracle's rounding unit
        ok = True
        worst = mp.mpf(0)
        for name, lo, hi in [("ei", 4.0, 12.0), ("erfi_integral", 1.0, 3.0), ("loggamma", 4.0, 12.0)]:
            e = reg[name]
            for _ in range(10):
                x = mp.mpf(rng.uniform(lo, hi))
                val, err = e.eb_value(x, cfg)
                ref = e.oracle(x)
                worst = max(worst, abs(val - ref) / max(1, abs(ref)))
                ok = ok and abs(val - ref) <= err + abs(ref) * mp.eps
        report.record("i_extends", ok, f"worst rel {mp.nstr(worst, 3)}")

        # (ii) linearity over rational combinations at an infinite point
        f, g = reg["ei_integrand"], reg["exp"]
        lhs = tau_eval(ts_add(ts_scale(3, f.transseries), ts_scale(-2, g.transseries)), omega())
        rhs = extend(f, omega(), 8, cfg=cfg).scale(3) + extend(g, omega(), 8, cfg=cfg).scale(-2)
        report.record("ii_linearity", lhs.exact_nf(6) == rhs.exact_nf(6))

        # (iii) monomial fixed points: x^b e^(-l x) and x^n log x map to themselves
        mono = tau_eval(ts_parse("exp(-2*x)*x^(3)*series![1]"), omega())
        # x^3 e^(-2x) / x = x^2 e^(-2x) at w: w^(2 - 2w)
        expect = SurrealNF.monomial(SurrealNF.from_rational(2) - SurrealNF.monomial(one(), 2))
        report.record("iii_monomial_fixed", mono.exact_nf(2) == expect)
        logmono = tau_eval(ts_parse("x^2*log(x)"), omega())
        expect_log = SurrealNF.monomial(SurrealNF.from_rational(2) + SurrealNF.monomial(SurrealNF.from_rational(-1)))
        report.record("iii_log_monomial_fixed", logmono.exact_nf(2) == expect_log)

        # (iv) E f' = (E f)': formal via ts_diff, numeric via central differences
        ok = eq_to_order(ts_diff(reg["ei"].transseries), reg["ei_integrand"].transseries, 14)
        for name, x in [("ei", 6.0), ("erfi_integral", 2.0), ("loggamma", 7.0)]:
            e = reg[name]
            got = central_derivative(lambda s: e.oracle(s), x)
            want = term_value(e.taylor_term(mp.mpf(x), 1))
            ok = ok and _rel_close(got, want, 1e-6)
        report.record("iv_commutes_with_derivative", ok)

        # multiplicativity on the decaying algebra
        a = ts_parse("exp(-x)*(1/x + 1/x^2)")
        b = ts_parse("exp(-2*x)*(2/x)")
        prod_then_tau = tau_eval(ts_mul_minus(a, b), omega())
        # compare coefficientwise against the direct product of images
        ta = tau_eval(a, omega()).exact_nf(12)
        tb = tau_eval(b, omega()).exact_nf(12)
        direct = ta * tb
        got = prod_then_tau.exact_nf(6)
        keep = [t for t in direct.terms if any(t[0] == u[0] for u in got.terms)]
        report.record("multiplicative_on_minus", got == SurrealNF(tuple(keep), _normalized=True))
    return report


def integral_laws(cfg: QuadratureConfig = None) -> LawReport:
    """The seven integral-operator properties on catalog entries."""
    cfg = cfg or QuadratureConfig()
    reg = catalog()
    f, g = reg["ei_integrand"], reg["exp"]
    a, b = mp.mpf(2), mp.mpf(4)
    mid = (a + b) / 2
    prec = _quad_prec(cfg)
    report = LawReport("integral")
    with mp.workdps(cfg.precision):
        # (a) d/dx int_a^x f = f
        anti = antidiff_no(f)
        got = central_derivative(lambda s: anti.oracle(s), b)
        report.record("a_derivative", _rel_close(got, f.oracle(b), 1e-6))

        # (b) linearity
        # the Borel sum of the combination's antiderivative, as integrate
        # takes it for an entry with no stored antiderivative
        anti_ts = ts_antidiff(ts_add(ts_scale(2, f.transseries), ts_scale(Fraction(1, 3), g.transseries)))
        lhs = eb_sum(anti_ts, b, cfg)[0] - eb_sum(anti_ts, a, cfg)[0]
        rhs = 2 * as_number(integrate(f, float(a), float(b), cfg=cfg)) + as_number(
            integrate(g, float(a), float(b), cfg=cfg)
        ) / 3
        report.record("b_linear", _rel_close(lhs, rhs, 1e-9))

        # (c) FTC: int f' = F(b) - F(a), with F the tabled antiderivative of f
        lhs = integrate(f, float(a), float(b), cfg=cfg)
        rhs = anti.oracle(b) - anti.oracle(a)
        report.record("c_ftc", _rel_close(lhs, rhs, 1e-9))

        # (d) interval additivity (telescoping by construction)
        total = as_number(integrate(f, float(a), float(mid), cfg=cfg)) + as_number(
            integrate(f, float(mid), float(b), cfg=cfg)
        )
        report.record("d_additive", _rel_close(total, integrate(f, float(a), float(b), cfg=cfg), 1e-9))

        # (e) integration by parts: int f'g = fg| - int fg', with f = Ei, g = exp
        ei = reg["ei"]

        def deriv(entry, x):
            return term_value(entry.taylor_term(mp.mpf(x), 1))

        a0, b0 = mp.mpf(2), mp.mpf(3)
        lhs = _quad(lambda s: deriv(ei, s) * g.oracle(s), a0, b0, prec)
        boundary = ei.oracle(b0) * g.oracle(b0) - ei.oracle(a0) * g.oracle(a0)
        rhs = boundary - _quad(lambda s: ei.oracle(s) * deriv(g, s), a0, b0, prec)
        report.record("e_by_parts", _rel_close(lhs, rhs, 1e-9))

        # (f) substitution along the affine map t -> 2t + 1
        p, q = mp.mpf(2), mp.mpf(1)
        lhs = _quad(lambda t: f.oracle(p * t + q) * p, 1, 2, prec)
        rhs = integrate(f, float(p * 1 + q), float(p * 2 + q), cfg=cfg)
        report.record("f_substitution", _rel_close(lhs, rhs, 1e-9))

        # (g) positivity, including the surreal upper endpoint
        em = reg["exp_neg_over_x"]
        val = integrate(em, 3, 5, cfg=cfg)
        surreal = integrate(em, 2, omega(), 4, cfg=cfg)
        report.record("g_positive", val > 0 and surreal.sign() >= 0)
    return report

