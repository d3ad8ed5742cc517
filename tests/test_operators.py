"""Extension operator, tau map, catalog entries, and A_No."""

from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsr.errors import DomainError, UnsupportedPointError
from tsr.operators import (
    NumericTaylor,
    Prefactor,
    SurrealValue,
    antidiff_no,
    catalog,
    catalog_manifest,
    exp_purely_infinite,
    extend,
    integrate,
    monomial_entry,
    tau_eval,
    transseriate,
)
from tsr.resummation import QuadratureConfig
from tsr.surreal import SurrealNF, omega, one, parse_nf
from tsr.transseries import eq_to_order, ts_add, ts_diff, ts_parse, ts_scale
from conftest import time_budget
from reference.surreal import coefficient, exp_infinitesimal

CFG = QuadratureConfig()
W = omega()


def nf(text: str) -> SurrealNF:
    return parse_nf(text)


class TestExpIdentities:
    def test_exp_omega(self):
        assert exp_purely_infinite(W) == W  # exp(w) = w^w

    def test_exp_rational_multiple(self):
        assert exp_purely_infinite(3 * W) == 3 * W  # exp(3w) = w^(3w)

    def test_exp_omega_squared(self):
        sq = SurrealNF.monomial(SurrealNF.from_rational(2))
        assert exp_purely_infinite(sq) == sq

    def test_log_omega_inverse(self):
        log_w = SurrealNF.monomial(SurrealNF.monomial(SurrealNF.from_rational(-1)))
        assert exp_purely_infinite(log_w) == one()  # exp(log w) = w^(w^0)

    def test_unsupported_exponent(self):
        small = SurrealNF.monomial(SurrealNF.from_rational(F(1, 2)))
        with pytest.raises(UnsupportedPointError):
            exp_purely_infinite(small)


class TestTau:
    def test_exp_at_omega(self):
        v = tau_eval(ts_parse("exp(x)"), W)
        assert v.exact_nf(2) == SurrealNF.monomial(W)

    def test_factorial_series_at_omega(self):
        v = tau_eval(ts_parse("#ei"), W)
        assert v.exact_nf(4) == nf("w^(-1) + w^(-2) + 2*w^(-3) + 6*w^(-4)")

    def test_log_monomial_at_omega(self):
        v = tau_eval(ts_parse("x^2*log(x)"), W)
        assert v.exact_nf(2) == nf("w^(2+w^(-1))")

    def test_point_grammar_enforced(self):
        with pytest.raises(UnsupportedPointError):
            tau_eval(ts_parse("exp(x)"), SurrealNF.monomial(SurrealNF.from_rational(2)))

    def test_shifted_point_exact(self):
        # sum k!(2w+3)^(-k-1): re-expansion has exact binomial coefficients
        v = tau_eval(ts_parse("#ei"), 2 * W + SurrealNF.from_rational(3))
        got = v.exact_nf(3)
        assert coefficient(got, SurrealNF.from_rational(-1)) == F(1, 2)
        assert coefficient(got, SurrealNF.from_rational(-2)) == F(-1, 2)
        assert coefficient(got, SurrealNF.from_rational(-3)) == F(5, 8)

    def test_homomorphism_addition_scaling(self):
        a, b = ts_parse("#ei"), ts_parse("1/x + 3/x^2")
        lhs = tau_eval(ts_add(ts_scale(F(2, 3), a), b), W)
        rhs = tau_eval(a, W).scale(F(2, 3)) + tau_eval(b, W)
        assert lhs.exact_nf(6) == rhs.exact_nf(6)

    def test_commutes_with_differentiation(self):
        # termwise surreal differentiation: image of d/dx T equals the
        # derivative taken on the image monomials
        ts = ts_parse("exp(-x)*(1/x + 2/x^2)")
        lhs = tau_eval(ts_diff(ts), W).exact_nf(6)
        # d/dx (x^-l e^-x) image: -(w^-l e^-w) - l w^(-l-1) e^-w
        img = tau_eval(ts, W).exact_nf(8)
        expect = SurrealNF.zero()
        for e, c in img.terms:
            # each image monomial w^(e) came from x^(a) e^(-x) with e = a - w
            a_part = e + W  # recover the power exponent
            expect = expect + SurrealNF.monomial(e, -c) + SurrealNF.monomial(e - one(), c * a_part.as_rational())
        keep = [t for t in expect.terms if any(t[0] == u[0] for u in lhs.terms)]
        assert lhs == SurrealNF(tuple(keep), _normalized=True)


class TestCatalog:
    def test_registry_contents(self):
        names = set(catalog())
        assert {"exp", "ei", "erfi_integral", "airy_ai", "airy_bi", "loggamma", "gamma"} <= names

    @pytest.mark.parametrize(
        "name,x",
        [("exp", 3), ("ei", 8), ("erfi_integral", 2), ("loggamma", 10), ("exp_neg_over_x", 4)],
    )
    def test_eb_sum_matches_oracle(self, name, x):
        e = catalog()[name]
        val, err = e.eb_value(x, CFG)
        with mp.workdps(CFG.precision + 10):
            ref = e.oracle(mp.mpf(x))
            # the oracle, at 10 more digits, is good to a unit of them
            assert abs(val - ref) <= err + abs(ref) * mp.mpf(10) ** -(CFG.precision + 9)

    def test_transseries_of_pure_series_is_itself(self):
        # Watson-fit: asymptotic coefficients recovered from eb_sum values
        # match the stored series (the resummation adds no new terms).
        e = catalog()["ei"]
        stored = e.transseries.plus[0].series
        with mp.workdps(40):
            xs = [mp.mpf(v) for v in (40, 55, 70, 90)]
            vals = [e.eb_value(x, CFG)[0] * mp.exp(-x) for x in xs]
            remainder = vals
            for l in range(1, 4):
                # fit c_l as the limit of remainder * x^l
                ests = [r * x**l for r, x in zip(remainder, xs)]
                target = stored.coeff(l)
                assert abs(ests[-1] - target) < 0.2 * max(1, abs(target))
                remainder = [r - mp.mpf(target.numerator) / target.denominator * x**-l for r, x in zip(remainder, xs)]

    def test_airy_u_coefficients(self):
        from tsr.coefficients import airy_u

        assert airy_u(0) == 1
        assert airy_u(1) == F(5, 72)
        # DLMF recurrence reproduced exactly to k = 20
        for k in range(1, 21):
            assert airy_u(k) == airy_u(k - 1) * F((6 * k - 5) * (6 * k - 3) * (6 * k - 1), 216 * k * (2 * k - 1))

    def test_loggamma_oracle_exact_integers(self):
        e = catalog()["loggamma"]
        with mp.workdps(50):
            assert abs(e.oracle(10) - mp.log(362880)) < mp.mpf(10) ** -45

    def test_domain_error(self):
        with pytest.raises(DomainError):
            extend(catalog()["ei"], F(-1), 4)

    def test_manifest_shape(self):
        man = catalog_manifest()
        assert man["ei"]["kernels"] == {"ei": "ClosedFormKernel"}
        assert set(man["ei"]) == {
            "transseries", "critical_time", "prefactor", "ln2pi_coef", "kernels", "domain_c", "composes"
        }
        assert man["erfi_integral"]["critical_time"] == {"coef": "1", "power": "2"}
        assert man["loggamma"]["ln2pi_coef"] == "1/2"
        assert man["airy_ai"]["critical_time"] == {"coef": "2/3", "power": "3/2"}


    def test_gamma_eb_value_at_requested_precision(self):
        gamma, loggamma = catalog()["gamma"], catalog()["loggamma"]
        cfg = QuadratureConfig(precision=30)
        val, err = gamma.eb_value(15.3, cfg)
        prec = mp.libmp.dps_to_prec(30)
        assert mp.libmp.mpf_pos(val._mpf_, prec, mp.libmp.round_nearest) == val._mpf_
        with mp.workdps(60):
            # the log Gamma it exponentiates is Binet's function in closed
            # form, summed past the 30 digits by its 5 integer bits, so Gamma
            # is good to the last of them
            assert abs(val - mp.exp(loggamma.eb_value(15.3, QuadratureConfig(precision=40))[0])) <= err
            ref = mp.gamma(mp.mpf(15.3))
            assert abs(val / ref - 1) < mp.ldexp(1, 2 - prec)
            assert abs(val - ref) <= err <= abs(ref) * mp.mpf(10) ** -28

    @pytest.mark.parametrize("name", ["ei", "erfi_integral", "loggamma", "gamma"])
    def test_eb_value_takes_an_exact_point(self, name):
        # an integer power's critical time is exact, 961/9 for the erfi
        # integral and 31/3 itself for the others, and the sum is taken there:
        # within its error of mpmath at the exact 31/3, not at a rounded one
        entry, cfg, x = catalog()[name], QuadratureConfig(precision=30), F(31, 3)
        t = entry.critical_time(x, mp.libmp.dps_to_prec(30))
        assert type(t) is F and t == (F(961, 9) if name == "erfi_integral" else x)
        ref = {"ei": mp.ei, "erfi_integral": lambda t: mp.sqrt(mp.pi) / 2 * mp.erfi(t), "loggamma": mp.loggamma, "gamma": mp.gamma}
        val, err = entry.eb_value(x, cfg)
        with mp.workdps(70):
            assert abs(val - ref[name](mp.mpf(31) / 3)) <= err

    def test_erfi_integral_value_term_keeps_precision(self):
        with mp.workdps(50):
            kind, value = catalog()["erfi_integral"].taylor_term(F(1, 3), 0)
            reference = catalog()["erfi_integral"].oracle(mp.mpf(1) / 3)
            assert kind == "num" and abs(value - reference) < mp.mpf(10) ** -45 * abs(reference)


class TestExtend:
    def test_real_point_oracle(self):
        v = extend(catalog()["ei"], F(5), 4)
        with mp.workdps(50):
            assert abs(v - mp.ei(5)) < 1e-40

    def test_mpf_point_is_the_exact_real_point(self):
        # a finite mpf is dyadic, so it is the same real point as its
        # Fraction and as the normal form of that Fraction: the working
        # precision of cfg, and exact values where the entry has them
        cfg = QuadratureConfig(precision=40)
        v = extend(catalog()["ei"], mp.mpf(3), cfg=cfg)
        assert v == extend(catalog()["ei"], F(3), cfg=cfg)
        assert v == extend(catalog()["ei"], SurrealNF.from_rational(F(3)), cfg=cfg)
        assert v._mpf_[3] >= mp.libmp.dps_to_prec(40)  # mantissa bits
        with mp.workdps(40):
            assert abs(v - mp.ei(3)) <= mp.mpf(10) ** -38 * mp.ei(3)
        for q in (F(2), F(-5, 4)):
            want = extend(catalog()["exp"], q).render(2)
            for point in (mp.mpf(q.numerator) / q.denominator, SurrealNF.from_rational(q)):
                exact = extend(catalog()["exp"], point)
                assert isinstance(exact, SurrealValue)
                assert exact.render(2) == want
        with pytest.raises(DomainError):
            extend(catalog()["ei"], mp.mpf(-3))

    def test_number_point_is_not_decomposed(self, monkeypatch):
        # an int, float, Fraction or mpf is a real point as it is: it goes to
        # the oracle or the exact value without a normal form to decompose,
        # with the same value as its normal form's
        import tsr.operators.extension as extension

        cfg = QuadratureConfig(precision=40)
        cases = [("ei", p) for p in (3, 2.5, F(7, 3), mp.mpf(3) / 8)] + [("airy_bi", -2.25), ("exp", F(-5, 4))]
        exact = [F(*mp.libmp.to_rational(p._mpf_)) if isinstance(p, mp.mpf) else F(p) for _, p in cases]
        want = [extend(catalog()[name], SurrealNF.from_rational(q), cfg=cfg) for (name, _), q in zip(cases, exact)]

        def refuse(_):
            raise AssertionError("a number point was decomposed")

        monkeypatch.setattr(extension, "decompose", refuse)
        got = [extend(catalog()[name], p, cfg=cfg) for name, p in cases]
        assert all(isinstance(g, mp.mpf) for g in got[:-1])
        assert got[:-1] == want[:-1] and got[-1].render(5) == want[-1].render(5)

    @pytest.mark.parametrize("point", [mp.inf, -mp.inf, mp.nan, float("inf")])
    def test_non_finite_real_point_is_a_domain_error(self, point):
        with pytest.raises(DomainError):
            extend(catalog()["ei"], point)

    def test_exp_exact_at_zero(self):
        v = extend(catalog()["exp"], F(0), 4)
        assert isinstance(v, SurrealValue)
        assert v.exact_nf(2) == one()

    def test_finite_point_taylor_exp(self):
        point = SurrealNF.from_rational(1) + SurrealNF.monomial(SurrealNF.from_rational(-1))
        v = extend(catalog()["exp"], point, 3)
        assert v.render(3) == "e*(1 + w^(-1) + 1/2*w^(-2) + ...)"

    def test_finite_point_numeric_taylor(self):
        point = SurrealNF.from_rational(2) + SurrealNF.monomial(SurrealNF.from_rational(-1))
        v = extend(catalog()["loggamma"], point, 3)
        with mp.workdps(50):
            assert abs(v.coefficients[0] - mp.loggamma(2)) < 1e-30
            assert abs(v.coefficients[1] - mp.psi(0, 2)) < 1e-30

    def test_infinite_point_ei(self):
        v = extend(catalog()["ei"], W, 5)
        assert v.exact_nf(5) == nf("w^(w-1) + w^(w-2) + 2*w^(w-3) + 6*w^(w-4) + 24*w^(w-5)")

    def test_negative_infinite_reflection(self):
        v = extend(catalog()["exp"], -W, 4)
        assert v.exact_nf(2) == SurrealNF.monomial(-W)  # e^(-w) = w^(-w)

    def test_erfi_at_omega(self):
        v = extend(catalog()["erfi_integral"], W, 3)
        got = v.exact_nf(3)
        wsq = SurrealNF.monomial(SurrealNF.from_rational(2))  # exponent w^2
        base = SurrealNF(((SurrealNF.from_rational(2), F(1)),))
        assert coefficient(got, base - one()) == F(1, 2)
        assert coefficient(got, base - 3 * one()) == F(1, 4)
        assert coefficient(got, base - 5 * one()) == F(3, 8)

    def test_loggamma_at_omega_stirling(self):
        v = extend(catalog()["loggamma"], W, 5)
        text = v.render(5)
        assert "w^(1+w^(-1))" in text  # w log w
        assert "1/12*w^(-1)" in text
        assert "log(2*pi)*(1/2)" in text or "log(2*pi)" in text

    def test_gamma_at_omega_has_sqrt_2pi(self):
        v = extend(catalog()["gamma"], W, 3)
        text = v.render(3)
        assert "sqrt(pi)" in text and "sqrt(2)" in text
        assert "1/12" in text  # first Stirling product correction


class TestAntidiffNo:
    def test_exp_fixed_point(self):
        assert antidiff_no(catalog()["exp"]) is catalog()["exp"]

    def test_monomials(self):
        anti = antidiff_no(monomial_entry(3))
        assert anti.transseries.log.Q == (0, 0, 0, 0, F(1, 4))

    def test_ei_table_link(self):
        assert antidiff_no(catalog()["ei_integrand"]).name == "ei"

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        name=st.sampled_from(["exp", "ei_integrand", "erfi_integrand", "monomial"]),
        n=st.integers(0, 6),
        c=st.fractions(-5, 5, max_denominator=7),
        xs=st.lists(st.fractions(F(1, 2), 3, max_denominator=16), min_size=2, max_size=2),
        ends=st.lists(st.fractions(-3, 3, max_denominator=9), min_size=2, max_size=2),
    )
    def test_stored_antiderivative(self, name, n, c, xs, ends):
        # F = A_No f satisfies F' = f; a monomial's integral stays exact
        f = monomial_entry(n, c) if name == "monomial" else catalog()[name]
        anti = antidiff_no(f)
        with mp.workdps(40):
            for q in xs:
                x = mp.mpf(q.numerator) / q.denominator
                want = f.oracle(x)
                assert abs(mp.diff(anti.oracle, x) - want) <= mp.mpf(10) ** -30 * max(1, abs(want)), (name, q)
        if name == "monomial":
            a, b = ends
            got = integrate(f, a, b).exact_nf(2)
            assert got == SurrealNF.from_rational(c * (b ** (n + 1) - a ** (n + 1)) / (n + 1))

    def test_monomial_antiderivative_twice_stays_exact(self):
        twice = antidiff_no(antidiff_no(monomial_entry(2)))
        assert twice.exact_value(F(3)) == (Prefactor.one(), F(27, 4))

    def test_transseriate_is_stored_data(self):
        e = catalog()["ei"]
        assert transseriate(e) is e.transseries


class TestIntegrate:
    def test_exp_zero_to_omega(self):
        v = integrate(catalog()["exp"], 0, W, 4)
        assert v.render(4) == "w^w - 1"

    def test_inverse_square_one_to_two(self):
        # int_1^2 s^-2 ds = 1/2, via the decaying catalog entry route
        from tsr.operators.catalog import CatalogFunction
        from tsr.transseries import Group, PowerSeries, assemble

        entry = CatalogFunction(
            name="inv_square",
            transseries=assemble([Group(F(0), F(0), PowerSeries.from_coeffs([F(0), F(1)]))]),
            taylor_term=lambda x0, k: ("num", (-1) ** k * mp.mpf(float(x0)) ** (-2 - k) * (k + 1)),
            domain_c=0.0,
        )
        val = integrate(entry, 1, 2, 4)
        with mp.workdps(40):
            assert abs(val - mp.mpf("0.5")) < 1e-30

    def test_erfi_zero_to_omega(self):
        v = integrate(catalog()["erfi_integrand"], 0, W, 3)
        got = v.exact_nf(3)
        base = SurrealNF(((SurrealNF.from_rational(2), F(1)),))
        assert coefficient(got, base - one()) == F(1, 2)

    @pytest.mark.parametrize("name", ["airy_ai", "ei", "gamma", "loggamma"])
    def test_equal_real_endpoints_build_no_antiderivative(self, monkeypatch, name):
        import tsr.operators.extension as extension

        monkeypatch.setattr(extension, "antidiff_no", None)  # a call would fail
        assert integrate(catalog()[name], 2, 2) == 0
        if catalog()[name].domain_c is not None:  # a point outside the domain stays refused
            with pytest.raises(DomainError):
                integrate(catalog()[name], -1, -1)

    def test_real_endpoints_additive(self):
        f = catalog()["ei_integrand"]
        with mp.workdps(50):
            ab = integrate(f, 1, 2, 4)
            bc = integrate(f, 2, 3, 4)
            ac = integrate(f, 1, 3, 4)
            assert abs((ab + bc) - ac) < 1e-12


@pytest.mark.parametrize(
    "point, text",
    [
        ("w", "-w^(-w)"),
        ("2*w+1", "e^(-1)*(-w^(-2*w))"),
        ("w-3", "e^(3)*(-w^(-w))"),
        ("1/2*w", "-w^(-1/2*w)"),
    ],
)
def test_exp_neg_from_two_to_infinite_point_returns(point, text):
    # A_No exp_neg = -e^(-x) has one term; its stream must end, not search on
    with time_budget(10.0):
        value = integrate(catalog()["exp_neg"], 2, parse_nf(point), 8)
        assert value.render(8) == f"{text} + 0.135335283237"
        assert value.render(8, 20) == f"{text} + 0.13533528323661269189"
    with mp.workdps(40):
        assert abs(value.offset - mp.exp(-2)) < mp.mpf(10) ** -28


def test_real_endpoint_integral_at_requested_precision():
    cfg = QuadratureConfig(precision=30)
    value = integrate(catalog()["ei_integrand"], 2, 5, cfg=cfg)
    with mp.workdps(40):
        want = mp.ei(5) - mp.ei(2)
        assert abs(value / want - 1) < mp.mpf(10) ** -28


def test_exp_of_lazy_infinitesimal_longer_than_first_window():
    from tsr.operators.tau import exp_grid
    from tsr.surreal import LazyNF

    # six terms, and twelve exp terms: the recurrence reads all six, then the end
    z = SurrealNF([(SurrealNF.from_rational(-k), F(1)) for k in range(1, 7)])
    got = exp_grid(LazyNF.from_nf(z)).truncate(12)
    assert got == exp_infinitesimal(z).truncate(12)


class TestFiniteAgainstRealEndpoint:
    """A Taylor series at x0 + zeta less a real: its constant coefficient shifts."""

    @staticmethod
    def assert_coefficients(value, want, rel):
        assert isinstance(value, NumericTaylor)
        assert len(value.coefficients) == len(want)
        for got, ref in zip(value.coefficients, want):
            assert abs(got - ref) <= rel * abs(ref)

    def test_exp_neg_over_x_both_orders(self):
        f = catalog()["exp_neg_over_x"]
        up = integrate(f, F(1, 10), nf("1+w^(-1)"), 4, cfg=CFG)
        down = integrate(f, nf("1+w^(-1)"), F(1, 10), 4, cfg=CFG)
        with mp.workdps(CFG.precision + 20):
            g = lambda x: mp.exp(-x) / x
            # c0 = E1(1/10) - E1(1), c_k = g^(k-1)(1)/k!
            want = [mp.e1(mp.mpf(1) / 10) - mp.e1(1)] + [mp.diff(g, 1, k - 1) / mp.factorial(k) for k in range(1, 4)]
            self.assert_coefficients(up, want, mp.mpf(10) ** -40)
            self.assert_coefficients(down, [-c for c in want], mp.mpf(10) ** -40)

    def test_exp_neg_two_to_finite_point(self):
        value = integrate(catalog()["exp_neg"], 2, nf("3+w^(-1)"), 8, cfg=CFG)
        with mp.workdps(CFG.precision + 20):
            # e^(-2) - e^(-3 - zeta)
            want = [mp.exp(-2) - mp.exp(-3)] + [-(-1) ** k * mp.exp(-3) / mp.factorial(k) for k in range(1, 8)]
            self.assert_coefficients(value, want, mp.mpf(10) ** -40)

    def test_exact_real_constant_counts_as_real(self):
        f = catalog()["erfi_integrand"]
        assert isinstance(extend(antidiff_no(f), 0), SurrealValue)
        value = integrate(f, 0, nf("3+w^(-1)"), 3, cfg=CFG)
        with mp.workdps(CFG.precision + 20):
            # int_0^3 e^(t^2) dt, then e^9, 3 e^9
            want = [mp.sqrt(mp.pi) / 2 * mp.erfi(3), mp.exp(9), 3 * mp.exp(9)]
            self.assert_coefficients(value, want, mp.mpf(10) ** -40)

    def test_two_finite_points_with_one_zeta(self):
        value = integrate(catalog()["exp_neg"], nf("1+w^(-1)"), nf("3+w^(-1)"), 6, cfg=CFG)
        with mp.workdps(CFG.precision + 20):
            # e^(-1 - zeta) - e^(-3 - zeta)
            want = [(-1) ** k * (mp.exp(-1) - mp.exp(-3)) / mp.factorial(k) for k in range(6)]
            self.assert_coefficients(value, want, mp.mpf(10) ** -40)

    @pytest.mark.parametrize("a, b", [("w", "3+w^(-1)"), ("1+w^(-1)", "3+w^(-2)")])
    def test_other_pairs_name_both_kinds(self, a, b):
        with pytest.raises(UnsupportedPointError, match="NumericTaylor and a (NumericTaylor|SurrealValue)"):
            integrate(catalog()["exp_neg"], nf(a), nf(b), 4)
