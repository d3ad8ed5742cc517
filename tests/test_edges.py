"""Edge contracts: finite group sums, derivative commutation, regularization."""

from fractions import Fraction as F

import mpmath as mp
import pytest
from reference.signs import sign_value, simplest_between

from tsr.errors import NotRegularizableError
from tsr.resummation import (
    ClosedFormKernel,
    QuadratureConfig,
    borel_transform,
    laplace,
    p_integrate_poly,
)
from tsr.surreal import SurrealNF, omega
from tsr.transseries import Group, PowerSeries, assemble, ts_parse
from tsr.resummation.laplace import eb_sum

CFG = QuadratureConfig()


class TestCutsAcceptNormalForms:
    def test_simplest_between_nf_members(self):
        lo = SurrealNF.from_rational(0)
        hi = SurrealNF.from_rational(1)
        assert sign_value(simplest_between([lo], [hi])) == F(1, 2)


class TestDerivativeCommutation:
    def test_borel_image_of_diff_combo(self, rng):
        # B[(b/x - l) y + y'] = b P(B y) - l B y - p B y, exactly on polys
        for _ in range(30):
            y = PowerSeries.from_coeffs([F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(9)])
            b = F(rng.randint(-4, 4), rng.choice([1, 2]))
            lam = F(rng.randint(1, 5), rng.choice([1, 2]))
            dot = y.diff_combo(b, -lam)
            lhs = borel_transform(dot, 8)
            By = borel_transform(y, 8)
            integrated = p_integrate_poly(By)
            for k in range(9):
                rhs = b * integrated.coeff(k) - lam * By.coeff(k) - (By.coeff(k - 1) if k else F(0))
                assert lhs.coeff(k) == rhs


class TestFiniteGroupSums:
    def test_geometric_groups_sum_exactly(self):
        # sum_k e^(-k x)/x^k: every group is finite, so each is its own sum
        ts = assemble([Group(F(-k), F(0), PowerSeries.from_coeffs([F(0)] * (k - 1) + [F(1)])) for k in range(1, 9)])
        val, err = eb_sum(ts, 12.0, CFG)
        with mp.workdps(50):
            direct = sum(mp.exp(-k * mp.mpf(12)) * mp.mpf(12) ** -k for k in range(1, 9))
            assert abs(val - direct) <= max(err, mp.mpf(1e-13)) + 1e-20


class TestRegularization:
    def test_non_integrable_branch_rejected(self):
        bad = ClosedFormKernel(F(1), [(F(1), F(-3, 2), 0)])
        with pytest.raises(NotRegularizableError):
            laplace(bad, 6, CFG)

    def test_p_integral_makes_it_integrable(self):
        bad = ClosedFormKernel(F(1), [(F(1), F(-3, 2), 0)])
        fixed = bad.p_integral()
        val, err = laplace(fixed, 6, CFG)
        assert mp.isfinite(val)


class TestTauWindowStability:
    def test_prefixes_agree_across_window_sizes(self):
        from tsr.operators import tau_eval

        W = omega()
        point = 2 * W + SurrealNF.from_rational(1)
        # a stream read 3 terms deep and one read 11 deep share their prefix
        small = tau_eval(ts_parse("#ei"), point)
        large = tau_eval(ts_parse("#ei"), point)
        a = small.merged().groups[0].stream.terms(3)
        b = large.merged().groups[0].stream.terms(11)[:3]
        assert a == b
