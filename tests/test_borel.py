"""Borel transform, convolution, and P-integration: exact identities."""

import random
from fractions import Fraction as F
from math import factorial

from reference.resummation import convolve

from tsr.resummation import BorelPoly, borel_transform, p_integrate_poly
from tsr.transseries import PowerSeries


#: the Borel image of 1/x, the unit of the convolution algebra
UNIT = BorelPoly((F(1),))


def random_series(rng, n=10):
    return PowerSeries.from_coeffs([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)])


class TestBorelTransform:
    def test_factorial_series_becomes_geometric(self):
        s = PowerSeries(lambda l: F(factorial(l - 1)))
        b = borel_transform(s, 6)
        assert all(c == 1 for c in b.coeffs)

    def test_x_inverse(self):
        b = borel_transform(PowerSeries.from_coeffs([F(1)]), 4)
        assert b.coeffs == (1, 0, 0, 0, 0)

    def test_erfi_series_is_binomial_sqrt(self):
        # kernel (1/2)(1-p)^(-1/2) has Taylor binom(2k,k)/(2*4^k)
        from math import comb

        from tsr.coefficients import erfi_coeff

        s = PowerSeries(erfi_coeff)
        b = borel_transform(s, 8)
        for k in range(9):
            assert b.coeff(k) == F(comb(2 * k, k), 2 * 4**k)

    def test_round_trip(self, rng):
        s = random_series(rng)
        # c_(k+1) = b_k k!
        b = borel_transform(s, 9)
        assert [c * factorial(k) for k, c in enumerate(b.coeffs)] == s.coeffs(10)


class TestConvolution:
    def test_unit_convolution_is_p(self):
        assert convolve(UNIT, UNIT).coeffs == (0, 1)

    def test_homomorphism_randomized(self, rng):
        for _ in range(40):
            s, t = random_series(rng), random_series(rng)
            lhs = borel_transform(s.mul(t), 18)
            rhs = convolve(borel_transform(s, 18), borel_transform(t, 18))
            assert [lhs.coeff(k) for k in range(19)] == [rhs.coeff(k) for k in range(19)]

    def test_geometric_square(self):
        # Symbolic integration oracle: int_0^p ds/((1-s)(1-p+s)) = -2 log(1-p)/(2-p),
        # whose expansion is p + p^2 + 5/6 p^3 + ... (partial fractions, then
        # multiply the log and geometric series).
        def oracle(k: int) -> F:
            # coefficient of p^k in (2 sum p^j/j) * (1/2) sum (p/2)^i
            return sum(F(2, j) * F(1, 2 ** (k - j + 1)) for j in range(1, k + 1))

        ones = BorelPoly((F(1),) * 8)
        got = convolve(ones, ones)
        assert got.coeff(0) == 0
        for k in range(1, 7):
            assert got.coeff(k) == oracle(k)


class TestPIntegrate:
    def test_poly_once(self):
        assert p_integrate_poly(BorelPoly((F(1),))).coeffs == (0, 1)

    def test_equals_unit_convolution(self, rng):
        b = BorelPoly(tuple(F(rng.randint(-5, 5)) for _ in range(8)))
        assert p_integrate_poly(b).coeffs[: len(b.coeffs) + 1] == convolve(UNIT, b).coeffs

    def test_pole_becomes_log(self):
        from tsr.resummation import pole_kernel

        k = pole_kernel(1).p_integral()
        # -log(1-p): Taylor 0, 1, 1/2, 1/3, ...
        assert k.taylor(5) == [0, 1, F(1, 2), F(1, 3), F(1, 4), F(1, 5)]

    def test_double_integral_of_pole_by_differentiation(self):
        # P^2 of 1/(1-p), checked against its exact Taylor (twice-integrated)
        k2 = __import__("tsr.resummation", fromlist=["pole_kernel"]).pole_kernel(1).p_integral().p_integral()
        # d^2/dp^2 of the Taylor must give back the geometric series
        t = k2.taylor(8)
        second = [t[k] * k * (k - 1) for k in range(2, 9)]
        assert second == [1] * 7
        assert t[0] == 0 and t[1] == 0
