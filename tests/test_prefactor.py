"""Symbolic scale factors: algebra, exact roots, rendering, numerics."""

from fractions import Fraction as F

import mpmath as mp
import pytest

from tsr.operators import Prefactor


class TestAlgebra:
    def test_multiplication_adds_exponents(self):
        a = Prefactor.of(2, e=1, pi=F(1, 2))
        b = Prefactor.of(F(1, 3), e=-1)
        c = a * b
        assert c.factor == F(2, 3)
        assert dict(c.powers) == {"pi": F(1, 2)}

    def test_exp_tag(self):
        assert Prefactor.of(1, e=F(3)) * Prefactor.of(1, e=F(-3)) == Prefactor.one()

    def test_exact_root_extraction(self):
        assert Prefactor.rational_power(F(8, 27), F(1, 3)) == Prefactor.of(F(2, 3))
        assert Prefactor.rational_power(F(4), F(3, 2)) == Prefactor.of(8)

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_exact_root_of_huge_powers(self, n):
        # an integer root: a float root would overflow or miss by more than 1
        for r in (F(10**33 + 12345), F(10**300), F(3**250, 10**41 + 7)):
            assert Prefactor.rational_power(r**n, F(1, n)) == Prefactor.of(r)
            assert Prefactor.rational_power(r**n + 1, F(1, n)).powers  # no rational root

    def test_surd_stays_symbolic(self):
        p = Prefactor.rational_power(F(2, 3), F(1, 6))
        assert p.powers == (("rat:2/3", F(1, 6)),)
        with mp.workdps(40):
            assert abs(p.numeric() - (mp.mpf(2) / 3) ** (mp.mpf(1) / 6)) < 1e-35

    def test_rejects_nonpositive_base(self):
        with pytest.raises(ValueError):
            Prefactor.rational_power(F(-2), F(1, 2))


class TestRendering:
    @pytest.mark.parametrize(
        "pref,text",
        [
            (Prefactor.one(), "1"),
            (Prefactor.of(1, e=1), "e"),
            (Prefactor.of(1, pi=F(-1, 2)), "1/sqrt(pi)"),
            (Prefactor.of(F(1, 2), e=2), "1/2*e^(2)"),
            (Prefactor.of(1, ln2pi=1), "log(2*pi)"),
        ],
    )
    def test_render(self, pref, text):
        assert pref.render() == text

    def test_numeric_of_composite(self):
        p = Prefactor.of(F(3, 4), e=1, pi=F(1, 2))
        with mp.workdps(40):
            expect = mp.mpf(3) / 4 * mp.e * mp.sqrt(mp.pi)
            assert abs(p.numeric() - expect) < 1e-35

    @pytest.mark.parametrize("q", [F(3, 2**140), F(-3, 2**140), F(1, 3 * 2**140), F(5, 2)], ids=str)
    @pytest.mark.parametrize("wp", [73, 206])
    def test_enclosure_of_a_power_of_e_holds_it(self, q, wp):
        # at a tiny q, e^q = 1 + q + ..., and 1 + q is a binary fraction at
        # wp bits: an enclosure rounded from one approximation both ways
        # would be [1 + q, 1 + q], below e^q
        lo, hi = Prefactor.of(1, e=q).enclosure(wp)
        with mp.workprec(2 * wp + 400):
            exact = mp.exp(mp.mpf(q.numerator) / q.denominator)
            assert mp.make_mpf(lo) < exact < mp.make_mpf(hi)
