"""The Airy Borel kernel F = 2F1(1/6, 5/6; 1; +-p/2): its values and lateral
continuations against mpmath, and the growth bound its Laplace tail uses."""

from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsr.coefficients import airy_u, named_series
from tsr.resummation import AiryKernel, borel_transform
from tsr.resummation.laplace import PV_WINDOW


def _reference(side: int, p: F, s: int, dps: int):
    """2F1(1/6, 5/6; 1; z) at z = side * p/2 just off the real axis, on the
    side that p + s*i0 maps to, at dps + 20 digits."""
    with mp.workdps(dps + 20):
        z = mp.mpf(side * p.numerator) / (2 * p.denominator)
        off = side * s * mp.mpf(10) ** -(dps + 15)  # |F'| <= 64 on the grid: no visible shift
        return mp.hyp2f1(mp.mpf(1) / 6, mp.mpf(5) / 6, 1, mp.mpc(z, off))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    dps=st.integers(15, 100),
    p=st.integers(1, 48 * 64).filter(lambda k: k != 128).map(lambda k: F(k, 64)),
    side=st.sampled_from((1, -1)),
)
# both sides of the branch point, and the seams between the four expansions
@example(dps=30, p=F(127, 64), side=1)
@example(dps=30, p=F(129, 64), side=1)
@example(dps=100, p=F(77, 64), side=1)
@example(dps=50, p=F(205, 64), side=1)
@example(dps=50, p=F(205, 64), side=-1)
@example(dps=15, p=F(77, 64), side=-1)
@example(dps=100, p=F(2000), side=1)
def test_values_and_laterals_agree_with_mpmath(dps, p, side):
    kernel = AiryKernel(side)
    with mp.workdps(dps):
        q = mp.mpf(p.numerator) / p.denominator  # exact: p has a power-of-2 denominator
        val = kernel.value(q)
        lateral = {s: kernel.lateral(q, s) for s in (1, -1)}
        eps = +mp.eps  # at dps digits
    refs = {s: _reference(side, p, s, dps) for s in (1, -1)}
    with mp.workdps(dps + 20):
        tol = 2 * eps * abs(refs[1])
        assert abs(val - refs[1].real) <= tol
        for s in (1, -1):
            assert abs(lateral[s] - refs[s]) <= tol, s
        if side < 0 or p < 2:
            assert lateral[1] == lateral[-1] == val  # no cut below z = 1


@pytest.mark.parametrize("name, side", [("airy_u", 1), ("airy_u_alt", -1)])
def test_taylor_is_the_borel_transform_of_the_u_series(name, side):
    kernel = named_series(name).kernel.kernel
    assert (type(kernel), kernel.side) == (AiryKernel, side)
    taylor = kernel.taylor(30)
    assert taylor == list(borel_transform(named_series(name), 30).coeffs)
    assert taylor[7] == side**7 * airy_u(7) / 5040


@pytest.mark.parametrize("side", (1, -1))
def test_growth_bounds_the_kernel_past_the_laplace_cutoff(side):
    # laplace cuts the ray at T >= 2, and past the last singularity's window
    # plus 1: T >= 2 + 2 * min(PV_WINDOW, 1) + 1 for the branch point at 2
    kernel = AiryKernel(side)
    c1, c3 = kernel.growth
    assert c3 == 0
    start = 2 + 2 * min(PV_WINDOW, 1) + 1 if side > 0 else 0
    with mp.workdps(30):
        grid = [mp.mpf(start) + mp.mpf(k) / 16 for k in range(1, 160)] + [mp.mpf(10) ** (k / 4) for k in range(4, 25)]
        for p in grid:
            values = [kernel.value(p)] + [kernel.lateral(p, s) for s in (1, -1)]
            assert max(abs(v) for v in values) <= c1 * mp.exp(c3 * p), p
