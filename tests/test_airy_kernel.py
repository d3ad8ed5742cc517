"""The Airy Borel kernel F = 2F1(1/6, 5/6; 1; +-p/2): the test-side values
against mpmath's lateral continuations, the growth bound, and the refusal of
tsr's quadrature across the Bi side's branch point."""

from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import QuadratureOnly
from reference.kernels import AiryReference

from tsr.coefficients import airy_u, named_series
from tsr.errors import SingularPointError
from tsr.resummation import AiryKernel, QuadratureConfig, borel_transform, laplace


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
    kernel = AiryReference(side)
    with mp.workdps(dps):
        q = mp.mpf(p.numerator) / p.denominator  # exact: p has a power-of-2 denominator
        val = kernel.value(q)
        eps = +mp.eps  # at dps digits
    refs = {s: _reference(side, p, s, dps) for s in (1, -1)}
    with mp.workdps(dps + 20):
        # the laterals are conjugates, so their average is either's real part
        for s in (1, -1):
            assert abs(val - refs[s].real) <= 2 * eps * abs(refs[s]), s


@pytest.mark.parametrize("name, side", [("airy_u", 1), ("airy_u_alt", -1)])
def test_taylor_is_the_borel_transform_of_the_u_series(name, side):
    kernel = named_series(name).kernel.kernel
    assert (type(kernel), kernel.side) == (AiryKernel, side)
    taylor = kernel.taylor(30)
    assert taylor == list(borel_transform(named_series(name), 30).coeffs)
    assert taylor[7] == side**7 * airy_u(7) / 5040


@pytest.mark.parametrize("side", (1, -1))
def test_growth_bounds_the_kernel_past_the_laplace_cutoff(side):
    # c1 bounds |F| on the Ai side from 0, and on the Bi side past p = 7/3:
    # F has a log branch point at p = 2 there and exceeds c1 = 1.25 on about
    # (1.64, 2.33) (|F| is 2.5 at p = 2.0001 and 1.18 at p = 2.5)
    kernel = AiryReference(side)
    c1, c3 = kernel.growth
    assert c3 == 0
    with mp.workdps(30):
        start = mp.mpf(7) / 3 if side > 0 else 0
        grid = [start + mp.mpf(k) / 16 for k in range(160)] + [mp.mpf(10) ** (k / 4) for k in range(4, 25)]
        for p in grid:
            assert abs(kernel.value(p)) <= c1 * mp.exp(c3 * p), p


def test_tsr_quadrature_refuses_the_bi_side_kernel():
    # the Bi side's log branch point at p = 2 is no pole, and tsr's
    # quadrature subtracts simple poles only, so it refuses that kernel by
    # name;
    # the Ai side, analytic on the ray, sums
    cfg = QuadratureConfig(precision=15)
    with pytest.raises(SingularPointError, match="p = 2"):
        laplace(QuadratureOnly(AiryKernel(1)), 3, cfg)
    val, err = laplace(QuadratureOnly(AiryKernel(-1)), 3, cfg)
    assert abs(val - AiryKernel(-1).laplace(3, 53)[0]) <= err + mp.mpf(10) ** -14
