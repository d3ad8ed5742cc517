"""Binet's function as a shifted Stirling series, and its Bernoulli numbers.

``CothKernel.laplace`` (through ``special.binet``) sums J(x) = ln Gamma(x) -
(x - 1/2) ln x + x - ln(2 pi)/2 with no Gamma function, over the tangent
numbers that ``coefficients.bernoulli`` reads too.  These tests check both
against independent references: the Bernoulli recurrence and mpmath's
``loggamma``.
"""

import os
import re
import subprocess
import sys
from fractions import Fraction as F
from math import comb, factorial
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import libmp

from conftest import time_budget
from tsr.coefficients import bernoulli, coth_kernel_coeff, stirling_coeff
from tsr.resummation import CothKernel
from tsr.resummation import special


def recurrence_bernoulli(n_max: int) -> list:
    """B_0..B_n_max with B_1 = -1/2, from sum(binom(n+1, j) B_j, j <= n) = 0."""
    b = []
    for n in range(n_max + 1):
        b.append(-sum((comb(n + 1, j) * b[j] for j in range(n)), F(0)) / (n + 1) if n else F(1))
    return b


def test_bernoulli_is_the_recurrence_to_200():
    assert [bernoulli(n) for n in range(201)] == recurrence_bernoulli(200)


def test_stirling_and_coth_coefficients_read_the_same_bernoulli_numbers():
    b = recurrence_bernoulli(62)
    for n in range(30):
        assert stirling_coeff(2 * n + 1) == b[2 * n + 2] / ((2 * n + 1) * (2 * n + 2))
        assert stirling_coeff(2 * n + 2) == 0
        assert coth_kernel_coeff(2 * n) * factorial(2 * n + 2) == b[2 * n + 2]


def test_tangent_numbers_are_the_taylor_coefficients_of_tan():
    # OEIS A000182: tan z = sum(T_k z^(2k-1) / (2k-1)!)
    first = [1, 2, 16, 272, 7936, 353792, 22368256, 1903757312, 209865342976, 29088885112832]
    assert list(special.tangent_numbers(10)[:10]) == first


def binet_reference(x: F, digits: int = 400):
    """J(x) from mpmath's loggamma, at a precision past every case here."""
    with mp.workdps(digits):
        v = mp.mpf(x.numerator) / x.denominator
        return +(mp.loggamma(v) - (v - mp.mpf(1) / 2) * mp.log(v) + v - mp.log(2 * mp.pi) / 2)


#: dyadic points: short binary fractions, exact at any precision
dyadic = st.builds(lambda m, e: F(m, 2**20) * F(2) ** e, st.integers(2**19, 2**20), st.integers(-3, 26))
#: long-mantissa points: fractions no binary fraction holds, rounded first
long_mantissa = st.fractions(F(1, 10), 10**8, max_denominator=10**9)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.one_of(dyadic, long_mantissa).filter(lambda x: F(1, 10) < x <= 10**8), st.integers(15, 300))
@example(F(153, 10), 300)
@example(F(1, 10) + F(1, 10**9), 15)
@example(F(10**8), 300)
@example(F(1464, 100), 30)
def test_binet_is_within_its_error_of_mpmath(x, digits):
    prec = libmp.dps_to_prec(digits)
    val, err = CothKernel().laplace(x, prec)
    ref = binet_reference(x)
    with mp.workdps(400):
        assert abs(val - ref) <= err
        # the bound past the final rounding is far below it
        assert err <= 6 * abs(val) * mp.mpf(2) ** -prec


@pytest.mark.parametrize("x", [F(1, 10), F(153, 10), 10**8])
def test_binet_evaluates_no_gamma_function(monkeypatch, x):
    from mpmath.libmp import gammazeta

    def refuse(*args, **kwargs):
        raise AssertionError("a Gamma function or its Taylor table was evaluated")

    for name in ("gamma_taylor_coefficients", "mpf_gamma", "mpf_loggamma"):
        monkeypatch.setattr(gammazeta, name, refuse)
    monkeypatch.setattr(libmp, "mpf_loggamma", refuse)
    val, err = CothKernel().laplace(x, libmp.dps_to_prec(777))  # a precision no other test uses
    assert err < abs(val) * mp.mpf(2) ** -2500


def test_cli_stirling_sum_at_1000_digits_is_fast_and_within_its_error():
    # one fresh process, so no table is warm: the whole verb at 1000 digits
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    with time_budget(3.0):
        out = subprocess.run(
            [sys.executable, "-m", "tsr.cli", "sum", "#stirling", "15.3", "--prec", "1000"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    value, bound = re.fullmatch(r"(\S+)  \(error <= (\S+)\)\n", out).groups()
    # the verb prints 20 digits, and its bound covers that rounding
    ref = binet_reference(F(153, 10), digits=60)
    with mp.workdps(60):
        assert abs(mp.mpf(value) - ref) <= mp.mpf(bound)
