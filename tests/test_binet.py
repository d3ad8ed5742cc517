"""Binet's function as a shifted Stirling series, and its Bernoulli numbers.

``CothKernel.laplace`` (through ``special.binet``) sums J(x) = ln Gamma(x) -
(x - 1/2) ln x + x - ln(2 pi)/2 with no Gamma function, as row 0 of the
Euler-Maclaurin tails (``special._em_tails``) whose rows 1..K are log
Gamma's Taylor terms, over the tangent numbers that
``coefficients.bernoulli`` reads too.  These tests check them against
independent references: the Bernoulli recurrence, exact rational sums of
the tails and mpmath's ``loggamma``.
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


def exact(v) -> F:
    """A raw mpf as a Fraction."""
    return F(*libmp.to_rational(v))


def tail_term(s: int, i: int, X: F) -> F:
    """Term i of the tail H_s at X: B_2i C(s+2i-2, 2i-1) / (2i X^(2i)), and
    B_2i / (2i (2i-1) X^(2i)) in row 0."""
    c = F(1, 2 * i - 1) if s == 0 else comb(s + 2 * i - 2, 2 * i - 1)
    return bernoulli(2 * i) * c / (2 * i * X ** (2 * i))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(30, 600), st.integers(0, 2**12), st.integers(0, 12), st.booleans())
@example(60, 0, 0, True)
@example(600, 2**12, 12, False)
def test_em_tails_rows_are_within_their_bounds_of_the_exact_sums(bits, m, e, alone):
    # rows 0..16 at one shift, or row 0 alone at binet's: each row, summed
    # in integers, lies within its bound of the exact sum of its terms, and
    # the first term left out at X0 is below the row's target
    rows = range(1) if alone else range(17)
    X0, terms = special._em_shift(bits, rows)
    X = X0 + F(m, 2**e)
    tails = special._em_tails(libmp.from_man_exp(X0 * 2**e + m, -e), rows, terms, bits)  # X, exactly
    for s, M, (H, bound) in zip(rows, terms, tails):
        assert abs(exact(H) - sum(tail_term(s, i, X) for i in range(1, M + 1))) <= exact(bound)
        assert exact(bound) < F(1, 2 ** (bits - 2))
        left_out = abs(tail_term(s, M + 1, F(X0))) * (X0 if s == 0 else 1)
        assert left_out < F(1, 2 ** (bits + s.bit_length() + 1))
    # row 0 is the Stirling series of Binet's function: X H_0 = sum(B_2i / (2i (2i-1) X^(2i-1)))
    stirling = sum(bernoulli(2 * i) / (2 * i * (2 * i - 1) * X ** (2 * i - 1)) for i in range(1, terms[0] + 1))
    assert abs(X * exact(tails[0][0]) - stirling) <= X * exact(tails[0][1])


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
