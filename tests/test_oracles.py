"""Real-line oracles: the Ei constants memo and Gamma's Taylor terms."""

import contextlib
import io
import sys
import threading
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsr.cli import run
from tsr.operators.catalog import EiOracle, catalog, gamma_oracle


def uncached_ei(x):
    """The Ei oracle's formula with every quadrature done on each call."""
    x = mp.mpf(x)

    def expm1_over(s):
        return mp.expm1(s) / s if s != 0 else mp.mpf(1)

    left = mp.quad(lambda u: -mp.exp(-u) / u, [1, mp.inf])
    if x >= 1:
        mid = mp.quad(expm1_over, [-1, 0, 1])
        right = mp.quad(lambda s: mp.exp(s) / s, [1, x]) if x > 1 else mp.mpf(0)
        return left + mid + right
    mid = mp.quad(expm1_over, [-1, 0, x])
    return left + mid + mp.log(x)


def nested_in_quad(fn, x):
    """fn(x) evaluated once from inside an mp.quad integrand (20 bits higher)."""
    got = []

    def integrand(s):
        if not got:
            got.append(fn(x))
        return s

    mp.quad(integrand, [0, 1])
    return got[0]


# x on the 1/64 grid in (0, 20], half of the draws in the x <= 1 branch
POINTS = st.one_of(st.integers(1, 64), st.integers(65, 20 * 64)).map(lambda n: F(n, 64))
PRECISIONS = st.lists(st.tuples(st.sampled_from((15, 30, 50)), st.sampled_from((0, 20, 40))), min_size=1, max_size=3)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(xs=st.lists(POINTS, min_size=1, max_size=3), precisions=PRECISIONS)
@example(xs=[F(1)], precisions=[(30, 20)])  # x = 1: no per-call quadrature at all
def test_ei_oracle_bit_identical_to_uncached_formula(xs, precisions):
    ei_oracle = EiOracle()  # a cold memo, filled in this example's order
    for dps, extra in precisions:
        with mp.workdps(dps):
            mp.mp.prec += extra
            for q in xs:
                x = mp.mpf(q.numerator) / q.denominator
                assert ei_oracle(x)._mpf_ == uncached_ei(x)._mpf_
            q = xs[0]
            x = mp.mpf(q.numerator) / q.denominator
            assert nested_in_quad(ei_oracle, x)._mpf_ == nested_in_quad(uncached_ei, x)._mpf_


def test_ei_constants_cold_memo_race_matches_serial():
    prec = mp.libmp.dps_to_prec(30)
    serial = tuple(v._mpf_ for v in EiOracle().constants(prec))
    oracle = EiOracle()
    start = threading.Barrier(4)
    results = [None] * 4

    def worker(i):
        start.wait()
        mp.mp.prec = 53 + 30 * i  # the threads move the global precision meanwhile
        results[i] = tuple(v._mpf_ for v in oracle.constants(prec))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with mp.workprec(53):  # restores the global precision the threads changed
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert results == [serial] * 4
    assert tuple(v._mpf_ for v in oracle.constants(prec)) == serial


@pytest.mark.parametrize("x0", [F(5, 2), F(3), F(47, 16)])
def test_gamma_taylor_terms_match_numeric_derivatives(x0):
    gamma = catalog()["gamma"]
    with mp.workdps(50):
        x = mp.mpf(x0.numerator) / x0.denominator
        assert gamma.taylor_term(x0, 0) == ("num", gamma_oracle(x))
        for k in range(1, 9):
            kind, got = gamma.taylor_term(x0, k)
            want = mp.diff(mp.gamma, x, k) / mp.factorial(k)
            assert kind == "num"
            assert abs(got / want - 1) < mp.mpf(10) ** -45


def test_gamma_taylor_computes_each_log_gamma_term_once(monkeypatch):
    # terms 0..11 need psi(0..10) once each, not l_1..l_k again for every k
    calls = []
    psi = mp.psi
    monkeypatch.setattr(mp, "psi", lambda m, x: calls.append(m) or psi(m, x))
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["eval", "gamma", "29/8+w^-1", "--terms", "12", "--prec", "50"]) == 0
    assert sorted(calls) == list(range(11))
