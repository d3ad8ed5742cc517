"""Acceptance criteria, one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance is pinned here, none deferred.
"""

import random
import time
from fractions import Fraction as F

import mpmath as mp
import pytest
from conftest import STRICT_CFG, QuadratureOnly
from reference.resummation import convolve
from reference.signs import all_sign_expansions, genetic_add, genetic_mul, sign_value

from tsr.coefficients import airy_u, stirling_coeff
from tsr.operators import antidiff_no, catalog, extend, integrate
from tsr.resummation import (
    CothKernel,
    average_consistency_check,
    borel_transform,
    catalan_weight,
    catalan_weight_literal,
    laplace,
    sqrt_branch_kernel,
)
from tsr.surreal import SurrealNF, omega, one
from tsr.transseries import PowerSeries, eq_to_order, ts_antidiff, ts_diff, ts_parse

CFG = STRICT_CFG  # abs 1e-13, rel 1e-11; the law_reports fixture runs at it too


def report(n: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_ei_resummation():
    """e^-x eb_sum(Ei) vs the series oracle (gamma + ln x + sum x^k/(k k!)) at x in {4, 8, 16}."""
    ei = catalog()["ei"]
    worst = mp.mpf(0)
    slowest = 0.0
    # warm the oracle side separately; the timed part is each resummation
    with mp.workdps(60):
        refs = {x: ei.oracle(mp.mpf(x)) * mp.exp(-x) for x in (4, 8, 16)}
    for x in (4, 8, 16):
        t0 = time.perf_counter()
        val, _ = ei.eb_value(x, CFG)
        dt = time.perf_counter() - t0
        slowest = max(slowest, dt)
        with mp.workdps(60):
            rel = abs(val * mp.exp(-x) - refs[x]) / abs(refs[x])
        worst = max(worst, rel)
    ok = worst < 1e-8 and slowest < 1.0
    report(1, ok, f"Ei rel err {mp.nstr(worst, 3)} (tol 1e-8), slowest eval {slowest:.2f}s (< 1 s)")


def test_criterion_2_erfi_identity():
    """(x/2) e^(x^2) int_0^1 e^(-x^2 p)/sqrt(1-p) dp = int_0^x e^(s^2) ds."""
    worst = mp.mpf(0)
    with mp.workdps(CFG.precision):
        for x in (1, 2, 3):
            x = mp.mpf(x)
            t = x * x
            half_kernel, _ = laplace(sqrt_branch_kernel(1, F(1, 2)), t, CFG)
            lhs = x * mp.exp(t) * half_kernel
            rhs = mp.quad(lambda s: mp.exp(s * s), [0, x])
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    report(2, worst < 1e-10, f"erfi identity rel err {mp.nstr(worst, 3)} (tol 1e-10)")


def test_criterion_3_airy():
    """Optimal truncation at z = 5 within twice the first omitted term;
    u-coefficients match the DLMF recurrence exactly to k = 20."""
    exact_u = all(
        airy_u(k) == airy_u(k - 1) * F((6 * k - 5) * (6 * k - 3) * (6 * k - 1), 216 * k * (2 * k - 1))
        for k in range(1, 21)
    ) and airy_u(0) == 1 and airy_u(1) == F(5, 72)

    ok_trunc = True
    details = []
    with mp.workdps(50):
        z = mp.mpf(5)
        zeta = mp.mpf(2) / 3 * z ** mp.mpf(1.5)
        for kind in ("ai", "bi"):
            entry = catalog()[f"airy_{kind}"]
            ref = entry.oracle(z)
            sign = -1 if kind == "ai" else 1
            scale = 1 / (2 * mp.sqrt(mp.pi)) if kind == "ai" else 1 / mp.sqrt(mp.pi)
            pre = scale * z ** mp.mpf(-0.25) * mp.exp(sign * zeta)
            # series in the critical time; stop at the smallest term
            total = mp.mpf(0)
            k = 0
            prev_term = None
            while True:
                u = airy_u(k)
                term = pre * mp.mpf(u.numerator) / u.denominator * (sign * 1 / zeta) ** k
                if prev_term is not None and abs(term) >= abs(prev_term):
                    break
                total += term
                prev_term = term
                k += 1
            omitted = abs(term)
            err = abs(total - ref)
            ok_trunc = ok_trunc and err <= 2 * omitted
            details.append(f"{kind}: |err| {mp.nstr(err, 2)} <= 2*{mp.nstr(omitted, 2)}")
    report(3, exact_u and ok_trunc, f"u-recurrence exact to k=20; {'; '.join(details)}")


def test_criterion_4_loggamma():
    """Kernel quadrature (the closed form hidden) matches exact log((x-1)!) to
    1e-10 at x in {5, 10}; leading Stirling coefficient 1/12; optimal
    truncation within the first omitted term at x = 10."""
    ok = stirling_coeff(1) == F(1, 12)
    worst = mp.mpf(0)
    with mp.workdps(CFG.precision):
        for x in (5, 10):
            x = mp.mpf(x)
            tail, _ = laplace(QuadratureOnly(CothKernel()), x, CFG)
            val = x * (mp.log(x) - 1) - mp.log(x / (2 * mp.pi)) / 2 + tail
            exact = mp.log(mp.factorial(int(x) - 1))
            worst = max(worst, abs(val - exact) / max(1, abs(exact)))
        ok = ok and worst < 1e-10

        x = mp.mpf(10)
        head = x * (mp.log(x) - 1) - mp.log(x / (2 * mp.pi)) / 2
        exact = mp.log(mp.factorial(9))
        total = mp.mpf(0)
        n = 0
        prev = None
        while True:
            a = stirling_coeff(2 * n + 1)
            term = mp.mpf(a.numerator) / a.denominator * x ** (-(2 * n + 1))
            if prev is not None and abs(term) >= abs(prev):
                break
            total += term
            prev = term
            n += 1
        trunc_err = abs(head + total - exact)
        ok = ok and trunc_err <= abs(term)
    report(
        4,
        ok,
        f"kernel quadrature rel err {mp.nstr(worst, 3)} (tol 1e-10); "
        f"optimal truncation err {mp.nstr(trunc_err, 2)} <= omitted {mp.nstr(abs(term), 2)}",
    )


def test_criterion_5_surreal_exp_and_ei():
    """`integrate exp 0 omega` prints w^w - 1; the Ei normal form carries
    1, 1, 2, 6, 24 at exponents w-1 .. w-5, exactly."""
    text = integrate(catalog()["exp"], 0, omega(), 4).render(4)
    ok = text == "w^w - 1"

    v = extend(antidiff_no(catalog()["ei_integrand"]), omega(), 5)
    got = v.exact_nf(5)
    w = omega()
    expected = SurrealNF.zero()
    for k, c in enumerate([1, 1, 2, 6, 24]):
        expected = expected + SurrealNF.monomial(w - SurrealNF.from_rational(k + 1), c)
    ok = ok and got == expected
    report(5, ok, f"integrate exp 0 omega -> {text!r}; Ei terms exact {got == expected}")


def test_criterion_6_round_trip():
    """200 randomized T1 transseries: ts_diff(ts_antidiff(T)) = T exactly to
    order 16, in under 30 seconds."""
    from test_transseries import random_t1

    rng = random.Random(20260810)
    t0 = time.perf_counter()
    count = 0
    for _ in range(200):
        a = random_t1(rng)
        assert eq_to_order(ts_diff(ts_antidiff(a)), a, 16)
        count += 1
    dt = time.perf_counter() - t0
    report(6, count == 200 and dt < 30.0, f"{count} round trips exact to order 16 in {dt:.1f}s (< 30 s)")


def test_criterion_7_genetic_oracle():
    """Exhaustive genetic-vs-dyadic agreement: add to birthday 5, mul to 4."""
    xs5 = list(all_sign_expansions(5))
    ok = all(
        sign_value(genetic_add(a, b)) == sign_value(a) + sign_value(b) for a in xs5 for b in xs5
    )
    xs4 = list(all_sign_expansions(4))
    ok = ok and all(
        sign_value(genetic_mul(a, b)) == sign_value(a) * sign_value(b) for a in xs4 for b in xs4
    )
    report(7, ok, f"add exhaustive on {len(xs5)}^2 pairs, mul on {len(xs4)}^2 pairs, exact")


def test_criterion_8_borel_homomorphism():
    """B(f g) = B(f) * B(g) exactly to order 20 on 100 random pairs."""
    rng = random.Random(8)
    ok = True
    for _ in range(100):
        s = PowerSeries.from_coeffs([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(21)])
        t = PowerSeries.from_coeffs([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(21)])
        lhs = borel_transform(s.mul(t), 20)
        rhs = convolve(borel_transform(s, 20), borel_transform(t, 20))
        ok = ok and all(lhs.coeff(k) == rhs.coeff(k) for k in range(21))
    report(8, ok, "100 random pairs, coefficients equal to order 20, exact rationals")


def test_criterion_9_averaging_consistency():
    """The shipped family is consistent to length 10 with total mass one;
    the literal formula's n = 1 failure is reproduced."""
    rep = average_consistency_check(10, catalan_weight, "catalan")
    mass_ok = all(m == 1 for m in rep.total_mass.values())
    lit = average_consistency_check(2, catalan_weight_literal, "literal")
    diagnosed = (not lit.passed) and lit.first_failure == "(empty)" and lit.lhs == F(1, 2)
    ok = rep.passed and mass_ok and diagnosed
    report(
        9,
        ok,
        f"catalan consistent to n=10, mass 1 at every length; literal formula fails at n=1 "
        f"(children sum {lit.lhs} != {lit.rhs})",
    )


def test_criterion_10_operator_laws(law_reports):
    """Dd2 (i)-(vi), extension laws (i)-(iv), integral laws (a)-(g), at CFG."""
    suites = [law_reports["antidiff"], law_reports["extension"], law_reports["integral"]]
    ok = all(s.passed for s in suites)
    detail = "; ".join(
        f"{s.suite}: {sum(1 for _, good, _ in s.results if good)}/{len(s.results)}" for s in suites
    )
    if not ok:
        detail += " || " + " | ".join(line for s in suites for line in s.lines() if "FAIL" in line)
    report(10, ok, detail)
