"""Shared immutable values: concurrent demand of memoized streams is safe."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F
from math import factorial

from tsr.surreal import omega
from tsr.transseries import PowerSeries, ts_antidiff, ts_parse


def test_power_series_memoization_race_free():
    calls = []

    def slow_coeff(l: int) -> F:
        calls.append(l)
        return F(l, l + 1)

    ps = PowerSeries(slow_coeff)
    with ThreadPoolExecutor(8) as pool:
        results = list(pool.map(lambda _: ps.coeffs(50), range(16)))
    assert all(r == results[0] for r in results)
    assert results[0][9] == F(10, 11)
    # the oracle ran at most once per index (no duplicated cache slots)
    assert sorted(set(calls)) == sorted(calls)


def test_lazy_nf_concurrent_pull():
    stream = ts_antidiff(ts_parse("exp(x)/x"))
    from tsr.operators import tau_eval

    value = tau_eval(stream, omega())
    lazy = value.merged().groups[0].stream
    with ThreadPoolExecutor(8) as pool:
        results = list(pool.map(lambda _: lazy.terms(12), range(16)))
    assert all(r == results[0] for r in results)
    assert [c for _, c in results[0][:5]] == [1, 1, 2, 6, 24]


def test_value_groups_share_tilt_powers_across_threads():
    from tsr.operators import tau_eval
    from tsr.surreal import parse_nf

    ts = ts_antidiff(ts_parse("exp(x)/x + exp(-x)/x"))
    point = parse_nf("2*w+1")
    serial = [g.stream.terms(40) for g in tau_eval(ts, point).groups]
    assert len(serial) >= 2

    # one fresh value: the threads pull its groups' streams, each thread
    # starting on a different group
    groups = tau_eval(ts, point).groups
    start = threading.Barrier(4, timeout=60)

    def pull(k: int):
        start.wait()
        order = groups[k % len(groups) :] + groups[: k % len(groups)]
        got = {id(g): g.stream.terms(40) for g in order}
        return [got[id(g)] for g in groups]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more thread switches inside the shared code
    try:
        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(pull, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 4 and all(r == serial for r in results)


def test_series_stream_pulled_race_free():
    from tsr.operators import analyze_point
    from tsr.operators.tau import eval_series_at
    from tsr.surreal import parse_nf

    def make():
        # Ei's series at 2w+1 with critical power 2: every leader sums running
        # binomial terms, and a non-integer offset keeps all of them alive
        ps = PowerSeries(lambda l: F(factorial(l - 1)))
        return eval_series_at(ps, analyze_point(parse_nf("2*w+1"), crit_power=F(2)), F(1, 2))[1]

    expected = make().terms(60)
    stream = make()
    start = threading.Barrier(4, timeout=60)

    def pull(k: int):
        start.wait()
        return [stream.terms(n) for n in range(k % 3 + 1, 61, 3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(pull, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(expected) == 60 and len(results) == 4
    for prefixes in results:
        for got in prefixes:
            assert got == expected[: len(got)]


def test_pade_coefficients_convert_race_free():
    import mpmath as mp

    from tsr.resummation import resolve_default
    from tsr.transseries import groups_of

    # the generic (11, 11) Pade kernel of the Airy series, as `tsr sum` fits
    # it: 24 rationals of up to 337 digits, poles from p = 2.02 on.  They are
    # cleared to integers when the kernel is built, and no per-precision mpf
    # copy is kept, so `value` reads nothing that is written after that
    series = groups_of(ts_parse("#airy_u"))[0].series
    points = [mp.mpf(k) / 32 for k in range(64)]
    with mp.workdps(30):  # one precision for every thread
        serial = [resolve_default(series).kernel.value(p) for p in points]
        for _ in range(5):  # the race is at first use: a fresh kernel each round
            kernel = resolve_default(series).kernel
            start = threading.Barrier(4, timeout=60)

            def evaluate(k: int):
                start.wait()
                shift = k * len(points) // 4  # each thread starts elsewhere
                got = {i: kernel.value(points[i]) for i in [*range(shift, len(points)), *range(shift)]}
                return [got[i] for i in range(len(points))]

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                with ThreadPoolExecutor(4) as pool:
                    results = list(pool.map(evaluate, range(4), timeout=120))
            finally:
                sys.setswitchinterval(interval)
            assert len(results) == 4 and all(r == serial for r in results)


def test_airy_tables_built_race_free():
    import mpmath as mp

    from reference.kernels import AiryReference

    # points in all four expansions of both sides, past the branch point too
    points = [(side, mp.mpf(k) / 8) for side in (1, -1) for k in range(1, 64) if k != 16]
    with mp.workdps(30):  # one precision for every thread
        serial = [AiryReference(side).value(p) for side, p in points]
        for _ in range(5):  # the race is at first use: fresh kernels each round
            kernels = {side: AiryReference(side) for side in (1, -1)}
            start = threading.Barrier(4, timeout=60)

            def evaluate(k: int):
                start.wait()
                shift = k * len(points) // 4  # each thread starts elsewhere
                got = {i: kernels[points[i][0]].value(points[i][1]) for i in [*range(shift, len(points)), *range(shift)]}
                return [got[i] for i in range(len(points))]

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                with ThreadPoolExecutor(4) as pool:
                    results = list(pool.map(evaluate, range(4), timeout=120))
            finally:
                sys.setswitchinterval(interval)
            assert len(results) == 4 and all(r == serial for r in results)


def test_clenshaw_curtis_tables_built_race_free():
    import importlib

    import mpmath as mp

    laplace = importlib.import_module("tsr.resummation.laplace")
    # cold keys: four precisions no other test sums at, every level of each
    keys = [(2**level, 401 + 6 * k) for k in range(4) for level in range(1, 9)]
    prec = mp.mp.prec
    results = _pull_together(lambda k: [laplace._fejer_rule(*key) for key in keys[k::4] + keys])
    assert mp.mp.prec == prec  # building the tables leaves the global precision alone
    serial = [laplace._fejer_rule.__wrapped__(*key) for key in keys]
    cached = [(m, p) for p in {p for _, p in keys} for m in range(laplace._TOP // 4 + 1)]
    assert all(laplace._cos_sin(*key) == laplace._cos_sin.__wrapped__(*key) for key in cached)
    for k, got in enumerate(results):
        assert got == [laplace._fejer_rule.__wrapped__(*key) for key in keys[k::4]] + serial


def _pull_together(pull, workers: int = 4, interval: float = 1e-6) -> list:
    """Run pull(0..workers-1) in threads released at once, with short switches."""
    start = threading.Barrier(workers, timeout=60)

    def run(k: int):
        start.wait()
        return pull(k)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(interval)
    try:
        with ThreadPoolExecutor(workers) as pool:
            results = list(pool.map(run, range(workers), timeout=120))
    finally:
        sys.setswitchinterval(previous)
    assert len(results) == workers
    return results


def test_taylor_facility_concurrent_pull():
    from tsr.operators.catalog import elementary_entry

    half = F(1, 2)
    serial = [elementary_entry("erfi_integrand", 0, 1, p=2).taylor_term(half, k) for k in range(40)]
    for _ in range(5):  # the race is in growing the polynomials: fresh each round
        taylor = elementary_entry("erfi_integrand", 0, 1, p=2).taylor_term
        results = _pull_together(lambda _: [taylor(half, k) for k in range(40)])
        assert all(r == serial for r in results)


def test_recurrence_series_concurrent_pull():
    def step(l: int, prev: F) -> F:
        return (l * prev + 1) / (l + 1)

    def build() -> PowerSeries:
        # w_1 = 1/2, then each coefficient reads the one before it from the series itself
        series = PowerSeries(lambda l: F(1, 2) if l == 1 else step(l, series.coeff(l - 1)))
        return series

    serial = build().coeffs(60)
    for _ in range(5):
        series = build()
        # each thread starts at a different index, so they grow it together
        results = _pull_together(lambda k: {l: series.coeff(l) for l in [*range(15 * k + 1, 61), *range(1, 15 * k + 1)]})
        assert all([r[l] for l in range(1, 61)] == serial for r in results)


def test_real_line_oracles_thread_safe():
    import mpmath as mp

    from tsr.operators.catalog import airy_ai_oracle, airy_bi_oracle, catalog, ei_oracle, erfi_integral_oracle

    # the five elementary entries' oracles and their first derivatives
    elementary = [
        fn
        for e in ("exp", "exp_neg", "ei_integrand", "exp_neg_over_x", "erfi_integrand")
        for fn in (catalog()[e].oracle, lambda x, e=e: catalog()[e].taylor_term(x, 1)[1])
    ]
    # 40 points each, inside every oracle's domain
    calls = [
        (oracle, [mp.mpf(k) / 4 + shift for k in range(40)])
        for oracle, shift in (
            (ei_oracle, mp.mpf(1) / 64),
            (erfi_integral_oracle, -5),
            (airy_ai_oracle, -3),
            (airy_bi_oracle, -3),
            *((fn, -mp.mpf(319) / 64) for fn in elementary),
        )
    ]
    with mp.workdps(30):  # set once; no thread touches the global precision
        serial = [[oracle(x) for x in xs] for oracle, xs in calls]
        # each thread starts at a different oracle, so all four run at once
        results = _pull_together(lambda k: [[oracle(x) for x in xs] for oracle, xs in calls[k:] + calls[:k]])
        assert mp.mp.prec == 103
    for k, got in enumerate(results):
        assert [[v._mpf_ for v in vs] for vs in got] == [[v._mpf_ for v in vs] for vs in serial[k:] + serial[:k]]


def test_catalog_is_built_once_under_threads(monkeypatch):
    import importlib

    from tsr.operators import antidiff_no

    catalog_mod = importlib.import_module("tsr.operators.catalog")
    for _ in range(5):
        monkeypatch.setattr(catalog_mod, "_CATALOG", None)  # cold: every thread finds no registry
        registries = _pull_together(lambda _: catalog_mod.catalog())
        reg = catalog_mod._CATALOG
        assert all(r is reg for r in registries)
        # the stored antiderivatives look the registry up again: the same one
        assert antidiff_no(reg["exp"]) is reg["exp"]


def test_closed_form_laplace_bit_identical_from_16_threads():
    # pole, square-root branch, log and derived kernels at two points and
    # three precisions: each thread takes every case, from a different
    # start, and no precision leaks between threads, ten rounds in a row
    from tsr.resummation import QuadratureConfig, laplace, pole_kernel, sqrt_branch_kernel
    from tsr.transseries import groups_of

    # the kernels ts_antidiff derives: a pole at -1, and log(1 - p/2) plus a polynomial
    derived = [groups_of(ts_antidiff(ts_parse(e)))[0].series.kernel.kernel for e in ("exp(-x)/x", "x*exp(2*x)*series![1, 2, 3]")]
    kernels = [pole_kernel(1), sqrt_branch_kernel(1), pole_kernel(1).p_integral(), sqrt_branch_kernel(1).p_integral(), *derived]
    cases = [(k, x, QuadratureConfig(precision=d)) for k in kernels for x in (3, 7) for d in (20, 40, 80)]

    def raw(k: int) -> list:
        out = {i: laplace(*cases[i]) for i in [*range(k, len(cases)), *range(k)]}
        return [(v._mpf_, e._mpf_) for v, e in (out[i] for i in range(len(cases)))]

    serial = raw(0)
    for _ in range(10):
        assert all(r == serial for r in _pull_together(raw, workers=16))


def test_binet_laplace_bit_identical_from_16_threads():
    # Binet's function at three points and four precisions, from 1/10 to
    # 10^8 (where the guard bits double): each thread takes every case from
    # a different start, the threads run before the serial reference, and no
    # precision leaks between threads or into the context, ten rounds in a row
    import mpmath as mp
    from mpmath import libmp

    from tsr.resummation import CothKernel

    kernel = CothKernel()
    cases = [(x, libmp.dps_to_prec(d)) for x in (F(1, 10), 3, 10**8) for d in (15, 30, 50, 100)]

    def raw(k: int) -> list:
        start = k % len(cases)
        out = {i: kernel.laplace(*cases[i]) for i in [*range(start, len(cases)), *range(start)]}
        return [(v._mpf_, e._mpf_) for v, e in (out[i] for i in range(len(cases)))]

    prec = mp.mp.prec
    rounds = [_pull_together(raw, workers=16) for _ in range(10)]
    serial = raw(0)
    assert all(r == serial for results in rounds for r in results)
    assert mp.mp.prec == prec


def test_binet_laplace_bit_identical_from_16_threads_at_1000_digits(monkeypatch):
    # the same three points at 1000 digits, where the Stirling sum needs
    # about 290 tangent numbers: each round starts from a one-entry table,
    # so the threads race to grow it while they sum, and the serial
    # reference runs after them
    import mpmath as mp
    from mpmath import libmp

    from tsr.resummation import CothKernel, special

    kernel = CothKernel()
    cases = [(x, libmp.dps_to_prec(1000)) for x in (F(1, 10), 3, 10**8)]

    def raw(k: int) -> list:
        start = k % len(cases)
        out = {i: kernel.laplace(*cases[i]) for i in [*range(start, len(cases)), *range(start)]}
        return [(v._mpf_, e._mpf_) for v, e in (out[i] for i in range(len(cases)))]

    prec = mp.mp.prec
    rounds = []
    for _ in range(3):
        monkeypatch.setattr(special, "_tangent", (1,))
        rounds.append(_pull_together(raw, workers=16))
    serial = raw(0)
    assert all(r == serial for results in rounds for r in results)
    assert mp.mp.prec == prec


def test_loggamma_taylor_bit_identical_from_16_threads(monkeypatch):
    # log Gamma's Taylor terms 1..16 at three points and three precisions,
    # and at 1000 digits at one, and Binet's function (row 0 of the same
    # Euler-Maclaurin sum) at 1000 digits at three points: the round starts
    # from a one-entry tangent table and no cached shift, so the threads
    # race to build both while they sum, and the serial reference runs
    # after them
    import mpmath as mp
    from mpmath import libmp

    from tsr.resummation import CothKernel, special

    def taylor(q, prec):
        return lambda: special.loggamma_taylor(libmp.from_rational(q.numerator, q.denominator, prec), 16, prec)

    def binet(x, prec):
        return lambda: tuple(v._mpf_ for v in CothKernel().laplace(x, prec))

    cases = [taylor(x, libmp.dps_to_prec(d)) for x in (F(1, 10), F(29, 8), F(10**8)) for d in (15, 50, 300)]
    cases.append(taylor(F(29, 8), libmp.dps_to_prec(1000)))
    cases += [binet(x, libmp.dps_to_prec(1000)) for x in (F(1, 10), 3, 10**8)]

    def raw(k: int) -> list:
        start = k % len(cases)
        out = {i: cases[i]() for i in [*range(start, len(cases)), *range(start)]}
        return [out[i] for i in range(len(cases))]

    prec = mp.mp.prec
    monkeypatch.setattr(special, "_tangent", (1,))
    special._em_shift.cache_clear()
    results = _pull_together(raw, workers=16)
    serial = raw(0)
    assert all(r == serial for r in results)
    assert mp.mp.prec == prec


def test_airy_laplace_bit_identical_from_16_threads():
    # both Airy Borel sums at three points and four precisions: 1/2 and 15
    # through the series of I_(+-1/3), 10^6 through the asymptotic series;
    # each thread takes every case from a different start, the threads run
    # before the serial reference, and no precision leaks between threads or
    # into the context, ten rounds in a row
    import mpmath as mp
    from mpmath import libmp

    from tsr.resummation import AiryKernel

    kernels = {side: AiryKernel(side) for side in (1, -1)}
    cases = [(side, x, libmp.dps_to_prec(d)) for side in (1, -1) for x in (F(1, 2), 15, 10**6) for d in (15, 30, 50, 100)]

    def raw(k: int) -> list:
        start = k % len(cases)
        out = {i: kernels[cases[i][0]].laplace(*cases[i][1:]) for i in [*range(start, len(cases)), *range(start)]}
        return [(v._mpf_, e._mpf_) for v, e in (out[i] for i in range(len(cases)))]

    prec = mp.mp.prec
    rounds = [_pull_together(raw, workers=16) for _ in range(10)]
    serial = raw(0)
    assert all(r == serial for results in rounds for r in results)
    assert mp.mp.prec == prec


def test_pade_poles_bit_identical_from_16_threads():
    # the exact pole search of the #ei + #erfi fit (11 poles on [1, 54]) at
    # four precisions, each thread taking them in a different order, on a
    # fresh kernel each round so that every search starts cold
    from tsr.resummation import resolve_default
    from tsr.resummation.kernels import positive_roots
    from tsr.transseries import groups_of

    series = groups_of(ts_parse("#ei + #erfi"))[0].series
    precs = (53, 83, 113, 170)
    serial = [positive_roots(resolve_default(series).kernel.den, p) for p in precs]
    assert all(len(poles) == 11 for poles in serial)
    for _ in range(3):
        kernel = resolve_default(series).kernel
        results = _pull_together(lambda k: [positive_roots(kernel.den, precs[(k + i) % 4]) for i in range(4)], workers=16)
        assert all(got == [serial[(k + i) % 4] for i in range(4)] for k, got in enumerate(results))


def test_eb_sum_and_eb_value_bit_identical_from_16_threads():
    # kernel groups, finite groups and log parts under eb_sum, and the
    # prefactors, ln(2 pi) terms, exponential and rounded critical times
    # under eb_value, at four precisions: each thread takes every case from
    # a different start, so the precisions mix, and no thread's precision
    # reaches another's results, five rounds in a row
    import mpmath as mp

    from tsr.operators import catalog
    from tsr.resummation import QuadratureConfig, eb_sum

    exprs = ("#ei", "x*exp(x)*#ei + log(x)*x^2 - 3", "exp(-x)*x^(1/3)*#erfi", "#stirling + x^2*log(x)", "exp(-2*x)*(1/x + 2/x^2) + #airy_u_alt")  # fmt: skip
    digits = (15, 30, 50, 100)
    sums = [(ts_parse(e), x, QuadratureConfig(precision=d)) for e in exprs for x in (3, F(31, 3), 7.25) for d in digits]
    values = [(name, QuadratureConfig(precision=d)) for name in ("ei", "erfi_integral", "loggamma", "gamma", "airy_ai", "airy_bi") for d in digits]
    cases = [lambda c=c: eb_sum(*c) for c in sums] + [lambda v=v: catalog()[v[0]].eb_value(F(37, 3), v[1]) for v in values]

    def raw(k: int) -> list:
        start = k * len(cases) // 16
        out = {i: cases[i]() for i in [*range(start, len(cases)), *range(start)]}
        return [(v._mpf_, e._mpf_) for v, e in (out[i] for i in range(len(cases)))]

    prec = mp.mp.prec
    serial = raw(0)
    for _ in range(5):
        assert all(r == serial for r in _pull_together(raw, workers=16))
    assert mp.mp.prec == prec
