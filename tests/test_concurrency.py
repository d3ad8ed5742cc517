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

    ps = PowerSeries.from_fn(slow_coeff)
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
        ps = PowerSeries.from_fn(lambda l: F(factorial(l - 1)))
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
    # it: 24 rationals of up to 337 digits, poles from p = 2.02 on
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

    from tsr.resummation import AiryKernel

    # points in all four expansions of both sides, past the branch point too
    points = [(side, mp.mpf(k) / 8) for side in (1, -1) for k in range(1, 64) if k != 16]
    with mp.workdps(30):  # one precision for every thread
        serial = [AiryKernel(side).lateral(p, 1) for side, p in points]
        for _ in range(5):  # the race is at first use: fresh kernels each round
            kernels = {side: AiryKernel(side) for side in (1, -1)}
            start = threading.Barrier(4, timeout=60)

            def evaluate(k: int):
                start.wait()
                shift = k * len(points) // 4  # each thread starts elsewhere
                got = {i: kernels[points[i][0]].lateral(points[i][1], 1) for i in [*range(shift, len(points)), *range(shift)]}
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
    results = _pull_together(lambda k: [laplace._cc_rule(*key) for key in keys[k::4] + keys])
    assert mp.mp.prec == prec  # building the tables leaves the global precision alone
    serial = [laplace._cc_rule.__wrapped__(*key) for key in keys]
    assert all(laplace._cc_cosines(p) == laplace._cc_cosines.__wrapped__(p) for p in {p for _, p in keys})
    for k, got in enumerate(results):
        assert got == [laplace._cc_rule.__wrapped__(*key) for key in keys[k::4]] + serial


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
    from tsr.operators.catalog import _erfi_integrand_entry

    half = F(1, 2)
    serial = [_erfi_integrand_entry().taylor_term(half, k) for k in range(40)]
    for _ in range(5):  # the race is in growing the polynomials: fresh each round
        taylor = _erfi_integrand_entry().taylor_term
        results = _pull_together(lambda _: [taylor(half, k) for k in range(40)])
        assert all(r == serial for r in results)


def test_recurrence_series_concurrent_pull():
    def step(l: int, prev: F) -> F:
        return (l * prev + 1) / (l + 1)

    serial = PowerSeries.from_recurrence(F(1, 2), step).coeffs(60)
    for _ in range(5):
        series = PowerSeries.from_recurrence(F(1, 2), step)
        # each thread starts at a different index, so they grow it together
        results = _pull_together(lambda k: {l: series.coeff(l) for l in [*range(15 * k + 1, 61), *range(1, 15 * k + 1)]})
        assert all([r[l] for l in range(1, 61)] == serial for r in results)


def test_quadrature_nodes_race_free():
    import importlib

    import mpmath as mp

    nodes = importlib.import_module("tsr.resummation.laplace")._standard_nodes
    # cold keys: precisions no other test sums at, one per thread; tanh-sinh
    # only, whose node loop is bounded (Gauss-Legendre's Newton iteration may
    # not end at a precision another thread set)
    keys = [("tanh-sinh", degree, 211 + 6 * k) for k in range(4) for degree in range(1, 6)]
    prec = mp.mp.prec
    results = _pull_together(lambda k: [nodes(*key) for key in keys[k::4] + keys])
    assert mp.mp.prec == prec  # building nodes leaves the global precision alone
    serial = [nodes.__wrapped__(*key) for key in keys]
    for k, got in enumerate(results):
        assert got == [nodes.__wrapped__(*key) for key in keys[k::4]] + serial


def test_real_line_oracles_thread_safe():
    import mpmath as mp

    from tsr.operators.catalog import airy_ai_oracle, airy_bi_oracle, ei_oracle, erfi_integral_oracle

    # 40 points each, inside every oracle's domain
    calls = [
        (oracle, [mp.mpf(k) / 4 + shift for k in range(40)])
        for oracle, shift in ((ei_oracle, mp.mpf(1) / 64), (erfi_integral_oracle, -5), (airy_ai_oracle, -3), (airy_bi_oracle, -3))
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
