"""The Borel-kernel registry: every #name carries its kernel, and scaling
series and adding multiples of one series carry it through, exactly."""

import contextlib
import importlib
import io
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsr.cli import run
from tsr.coefficients import NAMED_SERIES, named_series, series_name
from tsr.operators import antidiff_no, catalog
from tsr.resummation import (
    AiryKernel,
    ClosedFormKernel,
    CothKernel,
    PadeKernel,
    QuadratureConfig,
    borel_transform,
    eb_sum,
    pole_kernel,
    sqrt_branch_kernel,
)
from tsr.transseries import ts_antidiff, ts_from_json, ts_parse, ts_to_json
from tsr.transseries.grid import groups_of

NAMED_KERNELS = {
    "ei": ClosedFormKernel,
    "erfi": ClosedFormKernel,
    "stirling": CothKernel,
    "airy_u": AiryKernel,
    "airy_u_alt": AiryKernel,
}
#: Catalog entry -> kernel class of each of its groups (None: a finite
#: series, summed directly).
CATALOG_KERNELS = {
    "exp": [None],
    "exp_neg": [None],
    "ei_integrand": [None],
    "ei": [ClosedFormKernel],
    "erfi_integrand": [None],
    "erfi_integral": [ClosedFormKernel],
    "airy_ai": [AiryKernel],
    "airy_bi": [AiryKernel],
    "loggamma": [CothKernel],
    "gamma": [],
    "exp_neg_over_x": [None],
}
CLOSED_FORMS = ("ei", "erfi", "stirling", "airy_u", "airy_u_alt")


def kernel_classes(ts):
    return [None if g.series.kernel is None else type(g.series.kernel.kernel) for g in groups_of(ts)]


@pytest.mark.parametrize("name", NAMED_SERIES)
def test_named_series_kernel(name):
    entry = named_series(name).kernel
    assert type(entry.kernel) is NAMED_KERNELS[name]
    assert entry.m == 0
    # ts_parse keeps the registered series itself, so its sum reads the kernel
    (group,) = groups_of(ts_parse(f"#{name}"))
    assert group.series is named_series(name)


def test_every_name_has_an_expected_kernel():
    assert sorted(NAMED_KERNELS) == sorted(NAMED_SERIES)
    assert sorted(CATALOG_KERNELS) == sorted(catalog())


@pytest.mark.parametrize("name", sorted(CATALOG_KERNELS))
def test_catalog_group_kernels(name):
    ts = catalog()[name].transseries
    assert (kernel_classes(ts) if ts is not None else []) == CATALOG_KERNELS[name]


def test_antiderivative_groups_carry_derived_kernels():
    anti = antidiff_no(catalog()["exp_neg_over_x"])
    assert kernel_classes(anti.transseries) == [ClosedFormKernel]
    assert groups_of(anti.transseries)[0].series.kernel.kernel.name == "anti(-1)"


def test_ts_antidiff_attaches_the_derived_kernel():
    (group,) = groups_of(ts_antidiff(ts_parse("exp(x)/x")))
    assert "kernel" not in vars(group.series)  # built on first read only
    assert (group.series.kernel.kernel.name, group.series.kernel.m) == ("anti(1)", 1)
    val, err = eb_sum(ts_antidiff(ts_parse("exp(x)/x")), 10, QuadratureConfig(precision=30))
    with mp.workdps(30):
        assert abs(val - mp.ei(10)) <= max(err, mp.mpf(10) ** -10 * mp.ei(10))


def test_scaled_series_share_the_registered_kernel():
    scaled = groups_of(ts_parse("3*#ei"))[0].series.kernel
    assert scaled.kernel is named_series("ei").kernel.kernel and (scaled.m, scaled.c) == (0, 3)
    # multiples of one kernel merge into one multiple of it
    merged = groups_of(ts_parse("2*#stirling + 3*#stirling"))[0].series.kernel
    assert merged.c == 5 and merged.kernel is named_series("stirling").kernel.kernel
    # a sum of different kernels and any other series operation drop the kernel
    assert groups_of(ts_parse("3*#ei - 1/2*#stirling"))[0].series.kernel is None
    assert groups_of(ts_parse("#ei*#ei"))[0].series.kernel is None


def test_parse_and_borel_fit_nothing(monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("a Pade fit was made")

    monkeypatch.setattr(importlib.import_module("tsr.resummation.laplace"), "pade_continue", no_fit)
    series = groups_of(ts_parse("#airy_u + 2*#airy_u_alt - #ei"))[0].series
    assert "kernel" not in vars(series)  # built on first read only
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["borel", "#airy_u_alt + #airy_u", "--order", "8"]) == 0


def test_catalog_fits_no_pade(monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("a Pade fit was made")

    for module in ("tsr.resummation.laplace", "tsr.resummation.kernels"):
        monkeypatch.setattr(importlib.import_module(module), "pade_continue", no_fit)
    # a fresh catalog over fresh series, whose kernels are all built here
    catalog_mod = importlib.import_module("tsr.operators.catalog")
    monkeypatch.setattr(catalog_mod, "named_series", named_series.__wrapped__)
    monkeypatch.setattr(catalog_mod, "_CATALOG", None)
    fresh = catalog_mod.catalog()
    series = [g.series for e in fresh.values() if e.transseries is not None for g in groups_of(e.transseries)]
    assert not any(s is named_series(name) for s in series for name in NAMED_SERIES)
    assert all(s.kernel is not None for s in series if not s.is_finite())
    for name in ("airy_ai", "airy_bi"):
        fresh[name].eb_value(3, QuadratureConfig(precision=15))


def test_json_round_trip_keeps_the_registered_series():
    for name in ("ei", "airy_ai", "loggamma"):
        ts = catalog()[name].transseries
        back = ts_from_json(ts_to_json(ts))
        assert [series_name(g.series) for g in groups_of(back)] == [series_name(g.series) for g in groups_of(ts)]
        assert kernel_classes(back) == kernel_classes(ts)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    st.fractions(-5, 5, max_denominator=6).filter(bool),
    st.fractions(-5, 5, max_denominator=6).filter(bool),
    st.sampled_from(CLOSED_FORMS),
    st.sampled_from(CLOSED_FORMS),
)
def test_combined_kernel_taylor_is_the_borel_transform(c, d, a, b):
    (group,) = groups_of(ts_parse(f"{c}*#{a} + {d}*#{b}"))
    series = group.series
    if a != b:
        assert series.kernel is None  # summed through a Pade fit
        return
    entry = series.kernel
    assert entry.kernel is named_series(a).kernel.kernel and entry.c == c + d
    assert [entry.c * t for t in entry.kernel.taylor(20)] == list(borel_transform(series, 20).coeffs)


def fresh_kernels():
    return [
        pole_kernel(1),
        sqrt_branch_kernel(1, F(1, 2)),
        sqrt_branch_kernel(1, F(1, 2)).p_integral(1),
        CothKernel(),
        pole_kernel(F(7, 3)).p_integral(1),
        PadeKernel([F(1), F(1, 3)], [F(1), F(-1, 2), F(1, 5)]),
        AiryKernel(1),
        AiryKernel(-1),
    ]


@pytest.mark.parametrize("index", range(8))
def test_per_precision_constants_follow_the_precision(index):
    # one instance evaluated at 30 digits, then at 50, equals a fresh one at 50
    points = [mp.mpf(v) / 7 for v in (1, 3, 6, 9, 15, 40)] + [mp.mpf("0.03")]
    used = fresh_kernels()[index]
    with mp.workdps(30):
        for p in points:
            used.value(p)
            used.lateral(p, 1)
    with mp.workdps(50):
        fresh = fresh_kernels()[index]
        for p in points:
            p = mp.mpf(p)
            assert used.value(p) == fresh.value(p)
            assert used.lateral(p, -1) == fresh.lateral(p, -1)
        if index < 3:
            for u in points[:3]:
                assert used.usub_value(u) == fresh.usub_value(u)


def test_erfi_sum_is_the_closed_form():
    # L[(1-p)^(-1/2)/2](x) = e^(-x) sqrt(pi/x) erfi(sqrt(x)) / 2
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run(["sum", "#erfi", "5", "--prec", "30", "--json"]) == 0
    val, err = eb_sum(ts_parse("#erfi"), 5, QuadratureConfig(precision=30))
    with mp.workdps(50):
        exact = mp.exp(-5) * mp.sqrt(mp.pi / 5) * mp.erfi(mp.sqrt(5)) / 2
        assert abs(val - exact) <= err
    assert '"error_estimate"' in buf.getvalue()


def test_manifest_growth_is_each_kernels_growth():
    # the (c1, c3) the manifest reports are the constants laplace bounds the tail with
    from tsr.operators import catalog_manifest

    manifest = catalog_manifest()
    assert any(entry["growth"] for entry in manifest.values())
    for entry in manifest.values():
        assert set(entry["growth"]) == set(entry["kernels"])
        for name, growth in entry["growth"].items():
            assert growth == list(named_series(name).kernel.kernel.growth)
