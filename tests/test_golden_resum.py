"""Frozen Ecalle-Borel resummation values, bit for bit.

The corpus in ``golden/resum_values.json`` pins the exact mpf results of the
numeric resummation path: sums of scaled Ei series through the registered
pole kernel, catalog ``eb_value`` through the closed-form kernels (airy_ai
through the Airy kernel at -p/2, analytic on the ray; airy_bi at x = 8
through the one at +p/2, averaged past its log branch point at p = 2, both
as Bessel functions of order 1/3; ei, loggamma, gamma, and erfi_integral's
square-root branch), ``laplace`` of the log and square-root branch kernels, and the
stdout of one ``tsr sum`` through the coth kernel.  Each value also lies
within its reported error, and within its tolerance, of an mpmath
reference; an ``eb_value``'s tolerance is 2^8 units of its precision.  Values and error estimates are stored as raw
``(sign, man, exp, bc)`` tuples, not as decimal text, because an mpf's repr
depends on the precision in force when it is printed.  Regenerate the corpus
(only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_resum.py
"""

import contextlib
import io
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

import mpmath as mp

from tsr.cli import run
from tsr.operators import catalog
from tsr.resummation import QuadratureConfig, eb_sum, laplace, pole_kernel, sqrt_branch_kernel
from tsr.transseries import ts_parse

GOLDEN = Path(__file__).with_name("golden") / "resum_values.json"
KERNELS = {"log": lambda s: pole_kernel(s).p_integral(), "sqrt_branch": sqrt_branch_kernel}

CASES = (
    [("eb_sum", expr, 10.0, 30) for expr in ("2*#ei", "1/3*#ei", "5/4*#ei")]
    + [
        ("eb_value", name, x, 30)
        for name, x in (
            ("airy_ai", 15.0),
            ("loggamma", 10.0),
            ("gamma", 15.0),
            ("ei", 10.0),
            ("erfi_integral", 3.0),
            ("airy_bi", 8.0),
        )
    ]
    + [("laplace", name, 3.0, 30) for name in ("log", "sqrt_branch")]
    + [("cli", "sum", "#stirling", "10.25", "--prec", "50")]
)


def _key(case) -> str:
    return " ".join(str(a) for a in case)


def _raw(v) -> list:
    return [int(part) for part in v._mpf_]


def _record(case):
    kind = case[0]
    if kind == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run(list(case[1:]))
        assert code == 0, case
        return buf.getvalue()
    _, what, x, prec = case
    cfg = QuadratureConfig(precision=prec)
    if kind == "eb_sum":
        val, err = eb_sum(ts_parse(what), x, cfg)
    elif kind == "laplace":
        val, err = laplace(KERNELS[what](1), x, cfg)
    else:
        val, err = catalog()[what].eb_value(x, cfg)
    return {"value": _raw(val), "err": _raw(err)}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_corpus_covers_cases(golden):
    assert sorted(golden) == sorted(_key(c) for c in CASES)


@pytest.mark.parametrize("case", CASES, ids=_key)
def test_bit_identical(golden, case):
    assert _record(case) == golden[_key(case)]


def _reference(case):
    """The pinned quantity from mpmath at 60 digits, and its tolerance."""
    kind, what = case[0], case[1] if case[0] != "cli" else case[2]
    x = mp.mpf(case[2] if kind != "cli" else case[3])
    if kind == "eb_sum":  # c * #ei sums to c e^(-x) Ei(x)
        c = QuadratureConfig()
        scale = F(what.split("*")[0])
        ref = scale.numerator * mp.exp(-x) * mp.ei(x) / scale.denominator
        return ref, max(c.abs_tol, c.rel_tol * abs(ref))
    if kind == "eb_value":
        ref = {
            "ei": mp.ei,
            "loggamma": mp.loggamma,
            "gamma": mp.gamma,
            "airy_ai": mp.airyai,
            "airy_bi": mp.airybi,
            "erfi_integral": lambda t: mp.sqrt(mp.pi) / 2 * mp.erfi(t),
        }[what](x)
        return ref, abs(ref) * mp.ldexp(1, 8 - mp.libmp.dps_to_prec(case[3]))
    if kind == "laplace":
        # L[-log|1-p|](x) = e^(-x) Ei(x) / x, and
        # L[(1-p)^(-1/2) / 2](x) = e^(-x) x^(-1/2) int_0^sqrt(x) e^(s^2) ds
        if what == "log":
            ref = mp.exp(-x) * mp.ei(x) / x
        else:
            ref = mp.exp(-x) * mp.sqrt(mp.pi / x) / 2 * mp.erfi(mp.sqrt(x))
        c = QuadratureConfig()
        return ref, max(c.abs_tol, c.rel_tol * abs(ref))
    # #stirling is log Gamma less its Stirling head
    ref = mp.loggamma(x) - ((x - mp.mpf(1) / 2) * mp.log(x) - x + mp.log(2 * mp.pi) / 2)
    return ref, QuadratureConfig().abs_tol


@pytest.mark.parametrize("case", CASES, ids=_key)
def test_within_reported_error_of_reference(golden, case):
    pinned = golden[_key(case)]
    with mp.workdps(60):
        ref, tol = _reference(case)
        if isinstance(pinned, str):  # "value  (error <= err)"
            value, err = pinned.split("  (error <= ")
            value, err = mp.mpf(value), mp.mpf(err.rstrip(")\n"))
            err += abs(value) * mp.mpf(10) ** -19  # the value is printed to 20 digits
        else:
            value, err = mp.mpf(tuple(pinned["value"])), mp.mpf(tuple(pinned["err"]))
        assert abs(value - ref) <= min(err, tol)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    corpus = {_key(c): _record(c) for c in CASES}
    GOLDEN.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
