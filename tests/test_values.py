"""The four result kinds of extend and integrate: subtraction, sign, reading
as a number and printing (``tsr.operators.values``)."""

import functools
import json
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsr.errors import UnsupportedPointError
from tsr.operators import (
    DecoratedValue,
    NumericTaylor,
    SurrealValue,
    catalog,
    extend,
    integrate,
)
from tsr.operators.laws import as_number
from tsr.resummation import QuadratureConfig
from tsr.surreal import parse_nf
from reference.surreal import nf_value

CFG = QuadratureConfig(precision=30)
KINDS = (mp.mpf, SurrealValue, NumericTaylor, DecoratedValue)


def _extend(name, point, terms=4):
    return extend(catalog()[name], parse_nf(point), terms, cfg=CFG)


def _integrate(name, a, b, terms=4):
    return integrate(catalog()[name], parse_nf(a), parse_nf(b), terms, cfg=CFG)


def _decorated(point, offset):
    return DecoratedValue(nf_value(parse_nf(point)), mp.mpf(offset))


#: results at real, finite and infinite points; constants of every kind among them
OPERANDS = (
    lambda: _extend("ei", "3"),  # mpf
    lambda: _integrate("ei_integrand", "2", "5/2"),  # mpf
    lambda: _extend("exp", "2"),  # exact constant e^2
    lambda: _integrate("exp", "1", "2"),  # exact constant e^2 - e
    lambda: _extend("ei", "w"),
    lambda: _integrate("exp", "0", "w"),
    lambda: _extend("erfi_integrand", "w-3"),
    lambda: _extend("ei", "3+w^-1"),
    lambda: _extend("ei", "3+w^-1", 1),  # a Taylor series that is a constant
    lambda: _extend("exp_neg_over_x", "1+w^-1"),
    lambda: _extend("ei", "3+w^-2"),
    lambda: _integrate("exp_neg", "2", "3+w^-1"),
    lambda: _integrate("exp_neg", "2", "w"),
    lambda: _integrate("exp_neg_over_x", "2", "2*w+1"),
    lambda: _decorated("1/2", "-1.25"),  # a constant
    lambda: _decorated("0", "3"),
    lambda: _decorated("w^-1", "0"),
)


@functools.cache
def operand(i):
    return OPERANDS[i]()


def _constant(v):
    try:
        return as_number(v)
    except UnsupportedPointError:
        return None


def test_operands_cover_every_kind():
    assert {type(operand(i)) for i in range(len(OPERANDS))} == set(KINDS)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, len(OPERANDS) - 1), st.integers(0, len(OPERANDS) - 1))
def test_every_pair_subtracts_or_names_both_kinds(i, j):
    hi, lo = operand(i), operand(j)
    with mp.workdps(CFG.precision):
        try:
            got = hi - lo
        except UnsupportedPointError as exc:
            assert type(hi).__name__ in str(exc) and type(lo).__name__ in str(exc)
            assert _constant(hi) is None or _constant(lo) is None
            return
        assert isinstance(got, KINDS)
        a, b = _constant(hi), _constant(lo)
        if a is not None and b is not None:
            assert abs(as_number(got) - (a - b)) <= mp.mpf(10) ** (5 - CFG.precision) * max(1, abs(a), abs(b))
        if not isinstance(got, mp.mpf):
            got.render(4), json.dumps(got.to_json(4)), got.sign()


def test_integrate_is_the_difference_of_the_endpoint_values():
    with mp.workdps(CFG.precision):
        want = _extend("ei", "3+w^-1") - _extend("ei", "2")
    assert _integrate("ei_integrand", "2", "3+w^-1") == want


@pytest.mark.parametrize(
    "value, sign",
    [
        # -e^(-3) w^w leads e^3 w^(-w), though its group comes second
        (lambda: _extend("exp_neg", "w-3") + _extend("exp", "w-3").scale(-1), -1),
        (lambda: _extend("exp_neg", "w"), 1),
        (lambda: _extend("exp", "-w"), 1),
        (lambda: SurrealValue.zero(), 0),
        # the offset and the exponent-0 terms decide together
        (lambda: _decorated("1", "-5"), -1),
        (lambda: _decorated("6", "-5"), 1),
        (lambda: _decorated("5", "-5"), 0),
        (lambda: _decorated("5 - w^-1", "-5"), -1),
        # an infinite term beats the offset; the offset beats infinitesimals
        (lambda: _decorated("w - 3", "-50"), 1),
        (lambda: _decorated("-w^-1", "1/1000"), 1),
        (lambda: _integrate("exp_neg_over_x", "2", "w"), 1),
        # c_k zeta^k with the first nonzero c_k, zeta < 0 flips odd k
        (lambda: NumericTaylor(F(1), [mp.mpf(0), mp.mpf(2)], parse_nf("-w^-1")), -1),
        (lambda: NumericTaylor(F(1), [mp.mpf(0), mp.mpf(0), mp.mpf(2)], parse_nf("-w^-1")), 1),
    ],
)
def test_sign(value, sign):
    assert value().sign() == sign


def test_sign_counts_a_log_tag_of_a_base_below_one():
    from tsr.operators import ln_prefactor
    from tsr.operators.values import ValueGroup
    from tsr.surreal import LazyNF

    log_half = SurrealValue([ValueGroup(ln_prefactor(F(1, 2)), LazyNF.from_nf(parse_nf("w")))])
    assert log_half.render() == "log(1/2)*(w)"
    assert log_half.sign() == -1


def test_taylor_render_keeps_the_power_past_a_zero_coefficient():
    value = NumericTaylor(F(1), [mp.mpf(1), mp.mpf(0), mp.mpf(2)], parse_nf("w^-1"))
    assert value.render(8) == "1.0 + 2.0*(w^(-2)) + ..."
    assert NumericTaylor(F(1), [mp.mpf(0)], parse_nf("w^-1")).render(8) == "0 + ..."


def test_a_taylor_series_reads_as_a_number_only_when_constant():
    assert NumericTaylor(F(3), [mp.mpf(2)], parse_nf("w^-1")).numeric_const() == 2
    with pytest.raises(UnsupportedPointError, match="not a real constant"):
        _extend("ei", "3+w^-1").numeric_const()


class TestBenchmarkContract:
    """perfbench/execute.py's ``settle`` reads each result kind's attributes
    (coefficients, surreal, offset, merged().groups, stream, render)."""

    @pytest.fixture(scope="class")
    def settle(self):
        root = Path(__file__).resolve().parents[1]
        sys.path.insert(0, str(root))
        try:
            from perfbench.execute import NULL_TRACER, settle
        finally:
            sys.path.remove(str(root))
        return lambda result: settle(result, 4, time.perf_counter(), NULL_TRACER)

    @pytest.mark.parametrize(
        "result, kind",
        [
            (lambda: _extend("ei", "3"), "number"),
            (lambda: _extend("ei", "w"), "surreal"),
            (lambda: _extend("ei", "3+w^-1"), "taylor"),
            (lambda: _integrate("exp_neg", "2", "w"), "mixed"),
        ],
    )
    def test_settle_reads_every_kind(self, settle, result, kind):
        payload, first, nfs = settle(result())
        assert payload["type"] == kind
        if kind in ("surreal", "mixed"):
            assert payload["text"] and first is not None and nfs
        if kind == "mixed":
            with mp.workdps(CFG.precision):
                assert abs(payload["offset"] - mp.exp(-2)) < mp.mpf(10) ** -25
        if kind == "taylor":
            assert len(payload["coeffs"]) == 4
