"""Frozen Ecalle-Borel resummation values, bit for bit.

The corpus in ``golden/resum_values.json`` pins the exact mpf results of the
numeric resummation path: generic Pade sums of scaled Ei series, catalog
``eb_value`` through Pade (airy_ai, loggamma, gamma) and closed-form (ei)
kernels, and the stdout of one ``tsr sum``.  Values and error estimates are
stored as raw ``(sign, man, exp, bc)`` tuples, not as decimal text, because an
mpf's repr depends on the precision in force when it is printed.  Regenerate
the corpus (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_resum.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from tsr.cli import run
from tsr.operators import catalog
from tsr.resummation import QuadratureConfig, eb_sum
from tsr.transseries import ts_parse

GOLDEN = Path(__file__).with_name("golden") / "resum_values.json"

CASES = (
    [("eb_sum", expr, 10.0, 30) for expr in ("2*#ei", "1/3*#ei", "5/4*#ei")]
    + [("eb_value", name, x, 30) for name, x in (("airy_ai", 15.0), ("loggamma", 10.0), ("gamma", 15.0), ("ei", 10.0))]
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


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    corpus = {_key(c): _record(c) for c in CASES}
    GOLDEN.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
