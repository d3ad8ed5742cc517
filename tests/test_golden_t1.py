"""Frozen stdout of the exact T1 verbs.

The corpus in ``golden/t1_verbs.json`` pins the output of ``tsr parse``,
``diff`` and ``antidiff`` (text and ``--json``), ``mul`` and ``borel``.  The
expressions cover growing groups at several rates, equal-rate merges with
integer offset differences on both signs of the rate, non-integer offsets,
decaying parts at commensurate and incommensurate rates, log parts and
the named series, also beside a polynomial or a multiple of themselves,
where they keep their kernel; ``borel`` takes power series in 1/x only.
The JSON writes each part as its list of groups (lambda, beta, series), a
finite series cut to its nonzero span, so equal transseries print equal
JSON however they were built; c * #name writes its name and scale.  A case
that exits non-zero pins its exit code and stderr instead: ``borel``
refuses a transseries with exponential groups rather than drop them.
Regenerate the corpus (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_t1.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from tsr.cli import run
from tsr.transseries import ts_from_json, ts_to_json

GOLDEN = Path(__file__).with_name("golden") / "t1_verbs.json"

EXPRESSIONS = (
    # growing groups at several rates
    "exp(x)/x + exp(2*x)/x^2 + exp(1/2*x)*x",
    "exp(3*x)*series![1,2,3] + exp(x)*series![1,-1] + exp(2*x)/x",
    "exp(2*x)*#stirling - exp(2*x)/x",
    "exp(x)*#airy_u",
    # equal-rate merges with integer offset differences, both signs
    "exp(x)*#ei + exp(x)/x^3",
    "exp(-x)*#ei + exp(-x)/x^3",
    "exp(x)/x + exp(x)",
    "exp(-x)*x + exp(-x)/x^2",
    "exp(x)*x^(1/2)*#erfi + exp(x)*x^(-1/2)/x",
    "exp(-x)*x^(1/2)*#erfi + exp(-x)*x^(-1/2)/x",
    # non-integer offsets
    "exp(-x)*x^(1/2)/x + exp(-2*x)/x",
    "exp(x)*x^(1/3) + exp(2*x)*x^(-2/3)/x",
    # decaying groups at commensurate and incommensurate rates
    "exp(-x)/x + exp(-2*x)/x^2 + exp(-3*x)*#ei",
    "exp(-x)/x + exp(-65/64*x)/x",
    "exp(-x)/x + exp(-17/16*x)/x + exp(-2*x)/x",
    "exp(-x)*#airy_u_alt",
    # both signs at once
    "exp(x)/x - exp(-x)/x",
    "exp(2*x)*#ei + 3 - exp(-x)*#erfi",
    # log parts, powers and named series without an exponential
    "x^2*log(x) + 3*log(x) + x - 1/x",
    "log(x)",
    "(1 + 1/x)^3",
    "1/x + #ei",
    "#stirling",
    "#erfi/x",
    "5",
    # a kernel survives a sum with a polynomial and a sum of multiples of itself
    "3 + #ei",
    "x^2 - 1 + #stirling",
    "2*#ei + 3*#ei",
)

MUL = (
    ("exp(-x)/x", "exp(-x)/x^2"),
    ("1/x + 2", "exp(-x)*#ei"),
    ("exp(-x)/x + exp(-65/64*x)/x", "exp(-x)/x"),
    ("#ei", "#ei"),
    ("exp(-x)*x^(1/2)/x", "exp(-2*x)/x"),
)

BOREL = ("#ei", "#stirling", "1/x + 2/x^2 + exp(-x)/x", "#erfi/x")  # the third is refused

CASES = (
    [(verb, e) + flag for e in EXPRESSIONS for verb in ("parse", "diff", "antidiff") for flag in ((), ("--json",))]
    + [("mul",) + pair + flag for pair in MUL for flag in ((), ("--json",))]
    + [("borel", e) + flag for e in BOREL for flag in ((), ("--json",), ("--order", "6"))]
)


def _key(case) -> str:
    return " ".join(case)


def _record(case) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(case))
    if code == 0:
        return out.getvalue()
    return f"exit {code}\n{out.getvalue()}{err.getvalue()}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_corpus_covers_cases(golden):
    assert sorted(golden) == sorted(_key(c) for c in CASES)


@pytest.mark.parametrize("case", CASES, ids=_key)
def test_output_unchanged(golden, case):
    assert _record(case) == golden[_key(case)]


@pytest.mark.parametrize("case", [c for c in CASES if c[-1] == "--json" and c[0] != "borel"], ids=_key)
def test_json_reads_back_to_itself(golden, case):
    obj = json.loads(golden[_key(case)])
    assert ts_to_json(ts_from_json(obj), 8) == obj  # the CLI writes --terms 8 coefficients


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    corpus = {_key(c): _record(c) for c in CASES}
    GOLDEN.write_text(json.dumps(corpus, indent=1, sort_keys=True, ensure_ascii=False) + "\n")
