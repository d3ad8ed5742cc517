"""Frozen CLI output of exact surreal streams, text and --json, byte for byte.

The corpus in ``golden/exact_streams.json`` pins the normal forms that the
tau-map builds at positive infinite points: Ei at shifted points, Gamma at w,
erfi_integral, and an erfi_integrand integral.  Regenerate it (only when an
output change is intended) with

    PYTHONPATH=src python tests/test_golden_streams.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from tsr.cli import run

GOLDEN = Path(__file__).with_name("golden") / "exact_streams.json"

SHIFTED = ("w+1", "w-1", "w+2", "w-2", "2*w+1", "2*w-1", "2*w+3", "2*w-3", "3*w+1", "3*w-1", "3*w+2", "3*w-2", "1/2*w+1", "1/2*w-1")  # fmt: skip

CASES = (
    [("eval", "ei", p, "--terms", n) for p in SHIFTED for n in ("16", "32")]
    + [("eval", "ei", "2*w+1", "--terms", "48")]
    + [("eval", "gamma", "omega", "--terms", n) for n in ("12", "14", "16", "20", "24", "32")]
    + [("eval", "erfi_integral", p, "--terms", "8") for p in ("2*w+1", "w-3")]
    + [("integrate", "erfi_integrand", "2", "w-3", "--terms", "8")]
)


def _key(argv) -> str:
    return " ".join(argv)


def _output(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(list(argv))
    assert code == 0, argv
    return buf.getvalue()


def _record(argv) -> dict:
    return {"text": _output(argv), "json": _output((*argv, "--json"))}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_corpus_covers_cases(golden):
    assert sorted(golden) == sorted(_key(a) for a in CASES)


@pytest.mark.parametrize("argv", CASES, ids=_key)
def test_byte_identical(golden, argv):
    assert _record(argv) == golden[_key(argv)]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    corpus = {_key(a): _record(a) for a in CASES}
    GOLDEN.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
