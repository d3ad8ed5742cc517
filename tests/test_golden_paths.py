"""Frozen CLI outcome of the product paths that the other corpora miss.

The corpus in ``golden/cli_paths.json`` pins the exit code, stdout and
stderr of:

- ``tsr sum`` of JSON input, from stdin (``-``) and from a file
  (``@file``), as text and as ``--json``: the JSON that
  ``tsr parse "#ei" --json --terms 6`` writes, read back by
  ``ts_from_json``; and the refusal of a JSON whose coefficient is no
  rational number, which names the field;
- ``tsr weights`` as text, with ``--literal`` and with ``--json``, and the
  refusal of an address that is not a string of + and -;
- ``eval ei 200`` and ``eval erfi_integral 200``, past x = wp bits, where
  the Ei and erfi oracles take their asymptotic series;
- an integral from an infinite to a real endpoint, a real less a surreal
  value;
- a syntax error.

Regenerate it (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_paths.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from tsr.cli import run

GOLDEN = Path(__file__).with_name("golden") / "cli_paths.json"

#: the argv whose stdout the JSON-input cases read
EI_JSON = ("parse", "#ei", "--json", "--terms", "6")
#: stands for the path of a file holding that stdout
FILE = "@ei6.json"
#: a last argument that stands for stdin holding MALFORMED_JSON; it is not passed on
MALFORMED = "<malformed.json"
MALFORMED_JSON = '{"plus": [{"lambda": "1", "beta": "1/2", "series": {"coeffs": ["1", "x"]}}]}'

CASES = (
    ("sum", "-", "5"),
    ("sum", FILE, "5"),
    ("sum", FILE, "5", "--json"),
    ("sum", "-", "5", MALFORMED),
    ("weights", "++-"),
    ("weights", "++-", "--literal"),
    ("weights", "++-", "--json"),
    ("weights", "+x"),
    ("eval", "ei", "200"),
    ("eval", "erfi_integral", "200"),
    ("integrate", "exp_neg", "w", "3"),
    ("parse", "1 +"),
)


def _key(argv) -> str:
    return " ".join(argv)


def _run(argv, stdin: str = "") -> dict:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(list(argv))
    finally:
        sys.stdin = saved
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def record(argv) -> dict:
    """The outcome of one case; a JSON-input case first runs ``EI_JSON``."""
    if argv[0] != "sum":
        return _run(argv)
    if argv[-1] == MALFORMED:
        return _run(argv[:-1], stdin=MALFORMED_JSON)
    text = _run(EI_JSON)["stdout"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / FILE[1:]
        path.write_text(text)
        return _run([f"@{path}" if a == FILE else a for a in argv], stdin=text)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_corpus_covers_cases(golden):
    assert sorted(golden) == sorted(_key(a) for a in CASES)


@pytest.mark.parametrize("argv", CASES, ids=_key)
def test_case_pinned(golden, argv):
    assert record(argv) == golden[_key(argv)]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    corpus = {_key(a): record(a) for a in CASES}
    GOLDEN.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
