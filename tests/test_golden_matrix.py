"""Frozen outcome of every (verb, catalog entry, point) case of ``eval`` and ``integrate``.

The corpus in ``golden/eval_matrix.json`` pins each case of the matrix, the
catalog's entries at finite, infinite and infinitesimally shifted points
through ``eval`` and through ``integrate`` from 2, together with the
catalog manifest and the ``check all`` report as text and as JSON, to its
exit code, its stdout and, when it ends in a ``TsrError``, the error's class.  Each case
must end within a generous time budget.  A change that turns an error into a
value re-records the corpus (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_matrix.py
"""

import contextlib
import io
import json
import re
from pathlib import Path

import mpmath as mp
import pytest

from conftest import time_budget
from tsr.cli import run

GOLDEN = Path(__file__).with_name("golden") / "eval_matrix.json"

ENTRIES = ("exp", "exp_neg", "ei_integrand", "ei", "erfi_integrand", "erfi_integral", "airy_ai", "airy_bi", "loggamma", "gamma", "exp_neg_over_x")  # fmt: skip
POINTS = ("2", "1/2", "-1", "3+w^-1", "w", "2*w+1", "w-3", "1/2*w", "-w")

CASES = (
    [("eval", name, p, "--terms", "8") for name in ENTRIES for p in POINTS]
    + [("integrate", name, "2", p, "--terms", "8") for name in ENTRIES for p in POINTS]
    + [("catalog", "--manifest"), ("check", "all"), ("check", "all", "--json")]
)


def _key(argv) -> str:
    return " ".join(argv)


def _record(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    found = re.match(r"error: (\w+):", err.getvalue()) if code == 1 else None
    return {"code": code, "stdout": out.getvalue(), "error": found and found.group(1)}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_corpus_covers_cases(golden):
    assert sorted(golden) == sorted(_key(a) for a in CASES)


@pytest.mark.parametrize("argv", CASES, ids=_key)
def test_case_pinned(golden, argv):
    with time_budget(10.0):
        got = _record(argv)
    assert got == golden[_key(argv)]


#: mpmath references of the entries read at 3 + 1/w: the value f itself for
#: eval, the integrand f of an integral from 2
TAYLOR_REFERENCES = {
    ("eval", "airy_ai"): mp.airyai,
    ("eval", "airy_bi"): mp.airybi,
    ("eval", "ei"): mp.ei,
    ("eval", "erfi_integral"): lambda x: mp.sqrt(mp.pi) / 2 * mp.erfi(x),
    ("eval", "gamma"): mp.gamma,
    ("eval", "loggamma"): mp.loggamma,
    ("integrate", "ei_integrand"): lambda x: mp.exp(x) / x,
    ("integrate", "erfi_integrand"): lambda x: mp.exp(x**2),
    ("integrate", "exp_neg"): lambda x: mp.exp(-x),
    ("integrate", "exp_neg_over_x"): lambda x: mp.exp(-x) / x,
}


@pytest.mark.parametrize("verb, name", sorted(TAYLOR_REFERENCES), ids=map(" ".join, sorted(TAYLOR_REFERENCES)))
def test_taylor_coefficients_carry_the_printed_digits(golden, verb, name):
    # at the default precision a Taylor coefficient prints 20 digits, like a real
    argv = (verb, name, "3+w^-1") if verb == "eval" else (verb, name, "2", "3+w^-1")
    stdout = golden[_key(argv + ("--terms", "8"))]["stdout"]
    f = TAYLOR_REFERENCES[verb, name]
    with mp.workdps(40):
        want = mp.taylor(f, 3, 8)
        if verb == "integrate":  # the integral from 2 to 3 + z: c_0, then f's c_(k-1) / k
            want = [mp.quad(f, [2, 3])] + [c / k for k, c in enumerate(want, 1)]
        bits = stdout.rstrip("\n").split(" + ")
        assert bits.pop() == "..."
        for bit in bits:
            coef, _, power = bit.partition("*")
            k = int(re.fullmatch(r"\(w\^\(-(\d+)\)\)", power).group(1)) if power else 0
            assert abs(mp.mpf(coef) - want[k]) <= mp.mpf(10) ** -19 * abs(want[k])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    corpus = {_key(a): _record(a) for a in CASES}
    GOLDEN.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
