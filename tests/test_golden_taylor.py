"""Frozen Taylor terms of the exp-type catalog facilities.

The corpus in ``golden/taylor_terms.json`` pins ``taylor_term(x0, k)`` for
k = 0..12 of exp, exp_neg, ei_integrand, ei, erfi_integrand, erfi_integral,
exp_neg_over_x, airy_ai and the antiderivative of exp_neg_over_x, at
Fraction points and at the same points as 30-digit mpf.  Exact terms are
compared with ``==``; numeric terms within 4 ulp at 30 digits, stored as raw
``(sign, man, exp, bc)`` tuples.  Regenerate it (only when an output change
is intended) with

    PYTHONPATH=src python tests/test_golden_taylor.py
"""

import json
from fractions import Fraction as F
from pathlib import Path

import mpmath as mp
import pytest

from tsr.operators import antidiff_no, catalog

GOLDEN = Path(__file__).with_name("golden") / "taylor_terms.json"
DPS = 30
ORDERS = range(13)
ULPS = 4

POSITIVE = ("1/2", "1/3", "2", "3", "5/2")
REAL = POSITIVE + ("-1",)
WITH_ZERO = REAL + ("0",)
ENTRIES = {
    "exp": WITH_ZERO,
    "exp_neg": WITH_ZERO,
    "ei_integrand": POSITIVE,
    "ei": POSITIVE,
    "erfi_integrand": WITH_ZERO,
    "erfi_integral": WITH_ZERO,
    "exp_neg_over_x": POSITIVE,
    "airy_ai": REAL,
    "antidiff(exp_neg_over_x)": POSITIVE,
}
CASES = [(name, kind, x0) for name, points in ENTRIES.items() for kind in ("fraction", "mpf") for x0 in points]


def _entry(name: str):
    if name == "antidiff(exp_neg_over_x)":
        return antidiff_no(catalog()["exp_neg_over_x"])
    return catalog()[name]


def _key(case) -> str:
    return " ".join(case)


def _encode(term) -> list:
    if term[0] == "exact":
        _, pref, q = term
        return ["exact", str(pref.factor), [[sym, str(p)] for sym, p in pref.powers], str(q)]
    return ["num", *(int(part) for part in mp.mpf(term[1])._mpf_)]


def _record(case) -> list:
    name, kind, x0 = case
    q = F(x0)
    taylor = _entry(name).taylor_term
    with mp.workdps(DPS):
        point = q if kind == "fraction" else mp.mpf(q.numerator) / q.denominator
        return [_encode(taylor(point, k)) for k in ORDERS]


def _close(got: list, want: list) -> bool:
    if got[0] != want[0] or got[0] == "exact":
        return got == want
    with mp.workdps(DPS):
        a, b = mp.mpf(tuple(got[1:])), mp.mpf(tuple(want[1:]))
        if b == 0:
            return a == 0
        return abs(a - b) <= ULPS * mp.ldexp(1, mp.mag(b) - mp.mp.prec)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_corpus_covers_cases(golden):
    assert sorted(golden) == sorted(_key(c) for c in CASES)


@pytest.mark.parametrize("case", CASES, ids=_key)
def test_taylor_terms(golden, case):
    got, want = _record(case), golden[_key(case)]
    bad = [k for k in ORDERS if not _close(got[k], want[k])]
    assert not bad, [(k, got[k], want[k]) for k in bad]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    corpus = {_key(c): _record(c) for c in CASES}
    GOLDEN.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
