"""Frozen real-point oracle values of the catalog entries, bit for bit.

The corpus in ``golden/oracle_values.json`` pins ``oracle(x)`` of every
catalog entry, ``monomial_2`` and the antiderivative of exp_neg_over_x at a
few points of their domains, each point the quotient of its Fraction at
15, 30 and 100 digits.  Values are raw ``(sign, man, exp, bc)`` tuples
compared with ``==``.  Regenerate it (only when an output change is
intended) with

    PYTHONPATH=src python tests/test_golden_oracles.py
"""

import json
from fractions import Fraction as F
from pathlib import Path

import mpmath as mp
import pytest

from tsr.operators import antidiff_no, catalog, monomial_entry

GOLDEN = Path(__file__).with_name("golden") / "oracle_values.json"
DIGITS = ("15", "30", "100")

POSITIVE = ("1/3", "1/2", "2", "5/2")
REAL = ("-1", "0", "1/3", "5/2")
AIRY = ("-3", "0", "1/2", "2", "11/2")
ENTRIES = {
    "exp": REAL,
    "exp_neg": REAL,
    "ei_integrand": POSITIVE,
    "ei": POSITIVE,
    "erfi_integrand": REAL,
    "erfi_integral": REAL,
    "airy_ai": AIRY,
    "airy_bi": AIRY,
    "loggamma": POSITIVE,
    "gamma": POSITIVE,
    "exp_neg_over_x": POSITIVE,
    "monomial_2": REAL,
    "antidiff(exp_neg_over_x)": ("1/2", "2", "5/2"),
}
CASES = [(name, x, dps) for name, points in ENTRIES.items() for x in points for dps in DIGITS]


def _entry(name: str):
    if name == "antidiff(exp_neg_over_x)":
        return antidiff_no(catalog()["exp_neg_over_x"])
    if name == "monomial_2":
        return monomial_entry(2)
    return catalog()[name]


def _key(case) -> str:
    return " ".join(case)


def _record(case) -> list:
    name, x, dps = case
    q = F(x)
    with mp.workdps(int(dps)):
        return [int(part) for part in _entry(name).oracle(mp.mpf(q.numerator) / q.denominator)._mpf_]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_corpus_covers_cases(golden):
    assert sorted(golden) == sorted(_key(c) for c in CASES)


@pytest.mark.parametrize("case", CASES, ids=_key)
def test_oracle_values(golden, case):
    assert _record(case) == golden[_key(case)]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    corpus = {_key(c): _record(c) for c in CASES}
    GOLDEN.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
