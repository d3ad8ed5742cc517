"""Operator-law suites must pass end to end on the catalog.

The suites run once per session, at the stricter configuration acceptance
criterion 10 also reads (the ``law_reports`` fixture in conftest.py).
"""

import mpmath as mp
import pytest

from tsr.cli import run
from tsr.operators import laws
from tsr.resummation import QuadratureConfig


def test_antidiff_laws(law_reports):
    report = law_reports["antidiff"]
    assert report.passed, report.summary()


def test_extension_laws(law_reports):
    report = law_reports["extension"]
    assert report.passed, report.summary()


def test_integral_laws(law_reports):
    report = law_reports["integral"]
    assert report.passed, report.summary()


def test_law_suite_quadratures_take_155_points(monkeypatch):
    # (vi) over two panels, and the integral suite's (e), twice, and (f)
    # over one: each panel's levels first agree to QUAD_TOL at I_32, 31
    # points
    counts = []
    plain = laws._quad

    def counted(fn, a, b, prec):
        counts.append(0)

        def point(s):
            counts[-1] += 1
            return fn(s)

        return plain(point, a, b, prec)

    monkeypatch.setattr(laws, "_quad", counted)
    assert laws.antidiff_laws().passed and laws.integral_laws().passed
    assert counts == [62, 31, 31, 31]


@pytest.mark.parametrize("digits", [10, 15, 30, 50, 100, 300])
def test_law_integrals_are_within_1e13_of_mpmath(monkeypatch, digits):
    got = []
    plain = laws._quad
    monkeypatch.setattr(laws, "_quad", lambda *args: got.append(plain(*args)) or got[-1])
    cfg = QuadratureConfig(precision=digits)
    assert laws.antidiff_laws(cfg).passed and laws.integral_laws(cfg).passed
    with mp.workdps(digits + 20):
        ei_ei = mp.ei(6) - mp.ei(4)  # integral(e^(2s)/s, s = 2..3)
        want = [
            mp.ei(5) - mp.ei(3),  # (vi): integral(e^s/s, s = 3..5)
            ei_ei,  # (e): integral(Ei'(s) e^s, s = 2..3)
            mp.ei(3) * mp.exp(3) - mp.ei(2) * mp.exp(2) - ei_ei,  # (e): integral(Ei(s) e^s, s = 2..3)
            mp.ei(5) - mp.ei(3),  # (f): integral(2 e^(2t+1)/(2t+1), t = 1..2)
        ]
        assert len(got) == len(want)
        for value, ref in zip(got, want):
            assert abs(value - ref) <= mp.mpf(1e-13) * abs(ref), (value, ref)


def test_check_laws_passes_at_a_precision_past_the_rules_reach(capsys):
    # each panel stops where its levels agree to QUAD_TOL, whatever the
    # precision, so at 300 digits the laws settle at the same levels as at
    # 50; _quad_prec only caps the cost of the node sums
    assert run(["check", "laws", "--prec", "300"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 19 and "FAIL" not in out, out
