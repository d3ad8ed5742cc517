"""Operator-law suites must pass end to end on the catalog.

The suites run once per session, at the stricter configuration acceptance
criterion 10 also reads (the ``law_reports`` fixture in conftest.py).
"""

from tsr.cli import run
from tsr.operators import laws
from tsr.resummation import quad_interval


def test_antidiff_laws(law_reports):
    report = law_reports["antidiff"]
    assert report.passed, report.summary()


def test_extension_laws(law_reports):
    report = law_reports["extension"]
    assert report.passed, report.summary()


def test_integral_laws(law_reports):
    report = law_reports["integral"]
    assert report.passed, report.summary()


def test_law_suite_quadratures_stop_at_the_extrapolated_error(monkeypatch):
    # (vi) and the integral suite's (e) and (f) integrate by quad_interval at
    # 50 digits: 126 + 63 + 63 + 63 points, where waiting for two levels to
    # agree took 254 + 127 + 127 + 127
    counts = []

    def counted(fn, a, b, prec):
        counts.append(0)

        def point(s):
            counts[-1] += 1
            return fn(s)

        return quad_interval(point, a, b, prec)

    monkeypatch.setattr(laws, "quad_interval", counted)
    assert laws.antidiff_laws().passed and laws.integral_laws().passed
    assert counts == [126, 63, 63, 63]


def test_check_laws_passes_at_a_precision_past_the_rules_reach(capsys):
    # at 300 digits no level through n = 256 settles (vi)'s panel [3, 4],
    # whose pole at 0 sits at u = -7 in its coordinates (rho about 13.9,
    # rho^-256 about 10^-293): the laws integrate at no more than 50 digits
    assert run(["check", "laws", "--prec", "300"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 19 and "FAIL" not in out, out
