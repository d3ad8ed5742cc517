"""Operator-law suites must pass end to end on the catalog.

The suites run once per session, at the stricter configuration acceptance
criterion 10 also reads (the ``law_reports`` fixture in conftest.py).
"""


def test_antidiff_laws(law_reports):
    report = law_reports["antidiff"]
    assert report.passed, report.summary()


def test_extension_laws(law_reports):
    report = law_reports["extension"]
    assert report.passed, report.summary()


def test_integral_laws(law_reports):
    report = law_reports["integral"]
    assert report.passed, report.summary()
