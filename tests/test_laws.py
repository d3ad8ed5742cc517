"""Operator-law suites must pass end to end on the catalog.

The suites run once per session, at the stricter configuration acceptance
criterion 10 also reads (the ``law_reports`` fixture in conftest.py).
"""

from tsr.operators.laws import integral_laws


def test_antidiff_laws(law_reports):
    report = law_reports["antidiff"]
    assert report.passed, report.summary()


def test_extension_laws(law_reports):
    report = law_reports["extension"]
    assert report.passed, report.summary()


def test_integral_laws(law_reports):
    report = law_reports["integral"]
    assert report.passed, report.summary()


def test_integral_laws_with_explicit_entries():
    from tsr.operators import catalog

    reg = catalog()
    report = integral_laws(f=reg["exp"], g=reg["ei_integrand"], a=1.0, b=3.0)
    assert report.passed, report.summary()
