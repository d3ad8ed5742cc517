"""Operator-law suites must pass end to end on the catalog."""

from tsr.operators.laws import antidiff_laws, extension_laws, integral_laws


def test_antidiff_laws():
    report = antidiff_laws()
    assert report.passed, report.summary()


def test_extension_laws():
    report = extension_laws(samples=30)
    assert report.passed, report.summary()


def test_integral_laws():
    report = integral_laws()
    assert report.passed, report.summary()


def test_integral_laws_with_explicit_entries():
    from tsr.operators import catalog

    reg = catalog()
    report = integral_laws(f=reg["exp"], g=reg["ei_integrand"], a=1.0, b=3.0)
    assert report.passed, report.summary()
