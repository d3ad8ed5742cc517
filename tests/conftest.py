import contextlib
import random
import signal
import time
from fractions import Fraction as F

import pytest
from reference.kernels import reference_kernel

from tsr.operators.laws import antidiff_laws, extension_laws, integral_laws
from tsr.resummation import QuadratureConfig
from tsr.surreal import SurrealNF

#: The stricter of the two configurations the law suites were checked at
#: (acceptance criterion 10's); the defaults are abs 1e-12, rel 1e-10.
STRICT_CFG = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-11)


def random_rational(rng: random.Random, span: int = 6) -> F:
    return F(rng.randint(-span, span), rng.randint(1, span))


def random_nf(rng: random.Random, depth: int = 2, max_terms: int = 3) -> SurrealNF:
    """Random hereditary normal form with small rational data."""
    n = rng.randint(0, max_terms)
    terms = []
    for _ in range(n):
        if depth > 0 and rng.random() < 0.4:
            e = random_nf(rng, depth - 1, max_terms=2)
        else:
            e = SurrealNF.from_rational(random_rational(rng))
        c = random_rational(rng)
        if c != 0:
            terms.append((e, c))
    return SurrealNF(terms)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@contextlib.contextmanager
def time_budget(seconds: float):
    """Raise TimeoutError in this (main) thread if the block runs too long:
    from SIGALRM at the budget, and again after the block if it overran, for
    an alarm whose exception was swallowed (one raised in a gc callback)."""

    def on_alarm(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    elapsed = time.perf_counter() - start
    if elapsed > seconds:
        raise TimeoutError(f"no result within {seconds} s: the block took {elapsed:.2f} s")


@pytest.fixture(scope="session")
def law_reports() -> dict:
    """Each operator-law suite's report, computed once per session at STRICT_CFG."""
    return {
        "antidiff": antidiff_laws(STRICT_CFG),
        "extension": extension_laws(STRICT_CFG),
        "integral": integral_laws(STRICT_CFG),
    }


class QuadratureOnly:
    """A kernel with its closed-form Laplace sum hidden, so that ``laplace``
    integrates the kernel's values by quadrature: the independent check of
    a closed form.  A Binet or Airy kernel, which has no values in ``tsr``,
    is replaced by its test-side reference (``reference.kernels``)."""

    def __init__(self, kernel):
        self._kernel = reference_kernel(kernel)

    def __getattr__(self, name):
        if name == "laplace":
            raise AttributeError(name)
        return getattr(self._kernel, name)
