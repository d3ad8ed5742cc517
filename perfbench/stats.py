"""Quantiles that carry their sample count.

Quantiles use the Harrell-Davis estimator: a weighted mean of all order
statistics with Beta((n+1)q, (n+1)(1-q)) weights.  Op latencies in one run
come from a few dozen different ops on a machine whose speed drifts from
op to op, and a single order statistic jumps between neighbouring ops from
run to run; the weighted mean moves much less.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp


@dataclass(frozen=True)
class Quantile:
    q: float  # in (0, 1)
    value: float
    n: int  # sample count
    beyond: int  # samples above rank ceil(q n)


def quantile(values, q: float) -> Quantile:
    """Harrell-Davis estimate of the q-quantile of ``values``."""
    if not values:
        raise ValueError("quantile of an empty sample")
    if not 0 < q < 1:
        raise ValueError("q must lie in (0, 1)")
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    with mp.workdps(20):
        weights = [mp.betainc(a, b, i / n, (i + 1) / n, regularized=True) for i in range(n)]
        value = float(mp.fsum(w * x for w, x in zip(weights, xs)))
    return Quantile(q, value, n, n - math.ceil(q * n))


def median(values) -> Quantile:
    return quantile(values, 0.5)
