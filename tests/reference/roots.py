"""Bisection on the signs of an integer polynomial: the tests' reference for
``kernels._refine``, which refines a simple root by Newton steps kept
inside its bisection bracket and must return what bisection returns.

``refine`` halves the bracket once per evaluation, and counts its
evaluations, so a test can compare the costs of the two as well as their
roots.  A budget stops it early, for the cost comparison at high precision,
where the full bisection makes one evaluation per bit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from tsr.resummation.kernels import _dyadic, _on_grid


def refine(a: list, c: int, e: int, bits: int, budget: Optional[int] = None) -> tuple[Optional[Fraction], int]:
    """(root, evaluations): the simple root of a (integers, lowest degree
    first) in the open interval (c 2^e, (c+1) 2^e), whose ends are no roots,
    to 2^-bits of itself, by bisection, as ``kernels._refine`` took it
    before its Newton steps.  An interval from 0 is halved until its lower
    end is positive; then the bracket of grid points m 2^-s is halved until
    it is one unit wide, and its midpoint is the root, unless a halving
    lands on the root.  The root is None when ``budget`` evaluations did not
    find it."""
    count = 0

    def evaluate(coeffs, m):
        nonlocal count
        if budget is not None and count >= budget:
            raise _OverBudget
        count += 1
        out = 0
        for k in reversed(coeffs):
            out = out * m + k
        return out

    try:
        while c == 0:
            e -= 1
            y = evaluate(_on_grid(a, -e), 1)
            if not y:
                return _dyadic(1, e), count
            c = int((y > 0) == (a[0] > 0))
        shift = max(0, bits + 1 - c.bit_length())
        s = shift - e
        b = _on_grid(a, s)
        lo, hi = c << shift, (c + 1) << shift
        low_negative = evaluate(b, lo) < 0
        while hi - lo > 1:
            m = (lo + hi) >> 1
            y = evaluate(b, m)
            if not y:
                return _dyadic(m, -s), count
            if (y < 0) == low_negative:
                lo = m
            else:
                hi = m
        return _dyadic(lo + hi, -s - 1), count
    except _OverBudget:
        return None, count


class _OverBudget(Exception):
    pass
