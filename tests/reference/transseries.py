"""The dominance order of T1 transseries: the leading transmonomial of a
transseries, its sign, and a >> b.  ``test_order_preservation`` checks
``ts_antidiff`` against it."""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from tsr.errors import UndecidableSupport
from tsr.stream import DEFAULT_ORDER_SCAN
from tsr.transseries import PowerSeries, TransseriesT1


def first_nonzero(series: PowerSeries) -> Optional[int]:
    """Smallest l with c_l != 0.

    Returns None when the series is finite and identically zero; raises
    UndecidableSupport when an oracle-backed series shows no nonzero
    coefficient among its first DEFAULT_ORDER_SCAN.
    """
    top = series.length if series.length is not None else DEFAULT_ORDER_SCAN
    for l in range(1, top + 1):
        if series.coeff(l) != 0:
            return l
    if series.length is not None:
        return None
    raise UndecidableSupport(f"no nonzero coefficient within scan bound {DEFAULT_ORDER_SCAN}")


_MONO_KEY = tuple[Fraction, Fraction, int]


def _dominant_key(a: TransseriesT1) -> Optional[tuple[_MONO_KEY, Fraction]]:
    """(key, coefficient) of the >>-largest nonzero transmonomial, or None."""
    best: Optional[tuple[_MONO_KEY, Fraction]] = None

    def offer(key: _MONO_KEY, c: Fraction):
        nonlocal best
        if c != 0 and (best is None or key > best[0]):
            best = (key, c)

    for grp in a.plus:
        l0 = first_nonzero(grp.series)
        if l0 is not None:
            offer((grp.mu, grp.offset - l0, 0), grp.series.coeff(l0))
    for i in range(len(a.log.P) - 1, -1, -1):
        offer((Fraction(0), Fraction(i), 1), a.log.p_coeff(i))
    for i in range(len(a.log.Q) - 1, -1, -1):
        offer((Fraction(0), Fraction(i), 0), a.log.q_coeff(i))
    for grp in a.minus:
        try:
            l0 = first_nonzero(grp.series)
        except UndecidableSupport:
            if best is None or best[0] < (grp.mu, grp.offset, 0):
                raise
            l0 = None
        if l0 is not None:
            offer((grp.mu, grp.offset - l0, 0), grp.series.coeff(l0))
    return best


def ts_sign(a: TransseriesT1) -> int:
    """Sign of the coefficient of the >>-largest transmonomial."""
    best = _dominant_key(a)
    if best is None:
        return 0
    return 1 if best[1] > 0 else -1


def ts_dominates(a: TransseriesT1, b: TransseriesT1) -> bool:
    """a >> b: the dominant transmonomial of a strictly exceeds that of b."""
    ka = _dominant_key(a)
    kb = _dominant_key(b)
    if ka is None:
        return False
    if kb is None:
        return True
    return ka[0] > kb[0]
