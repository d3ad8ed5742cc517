"""Height-one, depth-one transseries calculus."""

from .series import PowerSeries
from .grid import (
    Group,
    LogPart,
    TransseriesT1,
    assemble,
    eq_to_order,
    groups_of,
    semantic_terms,
)
from .calculus import (
    ts_add,
    ts_antidiff,
    ts_diff,
    ts_mul_minus,
    ts_scale,
)
from .parser import ts_parse, ts_print, ts_to_json, ts_from_json

__all__ = [
    "PowerSeries",
    "Group",
    "LogPart",
    "TransseriesT1",
    "assemble",
    "eq_to_order",
    "groups_of",
    "semantic_terms",
    "ts_add",
    "ts_antidiff",
    "ts_diff",
    "ts_mul_minus",
    "ts_scale",
    "ts_parse",
    "ts_print",
    "ts_to_json",
    "ts_from_json",
]
