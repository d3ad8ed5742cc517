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
    from_minus_term,
    from_plus_term,
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
    "from_minus_term",
    "from_plus_term",
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
