"""The extension operator, surreal antidifferentiation, and the catalog."""

from .prefactor import Prefactor, exp_prefactor, ln_prefactor
from .tau import (
    PointData,
    SurrealPoint,
    analyze_point,
    exp_purely_infinite,
    g_map_exponent,
    tau_eval,
)
from .catalog import CatalogFunction, catalog, catalog_manifest, monomial_entry
from .values import DecoratedValue, NumericTaylor, SurrealValue, ValueGroup
from .extension import (
    antidiff_no,
    combine_entries,
    exp_surreal_value,
    extend,
    integrate,
    transseriate,
)

__all__ = [
    "Prefactor",
    "exp_prefactor",
    "ln_prefactor",
    "PointData",
    "SurrealPoint",
    "SurrealValue",
    "ValueGroup",
    "analyze_point",
    "exp_purely_infinite",
    "g_map_exponent",
    "tau_eval",
    "CatalogFunction",
    "catalog",
    "catalog_manifest",
    "monomial_entry",
    "DecoratedValue",
    "NumericTaylor",
    "antidiff_no",
    "combine_entries",
    "exp_surreal_value",
    "extend",
    "integrate",
    "transseriate",
]
