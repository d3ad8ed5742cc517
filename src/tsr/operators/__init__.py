"""The extension operator, surreal antidifferentiation, and the catalog."""

from .prefactor import Prefactor, ln_prefactor
from .tau import (
    PointData,
    analyze_point,
    exp_purely_infinite,
    g_map_exponent,
    tau_eval,
)
from .catalog import CatalogFunction, catalog, catalog_manifest, monomial_entry
from .values import DecoratedValue, NumericTaylor, SurrealValue, ValueGroup
from .extension import (
    antidiff_no,
    exp_surreal_value,
    extend,
    integrate,
    transseriate,
)

__all__ = [
    "Prefactor",
    "ln_prefactor",
    "PointData",
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
    "exp_surreal_value",
    "extend",
    "integrate",
    "transseriate",
]
