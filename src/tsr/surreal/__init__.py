"""Exact surreal arithmetic: hereditary normal forms and lazy streams of them."""

from .normal_form import (
    EQ,
    GT,
    LT,
    SurrealNF,
    decompose,
    nf_add,
    nf_cmp,
    nf_mul,
    omega,
    one,
)
from .lazy import LazyNF
from .render import parse_nf, render_nf

__all__ = [
    "EQ",
    "GT",
    "LT",
    "SurrealNF",
    "decompose",
    "nf_add",
    "nf_cmp",
    "nf_mul",
    "omega",
    "one",
    "LazyNF",
    "parse_nf",
    "render_nf",
]
