"""Borel-plane machinery: transform, averaging, kernels, Laplace numerics."""

from .borel import BorelPoly, borel_transform, p_integrate_poly
from .averaging import (
    ConsistencyReport,
    average_consistency_check,
    catalan_number,
    catalan_weight,
    catalan_weight_literal,
    parse_address,
)
from .kernels import (
    AiryKernel,
    BorelFunction,
    ClosedFormKernel,
    CothKernel,
    KernelEntry,
    PadeKernel,
    pade_continue,
    pole_kernel,
    sqrt_branch_kernel,
)
from .laplace import (
    QuadratureConfig,
    WatsonReport,
    eb_sum,
    laplace,
    resolve_default,
    watson_check,
)


__all__ = [
    "BorelPoly",
    "borel_transform",
    "p_integrate_poly",
    "ConsistencyReport",
    "average_consistency_check",
    "catalan_number",
    "catalan_weight",
    "catalan_weight_literal",
    "parse_address",
    "AiryKernel",
    "BorelFunction",
    "ClosedFormKernel",
    "CothKernel",
    "PadeKernel",
    "pade_continue",
    "pole_kernel",
    "sqrt_branch_kernel",
    "KernelEntry",
    "QuadratureConfig",
    "WatsonReport",
    "eb_sum",
    "laplace",
    "resolve_default",
    "watson_check",
]
