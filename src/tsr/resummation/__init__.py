"""Borel-plane machinery: transform, averaging, kernels, Laplace numerics."""

from .borel import BorelPoly, borel_transform, p_integrate_poly
from .averaging import (
    Address,
    ConsistencyReport,
    all_addresses,
    average_consistency_check,
    catalan_number,
    catalan_weight,
    catalan_weight_literal,
)
from .kernels import (
    AiryKernel,
    BorelFunction,
    ClosedFormKernel,
    CothKernel,
    KernelEntry,
    PadeKernel,
    log_kernel,
    pade_continue,
    pole_kernel,
    sqrt_branch_kernel,
)
from .laplace import (
    QuadratureConfig,
    WatsonReport,
    eb_sum,
    laplace,
    quad_interval,
    resolve_default,
    watson_check,
)


def p_integrate(f, m: int = 1):
    """P^m: m-fold antidifferentiation from 0 in the Borel plane."""
    if isinstance(f, BorelPoly):
        return p_integrate_poly(f, m)
    return f.p_integral(m)


__all__ = [
    "BorelPoly",
    "borel_transform",
    "p_integrate",
    "p_integrate_poly",
    "Address",
    "ConsistencyReport",
    "all_addresses",
    "average_consistency_check",
    "catalan_number",
    "catalan_weight",
    "catalan_weight_literal",
    "AiryKernel",
    "BorelFunction",
    "ClosedFormKernel",
    "CothKernel",
    "PadeKernel",
    "log_kernel",
    "pade_continue",
    "pole_kernel",
    "sqrt_branch_kernel",
    "KernelEntry",
    "QuadratureConfig",
    "WatsonReport",
    "eb_sum",
    "laplace",
    "quad_interval",
    "resolve_default",
    "watson_check",
]
