"""Borel-plane machinery: transform, averaging, kernels, Laplace numerics."""

from .borel import BorelPoly, borel_transform, convolve, inverse_borel, p_integrate_poly, unit
from .averaging import (
    Address,
    ConsistencyReport,
    all_addresses,
    average_consistency_check,
    catalan_number,
    catalan_weight,
    catalan_weight_literal,
    half_half_weight,
)
from .kernels import (
    AiryKernel,
    BorelFunction,
    ClosedFormKernel,
    CothKernel,
    KernelEntry,
    PadeKernel,
    Singularity,
    log_kernel,
    pade_continue,
    pole_kernel,
    sqrt_branch_kernel,
)
from .laplace import (
    QuadratureConfig,
    WatsonReport,
    average_eval,
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
    "convolve",
    "inverse_borel",
    "p_integrate",
    "p_integrate_poly",
    "unit",
    "Address",
    "ConsistencyReport",
    "all_addresses",
    "average_consistency_check",
    "catalan_number",
    "catalan_weight",
    "catalan_weight_literal",
    "half_half_weight",
    "AiryKernel",
    "BorelFunction",
    "ClosedFormKernel",
    "CothKernel",
    "PadeKernel",
    "Singularity",
    "log_kernel",
    "pade_continue",
    "pole_kernel",
    "sqrt_branch_kernel",
    "KernelEntry",
    "QuadratureConfig",
    "WatsonReport",
    "average_eval",
    "eb_sum",
    "laplace",
    "quad_interval",
    "resolve_default",
    "watson_check",
]
