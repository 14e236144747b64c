"""Distributed-order SISO systems on the block pulse basis.

Operational-matrix solver for linear systems whose dynamics involve
fractional derivatives or integrals of a continuum of orders, with
first and second moment propagation under random forcing and
stochastic collocation over random coefficients.  An independent
reference suite (series, quadrature, time stepping, Monte Carlo)
backs every numerical claim.
"""

__version__ = "0.1.0"

from .bpf import (
    BpfBasis,
    SpectralVector,
    SpectralMatrix,
    make_basis,
    project_function,
    project_bivariate,
    reconstruct,
    reconstruct_bivariate,
    delta_spectral,
    white_noise_covariance,
)
from .opmat import (
    OpMatrix,
    gamma_fn,
    integration_matrix,
    derivative_matrix,
    invert_lower_toeplitz,
    identity_matrix,
    apply,
    compose,
    add,
    scale,
    to_dense,
)
from .dosys import (
    DensityTerm,
    RandomParameter,
    DOSystem,
    density_quadrature,
    term_operator,
    assemble_system_operator,
    system_from_dict,
    system_to_dict,
)
from .detsolve import solve, solve_ivp_shifted, impulse_response
from .stochsolve import (
    StochasticForcing,
    MomentResult,
    CubatureGrid,
    parameter_quadrature,
    tensor_cubature,
    propagate_moments,
    variance_series,
)
from . import oracles

__all__ = [
    "BpfBasis", "SpectralVector", "SpectralMatrix",
    "make_basis", "project_function", "project_bivariate",
    "reconstruct", "reconstruct_bivariate", "delta_spectral",
    "white_noise_covariance",
    "OpMatrix", "gamma_fn", "integration_matrix", "derivative_matrix",
    "invert_lower_toeplitz", "identity_matrix", "apply", "compose",
    "add", "scale", "to_dense",
    "DensityTerm", "RandomParameter", "DOSystem",
    "density_quadrature", "term_operator", "assemble_system_operator",
    "system_from_dict", "system_to_dict",
    "solve", "solve_ivp_shifted", "impulse_response",
    "StochasticForcing", "MomentResult", "CubatureGrid",
    "parameter_quadrature", "tensor_cubature", "propagate_moments",
    "variance_series",
    "oracles",
]
