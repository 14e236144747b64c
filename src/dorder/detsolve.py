"""Deterministic responses of distributed-order systems.

The forced response is a single ring matvec C_y = A_G C_u.  Initial
value problems of relaxation type are handled by the constant shift
y = x + y0: derivatives of the constant vanish under the zero-initial
condition convention, so x solves the same equation with a constant
extra forcing and x(0) = 0.
"""

import numpy as np

from .bpf import SpectralVector, delta_spectral
from . import opmat
from .dosys import _bind_side, _term_columns, assemble_system_operator
# not called here; kept bound so perfbench's tracer finds it by name
from .dosys import term_operator  # noqa: F401

__all__ = ["solve", "solve_ivp_shifted", "impulse_response"]


def _require_deterministic(sys):
    if sys.random_params:
        raise ValueError(
            "system has random parameters; use the stochastic moment path "
            "(propagate_moments) or bind values via assemble_system_operator")
    for t in sys.lhs_terms + sys.rhs_terms:
        if isinstance(t.coeff, str):
            raise ValueError(
                f"coefficient bound to parameter {t.coeff!r} has no value; "
                "deterministic solve needs fully numeric coefficients")


def solve(sys, input_sv):
    """Forced response with zero initial conditions: C_y = A_G C_u."""
    _require_deterministic(sys)
    ag = assemble_system_operator(sys, input_sv.basis)
    return opmat.apply(ag, input_sv)


def impulse_response(sys, basis):
    """Response to a unit impulse (first-block rectangular pulse)."""
    return solve(sys, delta_spectral(basis))


def solve_ivp_shifted(sys, y0, forcing):
    """Relaxation-type initial value problem via the constant shift.

    The system must have, on the LHS, fractional or distributed terms
    plus an explicit identity term (point kind, order 0; its
    coefficient c may be zero), and a single identity term on the RHS.
    Substituting y = x + y0 gives

        LHS(x) = b * forcing - c * y0,   x(0) = 0,

    which the zero-initial-condition machinery solves directly; the
    returned coefficients are those of y = x + y0.

    Parameters
    ----------
    sys : DOSystem
    y0 : float
        Initial value y(0).
    forcing : SpectralVector
        Forcing u; the RHS identity coefficient b multiplies it.

    Returns
    -------
    SpectralVector
    """
    _require_deterministic(sys)
    if not np.isfinite(y0):
        raise ValueError(f"initial value must be finite, got {y0!r}")
    basis = forcing.basis

    const_terms = [t for t in sys.lhs_terms if t.kind == "point" and t.order == 0.0]
    if not const_terms:
        raise ValueError(
            "shifted solve needs an explicit identity term on the LHS "
            "(point kind, order 0); add one with coefficient 0 if absent")
    c = sum(t.coeff for t in const_terms)

    if len(sys.rhs_terms) != 1:
        raise ValueError("shifted solve supports a single identity RHS term")
    rt = sys.rhs_terms[0]
    if rt.kind != "point" or rt.order != 0.0:
        raise ValueError(
            f"shifted solve needs an identity RHS term, got {rt.kind} of order {rt.order!r}")
    b = rt.coeff

    lhs_col = _bind_side(_term_columns(sys.lhs_terms, basis), basis.n_funcs, None)
    inv = opmat.invert_lower_toeplitz(opmat.OpMatrix(basis, lhs_col, label="LHS"))

    shifted = b * forcing.coeffs - c * y0 * np.ones(basis.n_funcs)
    x = np.convolve(inv.first_col, shifted)[:basis.n_funcs]
    return SpectralVector(basis, x + y0)
