"""Deterministic responses of distributed-order systems.

The forced response is a single ring matvec C_y = A_G C_u.  Initial
value problems of relaxation type are handled by the constant shift
y = x + y0: derivatives of the constant vanish under the zero-initial
condition convention, so x solves the LHS with a unit identity RHS
under the forcing b u - c y0 from x(0) = 0, through the same solve.

A solve costs one inversion of the integral-form LHS column and two
truncated products (opmat).  Up to 512 blocks these are the direct
recurrence and convolutions, O(N^2); above that a Newton inverse
certified by its residual and FFT products, O(N log N).  An impulse
input, or an LHS that is a multiple of the identity, is a scaled unit
column, and its product is exact.
"""

import numpy as np

from .bpf import SpectralVector
from . import opmat
from .dosys import DensityTerm, DOSystem, assemble_system_operator
# not called here; kept bound so perfbench's tracer finds it by name
from .dosys import term_operator  # noqa: F401

__all__ = ["solve", "solve_ivp_shifted"]


def _require_deterministic(sys):
    if sys.random_params:
        raise ValueError(
            "system has random parameters; use the stochastic moment path "
            "(propagate_moments) or bind values via assemble_system_operator")


def solve(sys, input_sv):
    """Forced response with zero initial conditions: C_y = A_G C_u."""
    _require_deterministic(sys)
    ag = assemble_system_operator(sys, input_sv.basis)
    return opmat.apply(ag, input_sv)


def _relaxation_form(sys, y0):
    """(unit_sys, b, c) of a relaxation-type IVP; ValueError on any other shape.

    y0 must be finite.  The LHS must hold an explicit identity term
    (point kind, order 0; the coefficients of all such terms sum to c,
    which may be zero) and the RHS a single identity term, of
    coefficient b.  unit_sys is the LHS with a unit identity RHS:
    y = x + y0 turns the IVP into unit_sys(x) = b * forcing - c * y0
    from rest.
    """
    if not np.isfinite(y0):
        raise ValueError(f"initial value must be finite, got {y0!r}")
    const_terms = [t for t in sys.lhs_terms if t.kind == "point" and t.order == 0.0]
    if not const_terms:
        raise ValueError(
            "shifted solve needs an explicit identity term on the LHS "
            "(point kind, order 0); add one with coefficient 0 if absent")
    if len(sys.rhs_terms) != 1:
        raise ValueError("shifted solve supports a single identity RHS term")
    rt = sys.rhs_terms[0]
    if rt.kind != "point" or rt.order != 0.0:
        raise ValueError(
            f"shifted solve needs an identity RHS term, got {rt.kind} of order {rt.order!r}")
    unit = DensityTerm("rhs", "derivative", 1.0, "point", order=0.0)
    return DOSystem(sys.lhs_terms, (unit,)), rt.coeff, sum(t.coeff for t in const_terms)


def solve_ivp_shifted(sys, y0, forcing):
    """Relaxation-type initial value problem via the constant shift.

    The system must have, on the LHS, fractional or distributed terms
    plus an explicit identity term (point kind, order 0; its
    coefficient c may be zero), and a single identity term b on the
    RHS.  Substituting y = x + y0 gives

        LHS(x) = b * forcing - c * y0,   x(0) = 0,

    which is a plain solve of the LHS with a unit identity RHS, so it
    takes solve's path: one inversion of the integral-form LHS column,
    then two length-N products, each O(N log N) above 512 blocks.  The
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
    unit_sys, b, c = _relaxation_form(sys, y0)
    basis = forcing.basis
    x = solve(unit_sys, SpectralVector(basis, b * forcing.coeffs - c * y0))
    return SpectralVector(basis, x.coeffs + y0)
