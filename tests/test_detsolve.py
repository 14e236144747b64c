"""Deterministic responses: superposition, causality, shifted IVPs."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dorder.bpf import make_basis, SpectralVector, delta_spectral, project_function
from dorder.dosys import (DensityTerm, RandomParameter, DOSystem, system_from_dict,
                          term_operator, _integral_shift)
from dorder.detsolve import solve, solve_ivp_shifted
from dorder import opmat, oracles

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "configs")


def make_sys(lhs, rhs, params=()):
    return DOSystem(tuple(lhs), tuple(rhs), tuple(params))


INTEGRATOR = make_sys(
    [DensityTerm("lhs", "derivative", 1.0, "point", order=1.0)],
    [DensityTerm("rhs", "derivative", 1.0, "point", order=0.0)])

MIXED = make_sys(
    [DensityTerm("lhs", "derivative", 1.0, "point", order=0.75),
     DensityTerm("lhs", "derivative", 1.0, "point", order=1.0)],
    [DensityTerm("rhs", "derivative", 1.0, "point", order=0.0)])


def test_impulse_of_integrator_is_unit_step():
    # I delta = step; its block averages are (1/2, 1, 1, ...)
    b = make_basis(16, 2.0)
    y = solve(INTEGRATOR, delta_spectral(b))
    expect = np.ones(16)
    expect[0] = 0.5
    assert np.allclose(y.coeffs, expect, atol=1e-13)


def test_step_response_of_integrator_is_ramp():
    b = make_basis(8, 2.0)
    u = project_function(lambda t: np.ones_like(t), b)
    y = solve(INTEGRATOR, u)
    assert np.allclose(y.coeffs, b.midpoints(), atol=1e-13)


def test_linearity():
    rng = np.random.default_rng(5)
    b = make_basis(64, 3.0)
    u = SpectralVector(b, rng.standard_normal(64))
    v = SpectralVector(b, rng.standard_normal(64))
    a, c = 2.5, -1.25
    lhs = solve(MIXED, SpectralVector(b, a * u.coeffs + c * v.coeffs))
    rhs = a * solve(MIXED, u).coeffs + c * solve(MIXED, v).coeffs
    assert np.max(np.abs(lhs.coeffs - rhs)) <= 1e-12


def test_causality():
    # inputs that agree on the first k blocks give outputs that agree there
    rng = np.random.default_rng(6)
    b = make_basis(32, 1.0)
    u1 = rng.standard_normal(32)
    u2 = u1.copy()
    u2[20:] += rng.standard_normal(12)
    y1 = solve(MIXED, SpectralVector(b, u1)).coeffs
    y2 = solve(MIXED, SpectralVector(b, u2)).coeffs
    assert np.array_equal(y1[:20], y2[:20])
    assert not np.allclose(y1[20:], y2[20:])


# Max abs error on the block coefficients at N = 64 / 256 / 1024, horizon 5
# (measured); each bound is about 10x the N=1024 figure.  Orders in (1, 2)
# are the ones whose derivative matrix overflows at these sizes.
@pytest.mark.parametrize("alpha, measured, bound", [
    (1.5, (7.3e-4, 9.5e-5, 1.2e-5), 1.2e-4),
    (1.8, (6.4e-4, 4.0e-5, 2.9e-6), 3e-5),
    (2.0, (1.3e-3, 8.1e-5, 5.0e-6), 5e-5),
    (3.0, (4.0e-3, 2.5e-4, 1.6e-5), 1.6e-4),
])
def test_step_response_vs_mittag_leffler(alpha, measured, bound):
    # D^alpha y + y = 1 from rest: y = t^alpha E_(alpha, alpha+1)(-t^alpha)
    sysm = make_sys(
        [DensityTerm("lhs", "derivative", 1.0, "point", order=alpha),
         DensityTerm("lhs", "derivative", 1.0, "point", order=0.0)],
        [DensityTerm("rhs", "derivative", 1.0, "point", order=0.0)])
    errs = []
    for n in (64, 256, 1024):
        b = make_basis(n, 5.0)
        y = solve(sysm, project_function(lambda t: np.ones_like(t), b)).coeffs
        ref = [t ** alpha * oracles.mittag_leffler(alpha, alpha + 1.0, -t ** alpha)
               for t in b.midpoints()]
        errs.append(float(np.max(np.abs(y - ref))))
    assert errs[0] > errs[1] > errs[2], f"errors {errs} (measured {measured})"
    assert errs[2] <= bound, f"errors {errs} (measured {measured})"


def test_random_system_needs_moment_path():
    b = make_basis(8, 1.0)
    sysm = make_sys(
        [DensityTerm("lhs", "derivative", "k", "point", order=1.0)],
        [DensityTerm("rhs", "derivative", 1.0, "point", order=0.0)],
        [RandomParameter("k", "uniform", lo=0.5, hi=1.5)])
    with pytest.raises(ValueError, match="propagate_moments"):
        solve(sysm, delta_spectral(b))


def test_ivp_relaxation_matches_exponential():
    # dy/dt + k y = 0, y(0) = 1 -> exp(-k t)
    k = 0.5
    sysm = make_sys(
        [DensityTerm("lhs", "derivative", 1.0, "point", order=1.0),
         DensityTerm("lhs", "derivative", k, "point", order=0.0)],
        [DensityTerm("rhs", "derivative", 1.0, "point", order=0.0)])
    b = make_basis(512, 2.0)
    zero = project_function(lambda t: np.zeros_like(t), b)
    y = solve_ivp_shifted(sysm, 1.0, zero)
    assert np.max(np.abs(y.coeffs - np.exp(-k * b.midpoints()))) < 1e-3


def test_ivp_starts_at_initial_value():
    sysm = make_sys(
        [DensityTerm("lhs", "derivative", 1.0, "point", order=1.0),
         DensityTerm("lhs", "derivative", 0.1, "point", order=0.0)],
        [DensityTerm("rhs", "derivative", 1.0, "point", order=0.0)])
    b = make_basis(1024, 1.0)
    zero = project_function(lambda t: np.zeros_like(t), b)
    y = solve_ivp_shifted(sysm, 3.0, zero)
    assert abs(y.coeffs[0] - 3.0) < 1e-3
    assert np.all(np.diff(y.coeffs) < 0)


def test_ivp_zero_initial_equals_plain_solve():
    b = make_basis(64, 2.0)
    sysm = make_sys(
        [DensityTerm("lhs", "derivative", 1.0, "point", order=1.0),
         DensityTerm("lhs", "derivative", 0.3, "point", order=0.0)],
        [DensityTerm("rhs", "derivative", 1.0, "point", order=0.0)])
    u = project_function(np.cos, b)
    assert np.allclose(solve_ivp_shifted(sysm, 0.0, u).coeffs,
                       solve(sysm, u).coeffs, atol=1e-12)


def test_ivp_inverts_one_column(monkeypatch):
    # ex2's distributed relaxation: no inversion per order-quadrature point,
    # one for the integral-form LHS
    with open(os.path.join(CONFIGS, "example2.json")) as fh:
        sysm = system_from_dict(json.load(fh))
    b = make_basis(64, 10.0)
    calls = []
    invert = opmat.invert_lower_toeplitz
    monkeypatch.setattr(opmat, "invert_lower_toeplitz",
                        lambda m: calls.append(m.label) or invert(m))
    solve_ivp_shifted(sysm, 1.0, project_function(lambda t: np.zeros_like(t), b))
    assert calls == ["LHS"]


def test_ivp_shape_requirements():
    b = make_basis(8, 1.0)
    zero = project_function(lambda t: np.zeros_like(t), b)
    no_zero_order = make_sys(
        [DensityTerm("lhs", "derivative", 1.0, "point", order=1.0)],
        [DensityTerm("rhs", "derivative", 1.0, "point", order=0.0)])
    with pytest.raises(ValueError, match="order"):
        solve_ivp_shifted(no_zero_order, 1.0, zero)
    bad_rhs = make_sys(
        [DensityTerm("lhs", "derivative", 1.0, "point", order=1.0),
         DensityTerm("lhs", "derivative", 0.1, "point", order=0.0)],
        [DensityTerm("rhs", "derivative", 1.0, "point", order=1.0)])
    with pytest.raises(ValueError):
        solve_ivp_shifted(bad_rhs, 1.0, zero)


@st.composite
def relaxation_lhs(draw):
    """1-3 point or distributed LHS terms of order up to 2, plus an identity term c."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        coeff = draw(st.floats(0.1, 2.0))
        if draw(st.booleans()):
            terms.append(DensityTerm("lhs", "derivative", coeff, "point",
                                     order=draw(st.floats(0.05, 2.0))))
        else:
            lo = draw(st.floats(0.0, 1.5))
            terms.append(DensityTerm("lhs", "derivative", coeff, "distributed", lower=lo,
                                     upper=draw(st.floats(lo + 0.1, 2.0)),
                                     quad_points=draw(st.integers(1, 4))))
    c = draw(st.just(0.0) | st.floats(0.1, 2.0))
    return tuple(terms) + (DensityTerm("lhs", "derivative", c, "point", order=0.0),), c


# Tolerance 2e-12 of |y0| + max|x|; a 3000-example scan measured at most
# 1.1e-13 (N=31, horizon 8.8, dense LHS condition number 6.8e3).  y0 is
# never subnormal: there the bound underflows to 0, and the dense
# reference's A_gamma (-c y0) can underflow to 0 where the program
# rounds correctly (test_ivp_subnormal_initial_value_rounds_to_zero).
@settings(max_examples=60, deadline=None)
@given(relaxation_lhs(), st.just(0.0) | st.floats(-2.0, 2.0), st.integers(1, 48),
       st.floats(0.5, 10.0), st.floats(-3.0, 3.0, allow_subnormal=False),
       st.integers(0, 2 ** 32 - 1))
def test_ivp_matches_dense_integral_form(lhs_c, b, n, horizon, y0, seed):
    # y = y0 + x with L_gamma x = A_gamma (b u - c y0), all dense
    lhs, c = lhs_c
    sysm = DOSystem(lhs, (DensityTerm("rhs", "derivative", b, "point", order=0.0),))
    basis = make_basis(n, horizon)
    u = np.random.default_rng(seed).standard_normal(n)
    got = solve_ivp_shifted(sysm, y0, SpectralVector(basis, u)).coeffs
    shift = _integral_shift(sysm)
    l_gamma = sum(opmat.to_dense(term_operator(t, basis, shift=shift)) for t in lhs)
    a_gamma = opmat.to_dense(opmat.integration_matrix(shift, basis))
    x = np.linalg.solve(l_gamma, a_gamma @ (b * u - c * y0))
    assert np.max(np.abs(got - (y0 + x))) <= 2e-12 * (abs(y0) + np.max(np.abs(x)))


def test_ivp_subnormal_initial_value_rounds_to_zero():
    # y = 0.4888 y0 exactly; at y0 = 5e-324 that is 2.41e-324, below half
    # the smallest subnormal, so 0 is the correctly rounded response
    sysm = make_sys(
        [DensityTerm("lhs", "derivative", 1.0, "distributed", lower=1.5, upper=1.75,
                     quad_points=1),
         DensityTerm("lhs", "derivative", 1.0, "point", order=0.0)],
        [DensityTerm("rhs", "derivative", 0.0, "point", order=0.0)])
    zero = SpectralVector(make_basis(1, 1.0), np.zeros(1))
    assert solve_ivp_shifted(sysm, 1.0, zero).coeffs[0] == pytest.approx(0.48878, rel=1e-4)
    assert solve_ivp_shifted(sysm, 5e-324, zero).coeffs[0] == 0.0
