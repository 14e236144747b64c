"""Shipped-claim gate: every numbered criterion prints one PASS/FAIL line.

Each test recomputes its claim from scratch through the public API and
prints a single summary line (visible thanks to tee capture) before
asserting.  The alpha = 1.5 slice of the inversion identity is kept as
a strict expected failure: the derivative recurrence amplifies
roundoff geometrically once the first column of the integration matrix
decays (alpha > 1), so the 1e-10 residual is not reachable in double
precision at any of the required sizes.  The test states that outcome
honestly instead of loosening the bound.
"""

import dataclasses
import json
import math
import os
import statistics
import time

import numpy as np
import pytest

from dorder.bpf import (make_basis, project_function, project_bivariate,
                        delta_spectral, white_noise_covariance, SpectralVector)
from dorder.opmat import (integration_matrix, invert_lower_toeplitz, to_dense)
from dorder.dosys import system_from_dict, assemble_system_operator
from dorder.detsolve import solve, solve_ivp_shifted
from dorder.stochsolve import (StochasticForcing, tensor_cubature,
                               propagate_moments)
from dorder import oracles

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "configs")


def load_system(name):
    with open(os.path.join(CONFIGS, name)) as fh:
        cfg = json.load(fh)
    return system_from_dict(cfg), cfg


def report(number, label, ok):
    print(f"ACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'}")
    return ok


def inversion_residual(alpha, n):
    """Max-norm of B A - I via the Toeplitz ring (exact product columns)."""
    basis = make_basis(n, 5.0)
    a = integration_matrix(alpha, basis)
    b = invert_lower_toeplitz(a)
    r = np.convolve(b.first_col, a.first_col)[:n]
    r[0] -= 1.0
    return float(np.max(np.abs(r)))


# ---------------------------------------------------------------------------

def test_criterion_1_inversion_identity():
    worst = 0.0
    for alpha in (0.25, 0.5, 0.75, 1.0):
        for n in (32, 256, 1024):
            worst = max(worst, inversion_residual(alpha, n))
    ok = worst <= 1e-10
    assert report(1, f"inversion identity alpha<=1 (worst residual {worst:.2e})", ok)


@pytest.mark.xfail(strict=True, reason="first column of the alpha=1.5 integration "
                   "matrix decays, so the inverse recurrence grows ~2.08x per step; "
                   "roundoff is amplified past 1e-10 at N=32 and past the float64 "
                   "range around N=700")
def test_criterion_1_inversion_identity_alpha_15():
    worst = 0.0
    overflowed = []
    for n in (32, 256, 1024):
        try:
            worst = max(worst, inversion_residual(1.5, n))
        except RuntimeError:
            overflowed.append(n)
    ok = not overflowed and worst <= 1e-10
    report(1, f"inversion identity alpha=1.5 (worst residual {worst:.2e}, "
              f"overflow at N={overflowed})", ok)
    assert ok


def test_criterion_2_classical_reduction():
    basis = make_basis(64, 4.0)
    h = 4.0 / 64
    a1 = to_dense(integration_matrix(1.0, basis))
    expected = np.tril(np.full((64, 64), h), -1) + np.eye(64) * (h / 2.0)
    ok = np.array_equal(a1, expected)
    a0 = to_dense(integration_matrix(0.0, basis))
    ok = ok and np.array_equal(a0, np.eye(64))
    assert report(2, "integer-order matrices reduce to textbook forms", ok)


def test_criterion_3_impulse_response_accuracy():
    sysm, _ = load_system("example1.json")
    errs = {}
    for n in (128, 256, 512):
        basis = make_basis(n, 5.0)
        y = solve(sysm, delta_spectral(basis)).coeffs
        t = basis.midpoints()
        mask = (t >= 0.2) & (t <= 5.0)
        ref = np.array([oracles.analytic_impulse_example1(ti) for ti in t[mask]])
        errs[n] = float(np.max(np.abs(y[mask] - ref)))
    ok = errs[512] <= 1e-2 and errs[128] > errs[256] > errs[512]
    assert report(3, "impulse response vs quadrature oracle "
                     f"(err {errs[128]:.2e} > {errs[256]:.2e} > {errs[512]:.2e})", ok)


def test_criterion_4_relaxation_vs_gl_oracle():
    sysm, cfg = load_system("example2.json")
    y0 = float(cfg["initial"])
    n, horizon = 512, 10.0
    basis = make_basis(n, horizon)
    zero = project_function(lambda t: np.zeros_like(t), basis)
    y = solve_ivp_shifted(sysm, y0, zero).coeffs

    n_gl = 1024
    h = horizon / n_gl
    c = sum(t.coeff for t in sysm.lhs_terms
            if t.kind == "point" and t.order == 0.0)
    b = sum(t.coeff for t in sysm.rhs_terms
            if t.kind == "point" and t.order == 0.0)
    x = oracles.gl_solve(sysm, np.full(n_gl, -c * y0 / b), h)
    y_gl = y0 + x[::2]

    err = float(np.max(np.abs(y - y_gl)))
    ok = err <= 1e-2 and y[0] < y0 and bool(np.all(np.diff(y) < 0.0))
    assert report(4, f"initial-value relaxation vs GL stepper (max err {err:.2e}, "
                     "monotone decreasing)", ok)


def test_criterion_5_white_noise_variance():
    sysm, _ = load_system("example3.json")
    n, horizon = 512, 5.0
    basis = make_basis(n, horizon)
    forcing = StochasticForcing(
        project_function(lambda t: np.zeros_like(t), basis),
        white_noise_covariance(basis, 1.0))
    r = propagate_moments(sysm, basis, forcing, None)
    t = basis.midpoints()
    v = r.variance.coeffs  # a block midpoint reconstructs to its own coefficient

    mask = (t >= 0.5) & (t <= 5.0)
    ref = np.array([oracles.variance_double_integrator(ti) for ti in t[mask]])
    rel = float(np.max(np.abs(v[mask] - ref) / ref))
    starts_at_zero = (oracles.variance_double_integrator(0.0) == 0.0
                      and 0.0 <= v[0] <= 1e-2)
    ok = rel <= 0.02 and starts_at_zero
    assert report(5, f"white-noise variance vs series oracle (max rel err "
                     f"{100 * rel:.2f}%, variance starts at zero)", ok)


def test_criterion_6_variance_plateau():
    for build, want in ((lambda: _first_order(), 0.5), (lambda: _second_order(), 0.5)):
        got = oracles.steady_state_variance_frequency(build())
        assert abs(got - want) <= 1e-6 * want

    sysm, _ = load_system("example4.json")
    n, horizon = 512, 5.0
    basis = make_basis(n, horizon)
    forcing = StochasticForcing(
        project_function(lambda t: np.zeros_like(t), basis),
        white_noise_covariance(basis, 1.0))
    r = propagate_moments(sysm, basis, forcing, None)
    t = basis.midpoints()
    v = r.variance.coeffs
    plateau = float(np.mean(v[t >= 0.9 * horizon]))
    ref = oracles.steady_state_variance_frequency(sysm)
    rel = abs(plateau - ref) / ref
    ok = rel <= 0.05
    assert report(6, f"variance plateau vs frequency-domain oracle "
                     f"({plateau:.5f} vs {ref:.5f}, rel {100 * rel:.2f}%)", ok)


def _first_order():
    from dorder.dosys import DensityTerm, DOSystem
    return DOSystem((DensityTerm("lhs", "derivative", 1.0, "point", order=1.0),
                     DensityTerm("lhs", "derivative", 1.0, "point", order=0.0)),
                    (DensityTerm("rhs", "derivative", 1.0, "point", order=0.0),))


def _second_order():
    from dorder.dosys import DensityTerm, DOSystem
    return DOSystem((DensityTerm("lhs", "derivative", 1.0, "point", order=2.0),
                     DensityTerm("lhs", "derivative", 1.0, "point", order=1.0),
                     DensityTerm("lhs", "derivative", 1.0, "point", order=0.0)),
                    (DensityTerm("rhs", "derivative", 1.0, "point", order=0.0),))


def test_criterion_7_collocation_vs_monte_carlo():
    sysm, _ = load_system("example5.json")
    n, horizon = 512, 5.0
    width = 6.283185307179586
    kernel = lambda t1, t2: 0.25 * np.sinc((t1 - t2) / width)

    def pipeline():
        basis = make_basis(n, horizon)
        forcing = StochasticForcing(
            project_function(lambda t: np.ones_like(t), basis),
            project_bivariate(kernel, basis))
        r = propagate_moments(sysm, basis, forcing,
                              tensor_cubature(sysm.random_params))
        return basis, forcing, r

    # median of five passes, each printed: the pass time varies by about
    # 2x between runs of the same code, and one pass cannot rank two commits
    passes = []
    for _ in range(5):
        t0 = time.perf_counter()
        basis, forcing, r5 = pipeline()
        passes.append(time.perf_counter() - t0)
    wall_colloc = statistics.median(passes)
    print("criterion 7 collocation passes (s): " + ", ".join(f"{p:.4f}" for p in passes))
    t = basis.midpoints()
    mean = r5.mean.coeffs
    var = r5.variance.coeffs

    # collocation self-consistency: two extra quadrature nodes per parameter
    bumped = dataclasses.replace(sysm, random_params=tuple(
        dataclasses.replace(p, quad_order=7) for p in sysm.random_params))
    r7 = propagate_moments(bumped, basis, forcing, tensor_cubature(bumped.random_params))
    v7 = r7.variance.coeffs
    dm = float(np.max(np.abs(r7.mean.coeffs - mean)) / np.max(np.abs(mean)))
    dv = float(np.max(np.abs(v7 - var)) / np.max(np.abs(var)))
    consistent = dm <= 1e-3 and dv <= 1e-3

    # containment: 10^4-sample MC on a grid 8x finer, compared at 50
    # uniformly spaced block midpoints; the first blocks are skipped
    # because both estimates and their errors vanish at t -> 0
    fm = oracles.ForcingModel(mean_fn=1.0, kernel=kernel)
    mc_fine = oracles.mc_moments(sysm, fm, horizon, 8 * n, 10000, seed=20240901)
    blocks = np.round(np.linspace(51, n - 1, 50)).astype(int)
    idx = 8 * blocks + 3
    assert np.allclose(t[blocks], mc_fine.times[idx], atol=1e-12)
    z_mean = np.max(np.abs(mean[blocks] - mc_fine.mean[idx]) / mc_fine.se_mean[idx])
    z_var = np.max(np.abs(var[blocks] - mc_fine.variance[idx])
                   / mc_fine.se_variance[idx])
    contained = z_mean <= 3.0 and z_var <= 3.0

    # cost ordering at equal grids
    t0 = time.perf_counter()
    oracles.mc_moments(sysm, fm, horizon, n, 10000, seed=20240901)
    wall_mc = time.perf_counter() - t0
    faster = wall_mc >= 10.0 * wall_colloc

    ok = consistent and contained and faster
    assert report(7, "collocation moments vs seeded MC "
                     f"(|z| mean {z_mean:.2f}, var {z_var:.2f}; q5 vs q7 "
                     f"{max(dm, dv):.1e}; speedup {wall_mc / wall_colloc:.1f}x)", ok)


def test_criterion_8_property_suites():
    rng = np.random.default_rng(7)
    sysm, _ = load_system("example3.json")
    basis = make_basis(64, 2.0)

    # linearity / superposition / causality of the deterministic solver
    u1 = SpectralVector(basis, rng.standard_normal(64))
    u2 = SpectralVector(basis, rng.standard_normal(64))
    y1, y2 = solve(sysm, u1).coeffs, solve(sysm, u2).coeffs
    mix = SpectralVector(basis, 2.0 * u1.coeffs - 3.0 * u2.coeffs)
    linear = float(np.max(np.abs(solve(sysm, mix).coeffs
                                 - (2.0 * y1 - 3.0 * y2)))) <= 1e-12
    cut = SpectralVector(basis, np.where(np.arange(64) < 20, u1.coeffs, 0.0))
    causal = bool(np.array_equal(solve(sysm, cut).coeffs[:20], y1[:20]))

    # output variance equals the diagonal of the dense sandwich
    # A (C + mu mu^T) A^T - m m^T, relative to its uncentred scale
    forcing = StochasticForcing(
        project_function(lambda t: np.sin(t), basis),
        white_noise_covariance(basis, 0.5))
    var = propagate_moments(sysm, basis, forcing, None).variance.coeffs
    a = to_dense(assemble_system_operator(sysm, basis))
    mu = forcing.mean.coeffs
    second = np.diag(a @ (forcing.covariance.coeffs + np.outer(mu, mu)) @ a.T)
    dense_match = (float(np.max(np.abs(var - (second - (a @ mu) ** 2))))
                   <= 1e-12 * float(np.max(np.abs(second))))
    nonnegative = bool(np.all(var >= 0.0))

    # projection round-trip on a function constant on each block
    steps = rng.standard_normal(64)
    fn = lambda tt: steps[np.minimum((np.asarray(tt) / (2.0 / 64)).astype(int), 63)]
    round_trip = bool(np.allclose(project_function(fn, basis).coeffs, steps,
                                  rtol=0.0, atol=1e-13))

    # special-function identities
    ml_ok = all(
        abs(oracles.mittag_leffler(1.0, 1.0, z) - math.exp(z)) <= 1e-12 * math.exp(abs(z))
        for z in (-2.0, 0.5, 1.5))
    ml_ok = ml_ok and all(
        abs(oracles.mittag_leffler(2.0, 1.0, -tt * tt) - math.cos(tt)) <= 1e-12
        for tt in (0.5, 1.5))

    # seeded Monte Carlo is bit-reproducible
    fm = oracles.ForcingModel(mean_fn=0.0, white_intensity=1.0)
    a = oracles.mc_moments(_first_order(), fm, 1.0, 32, 64, seed=3)
    b = oracles.mc_moments(_first_order(), fm, 1.0, 32, 64, seed=3)
    reproducible = (np.array_equal(a.mean, b.mean)
                    and np.array_equal(a.variance, b.variance))

    ok = all((linear, causal, dense_match, nonnegative, round_trip, ml_ok, reproducible))
    assert report(8, "property pack (linearity, causality, variance vs dense sandwich, "
                     "round-trips, series identities, MC reproducibility)", ok)
