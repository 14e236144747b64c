"""Reference computations: series, quadrature, GL stepping, Monte Carlo.

The frozen literals in here were produced by the oracles themselves and
cross-checked against independent routes (a fixed-Talbot Laplace
inversion for the impulse integral, analytic reductions elsewhere);
they guard against silent regressions.
"""

import math

import numpy as np
import pytest

from dorder.dosys import DensityTerm, RandomParameter, DOSystem
from dorder import oracles
from dorder.oracles import (mittag_leffler, analytic_impulse_example1,
                            variance_double_integrator, freq_response,
                            steady_state_variance_frequency, gl_weights,
                            gl_solve, sample_gaussian_process, ForcingModel,
                            mc_moments, _RunningMoments)


def make_sys(lhs, rhs, params=()):
    return DOSystem(tuple(lhs), tuple(rhs), tuple(params))


def point(side, coeff, order, sense="derivative"):
    return DensityTerm(side, sense, coeff, "point", order=order)


# ---------------------------------------------------------------------------
# Mittag-Leffler

def test_ml_exponential_identity():
    for z in (-3.0, -1.0, 0.3, 1.0, 2.5):
        assert abs(mittag_leffler(1.0, 1.0, z) - math.exp(z)) <= 1e-12 * math.exp(abs(z))


def test_ml_cosine_identity():
    for t in (0.5, 1.0, 2.0):
        assert abs(mittag_leffler(2.0, 1.0, -t * t) - math.cos(t)) <= 1e-12


def test_ml_beta_two_identity():
    z = 0.7
    assert abs(mittag_leffler(1.0, 2.0, z) - (math.exp(z) - 1.0) / z) <= 1e-14


def test_ml_gamma_pole_beta_zero():
    # E_{1,0}(z) = z e^z; the k=0 term vanishes at the Gamma pole
    z = 0.7
    assert abs(mittag_leffler(1.0, 0.0, z) - z * math.exp(z)) <= 1e-14


def test_ml_at_zero_is_reciprocal_gamma():
    assert mittag_leffler(0.5, 1.0, 0.0) == 1.0
    assert abs(mittag_leffler(0.5, 3.0, 0.0) - 0.5) <= 1e-15


def test_ml_rejects_bad_alpha():
    for alpha in (0.0, -1.0):
        with pytest.raises(ValueError):
            mittag_leffler(alpha, 1.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ml_rejects_non_finite_argument(bad):
    with pytest.raises(ValueError, match="z must be finite"):
        mittag_leffler(0.5, 1.0, bad)
    with pytest.raises(ValueError, match="beta must be finite"):
        mittag_leffler(0.5, bad, 1.0)


def test_ml_overflow_raises():
    with pytest.raises(RuntimeError):
        mittag_leffler(0.05, 1.0, -10.0)


# ---------------------------------------------------------------------------
# impulse-response integral, cross-checked by Laplace inversion

def _talbot(G, t, M=24):
    """Fixed-Talbot numerical inverse Laplace transform."""
    r = 2.0 * M / (5.0 * t)
    acc = 0.5 * math.exp(r * t) * G(r)
    for k in range(1, M):
        theta = k * math.pi / M
        c = 1.0 / math.tan(theta)
        s = r * theta * (c + 1j)
        sigma = theta + (theta * c - 1.0) * c
        acc += (np.exp(t * s) * G(s) * (1.0 + 1j * sigma)).real
    return acc * r / M


def _transfer_example1(s):
    L = np.log(s)
    if abs(L) < 1e-6:
        return (0.3 - L * (0.8 ** 2 - 0.5 ** 2) / 2.0
                + L * L * (0.8 ** 3 - 0.5 ** 3) / 6.0)
    return (s ** -0.5 - s ** -0.8) / L


def test_impulse_frozen_values():
    assert abs(analytic_impulse_example1(0.2) - 0.3760252715672614) <= 1e-9
    assert abs(analytic_impulse_example1(1.0) - 0.2155776840766989) <= 1e-9
    assert abs(analytic_impulse_example1(5.0) - 0.1259680129) <= 1e-9


def test_impulse_matches_talbot_inversion():
    for t in (0.3, 1.0, 2.0, 4.0):
        assert abs(analytic_impulse_example1(t) - _talbot(_transfer_example1, t)) <= 1e-4


def test_impulse_rejects_nonpositive_time():
    for t in (0.0, -1.0):
        with pytest.raises(ValueError):
            analytic_impulse_example1(t)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_impulse_rejects_non_finite_time(t):
    with pytest.raises(ValueError, match="finite"):
        analytic_impulse_example1(t)


# ---------------------------------------------------------------------------
# variance integral

def test_variance_at_zero():
    assert variance_double_integrator(0.0) == 0.0


def test_variance_wiener_reduction():
    # a1 = 0 leaves a pure integrator: var(t) = t
    for t in (0.5, 2.0):
        assert abs(variance_double_integrator(t, a1=0.0, a2=1.0,
                                              alpha1=0.5, alpha2=1.0) - t) <= 1e-9


def test_variance_frozen_values():
    assert abs(variance_double_integrator(0.5) - 0.164219317976417) <= 1e-9
    assert abs(variance_double_integrator(1.0) - 0.281180137124294) <= 1e-9
    assert abs(variance_double_integrator(5.0) - 0.925706552699177) <= 1e-9


def test_variance_monotone_increasing():
    ts = (0.25, 0.5, 1.0, 2.0, 4.0)
    vs = [variance_double_integrator(t) for t in ts]
    assert all(b > a for a, b in zip(vs, vs[1:]))


def test_variance_superdiffusive_branch():
    # alpha2 > 1 takes the plain-quadrature path
    v = variance_double_integrator(1.0, 1.0, 1.0, 0.5, 1.25)
    assert abs(v - 0.29851196073438874) <= 1e-8


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_variance_rejects_non_finite_time(t):
    with pytest.raises(ValueError, match="finite"):
        variance_double_integrator(t)


def test_variance_order_validation():
    with pytest.raises(ValueError):
        variance_double_integrator(1.0, 1.0, 1.0, 1.0, 0.75)
    with pytest.raises(ValueError):
        variance_double_integrator(-1.0)


# ---------------------------------------------------------------------------
# frequency domain

def test_freq_response_pure_integrator():
    sysm = make_sys([point("lhs", 1.0, 1.0)], [point("rhs", 1.0, 0.0)])
    g = freq_response(sysm, 2.0)
    assert abs(g - (-0.5j)) <= 1e-14


def test_freq_response_first_order_lag():
    sysm = make_sys([point("lhs", 1.0, 1.0), point("lhs", 1.0, 0.0)],
                    [point("rhs", 1.0, 0.0)])
    w = 3.0
    assert abs(freq_response(sysm, w) - 1.0 / (1j * w + 1.0)) <= 1e-14


def test_freq_response_distributed_closed_form_matches_quadrature():
    # constant density goes through (s^b - s^a)/ln s; a polynomial
    # density with matching values must agree
    term_c = DensityTerm("lhs", "derivative", 1.0, "distributed",
                         lower=0.5, upper=0.8, density={"form": "constant"})
    term_p = DensityTerm("lhs", "derivative", 1.0, "distributed",
                         lower=0.5, upper=0.8, density={"form": "poly", "coeffs": [1.0]})
    rhs = point("rhs", 1.0, 0.0)
    base = point("lhs", 1.0, 0.0)
    s1 = make_sys([term_c, base], [rhs])
    s2 = make_sys([term_p, base], [rhs])
    for w in (0.1, 1.0, 7.0):
        assert abs(freq_response(s1, w) - freq_response(s2, w)) <= 1e-12


def test_freq_response_log_series_fallback():
    # ln s -> 0 on the positive axis near s = 1; the distributed factor
    # tends to the interval width
    from dorder.oracles import _dist_frequency_factor
    term = DensityTerm("lhs", "integral", 1.0, "distributed", lower=0.5, upper=0.8)
    v = _dist_frequency_factor(term, 1.0 + 1e-9 + 0j)
    assert abs(v - 0.3) <= 1e-8


def test_freq_response_at_zero_frequency():
    sysm = make_sys(
        [point("lhs", 1.0, 2.0),
         DensityTerm("lhs", "derivative", 10.0, "distributed", lower=0.8015, upper=0.8893),
         point("lhs", 1.0, 0.0)],
        [point("rhs", 1.0, 0.0)])
    assert freq_response(sysm, 0.0) == 1.0 + 0j
    integ = make_sys([point("lhs", 1.0, 1.0)],
                     [point("rhs", 1.0, 0.0, sense="integral")])
    with pytest.raises(ValueError, match="pole"):
        freq_response(integ, 0.0)


def test_freq_response_unbound_parameter():
    sysm = make_sys([point("lhs", "k", 1.0), point("lhs", 1.0, 0.0)],
                    [point("rhs", 1.0, 0.0)],
                    [RandomParameter("k", "uniform", lo=0.5, hi=1.5)])
    with pytest.raises(ValueError, match="'k'"):
        freq_response(sysm, 1.0)
    g = freq_response(sysm, 1.0, {"k": 1.0})
    assert abs(g - 1.0 / (1j + 1.0)) <= 1e-14


def test_h2_first_order_lag():
    sysm = make_sys([point("lhs", 1.0, 1.0), point("lhs", 1.0, 0.0)],
                    [point("rhs", 1.0, 0.0)])
    assert abs(steady_state_variance_frequency(sysm) - 0.5) <= 1e-6 * 0.5


def test_h2_second_order():
    sysm = make_sys([point("lhs", 1.0, 2.0), point("lhs", 1.0, 1.0),
                     point("lhs", 1.0, 0.0)], [point("rhs", 1.0, 0.0)])
    assert abs(steady_state_variance_frequency(sysm) - 0.5) <= 1e-6 * 0.5


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_h2_divergence_detected():
    # G = s/(s+1) does not decay; the norm is infinite
    sysm = make_sys([point("lhs", 1.0, 1.0), point("lhs", 1.0, 0.0)],
                    [point("rhs", 1.0, 1.0)])
    with pytest.raises(RuntimeError):
        steady_state_variance_frequency(sysm)


# ---------------------------------------------------------------------------
# Grunwald-Letnikov stepping

def test_gl_weights_integer_orders():
    assert np.array_equal(gl_weights(1.0, 5), [1.0, -1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(gl_weights(0.0, 4), [1.0, 0.0, 0.0, 0.0])
    # alpha = -1 gives the running-sum weights of integration
    assert np.array_equal(gl_weights(-1.0, 4), np.ones(4))


def test_gl_weights_half_order():
    assert np.allclose(gl_weights(0.5, 4), [1.0, -0.5, -0.125, -0.0625], rtol=1e-15)


def test_gl_solve_integrator_ramp_exact():
    sysm = make_sys([point("lhs", 1.0, 1.0)], [point("rhs", 1.0, 0.0)])
    h = 0.01
    y = gl_solve(sysm, np.ones(200), h)
    assert np.allclose(y, (np.arange(200) + 1) * h, atol=1e-13)


def test_gl_solve_half_integral_of_step():
    # D^(1/2) y = 1 -> y(t) = t^(1/2) / Gamma(3/2)
    sysm = make_sys([point("lhs", 1.0, 0.5)], [point("rhs", 1.0, 0.0)])
    n, h = 2048, 1.0 / 2048
    y = gl_solve(sysm, np.ones(n), h)
    t = (np.arange(n) + 1) * h
    exact = np.sqrt(t) / math.gamma(1.5)
    assert np.max(np.abs(y - exact)[n // 8:]) < 5e-3


def test_gl_solve_half_order_relaxation_vs_mittag_leffler():
    # D^(1/2) y + y = 0, y(0) = 1 -> y(t) = E_{1/2,1}(-sqrt(t));
    # stepped via the x = y - 1 shift with constant forcing -1
    sysm = make_sys([point("lhs", 1.0, 0.5), point("lhs", 1.0, 0.0)],
                    [point("rhs", 1.0, 0.0)])
    n, h = 2048, 1.0 / 2048
    x = gl_solve(sysm, -np.ones(n), h)
    y = 1.0 + x
    for frac in (0.25, 0.5, 1.0):
        k = int(n * frac) - 1
        t = (k + 1) * h
        assert abs(y[k] - mittag_leffler(0.5, 1.0, -math.sqrt(t))) < 5e-3


def test_gl_solve_distributed_collapses_like_multi_term():
    # a two-point density quadrature equals the explicit two-term system
    dist = DensityTerm("lhs", "derivative", 1.0, "distributed",
                       lower=0.25, upper=0.75, quad_points=2)
    sys_d = make_sys([dist], [point("rhs", 1.0, 0.0)])
    from dorder.dosys import density_quadrature
    two = [point("lhs", w, a) for a, w in density_quadrature(dist)]
    sys_2 = make_sys(two, [point("rhs", 1.0, 0.0)])
    u = np.sin(np.linspace(0.1, 3.0, 128))
    ya = gl_solve(sys_d, u, 0.01)
    yb = gl_solve(sys_2, u, 0.01)
    assert np.allclose(ya, yb, atol=1e-12)


def test_gl_solve_validation():
    sysm = make_sys([point("lhs", 1.0, 1.0)], [point("rhs", 1.0, 0.0)])
    with pytest.raises(ValueError):
        gl_solve(sysm, np.ones((4, 4)), 0.1)
    with pytest.raises(ValueError):
        gl_solve(sysm, np.ones(4), 0.0)
    bound = make_sys([point("lhs", "k", 1.0)], [point("rhs", 1.0, 0.0)],
                     [RandomParameter("k", "uniform", lo=0.5, hi=1.5)])
    with pytest.raises(ValueError, match="'k'"):
        gl_solve(bound, np.ones(4), 0.1)
    assert gl_solve(bound, np.ones(4), 0.25, {"k": 1.0})[0] == 0.25


# ---------------------------------------------------------------------------
# Gaussian process sampling

SQE = lambda a, b: np.exp(-0.5 * (a - b) ** 2)


def test_gp_same_seed_same_path():
    t = np.linspace(0.0, 2.0, 16)
    p1 = sample_gaussian_process(0.0, SQE, t, 42)
    p2 = sample_gaussian_process(0.0, SQE, t, 42)
    p3 = sample_gaussian_process(0.0, SQE, t, 43)
    assert np.array_equal(p1, p2)
    assert not np.array_equal(p1, p3)


def test_gp_mean_function_applied():
    t = np.linspace(0.0, 1.0, 8)
    p = sample_gaussian_process(lambda x: 5.0 + 0.0 * x,
                                lambda a, b: 1e-30 * np.equal(a, b), t, 0)
    assert np.allclose(p, 5.0, atol=1e-10)


def test_gp_empirical_covariance():
    t = np.linspace(0.0, 3.0, 6)
    rng = np.random.default_rng(2024)
    paths = np.array([sample_gaussian_process(0.0, SQE, t, rng) for _ in range(4000)])
    emp = paths.T @ paths / 4000
    assert np.max(np.abs(emp - SQE(t[:, None], t[None, :]))) < 0.12


def test_gp_rejects_indefinite_kernel():
    t = np.linspace(0.0, 1.0, 6)
    with pytest.raises(ValueError, match="positive semidefinite"):
        sample_gaussian_process(0.0, lambda a, b: -np.ones_like(a - b) +
                                2.0 * np.equal(a, b), t, 0)


# ---------------------------------------------------------------------------
# running moments and Monte Carlo

def test_running_moments_match_numpy():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((500, 7)) * 2.0 + 1.0
    acc = _RunningMoments(7)
    for row in x:
        acc.update(row)
    assert np.allclose(acc.mean, x.mean(axis=0), rtol=1e-12)
    assert np.allclose(acc.variance(), x.var(axis=0, ddof=1), rtol=1e-12)
    m4 = ((x - x.mean(axis=0)) ** 4).mean(axis=0)
    assert np.allclose(acc.m4 / acc.n, m4, rtol=1e-10)


def test_mc_bit_reproducible():
    sysm = make_sys([point("lhs", 1.0, 1.0)], [point("rhs", 1.0, 0.0)])
    fm = ForcingModel(mean_fn=0.0, white_intensity=1.0)
    a = mc_moments(sysm, fm, 1.0, 64, 50, seed=77)
    b = mc_moments(sysm, fm, 1.0, 64, 50, seed=77)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.variance, b.variance)
    assert np.array_equal(a.se_variance, b.se_variance)
    c = mc_moments(sysm, fm, 1.0, 64, 50, seed=78)
    assert not np.array_equal(a.mean, c.mean)


def test_mc_wiener_variance_containment():
    # D y = white noise: var(t) = t
    sysm = make_sys([point("lhs", 1.0, 1.0)], [point("rhs", 1.0, 0.0)])
    fm = ForcingModel(mean_fn=0.0, white_intensity=1.0)
    r = mc_moments(sysm, fm, 2.0, 128, 1500, seed=31)
    for frac in (0.5, 1.0):
        i = int(128 * frac) - 1
        t = r.times[i]
        assert abs(r.variance[i] - t) <= 3.0 * r.se_variance[i]
    assert np.all(np.abs(r.mean) <= 4.0 * r.se_mean + 1e-12)


def test_mc_fractional_variance_matches_series_oracle():
    sysm = make_sys([point("lhs", 1.0, 0.75), point("lhs", 1.0, 1.0)],
                    [point("rhs", 1.0, 0.0)])
    fm = ForcingModel(mean_fn=0.0, white_intensity=1.0)
    r = mc_moments(sysm, fm, 2.0, 256, 2000, seed=404)
    for t_probe in (1.0, 2.0):
        i = np.argmin(np.abs(r.times - t_probe))
        ref = variance_double_integrator(r.times[i])
        assert abs(r.variance[i] - ref) <= 3.0 * r.se_variance[i]


def test_mc_random_parameters_only():
    # y = k t with k ~ U[0.5, 1.5]: mean t, variance t^2/12
    sysm = make_sys([point("lhs", 1.0, 1.0)],
                    [point("rhs", "k", 0.0)],
                    [RandomParameter("k", "uniform", lo=0.5, hi=1.5)])
    fm = ForcingModel(mean_fn=1.0)
    r = mc_moments(sysm, fm, 1.0, 32, 3000, seed=5)
    i = 31
    assert abs(r.mean[i] - 1.0) <= 3.0 * r.se_mean[i]
    assert abs(r.variance[i] - 1.0 / 12.0) <= 3.0 * r.se_variance[i]


def test_mc_halton_deterministic_and_accurate():
    sysm = make_sys([point("lhs", 1.0, 1.0)],
                    [point("rhs", "k", 0.0)],
                    [RandomParameter("k", "uniform", lo=0.5, hi=1.5)])
    fm = ForcingModel(mean_fn=1.0)
    a = mc_moments(sysm, fm, 1.0, 16, 800, seed=11, halton=True)
    b = mc_moments(sysm, fm, 1.0, 16, 800, seed=11, halton=True)
    assert np.array_equal(a.mean, b.mean)
    # low-discrepancy draws beat the pseudorandom error here
    assert abs(a.mean[-1] - 1.0) < 2e-3


def test_mc_validation():
    sysm = make_sys([point("lhs", 1.0, 1.0)], [point("rhs", 1.0, 0.0)])
    fm = ForcingModel(mean_fn=0.0, white_intensity=1.0)
    with pytest.raises(ValueError):
        mc_moments(sysm, fm, 1.0, 16, 1, seed=0)
    with pytest.raises(ValueError):
        mc_moments(sysm, fm, 1.0, 0, 10, seed=0)
    with pytest.raises(ValueError, match="broadcast"):
        mc_moments(sysm, ForcingModel(kernel=lambda a, b: 1.0), 1.0, 16, 10, seed=0)
    with pytest.raises(ValueError):
        ForcingModel(mean_fn=0.0, kernel=SQE, white_intensity=1.0)
    with pytest.raises(ValueError):
        ForcingModel(mean_fn=0.0, white_intensity=-1.0)


def test_mc_and_gl_solve_share_one_march():
    # deterministic forcing and coefficients: every sample is gl_solve's path
    sysm = make_sys([point("lhs", 1.0, 0.75), point("lhs", 0.5, 0.0)],
                    [point("rhs", 0.7, 0.0), point("rhs", 1.3, 0.4, "integral")])
    r = mc_moments(sysm, ForcingModel(mean_fn=np.cos), 2.0, 64, 3, seed=1)
    assert np.array_equal(r.mean, gl_solve(sysm, np.cos(r.times), 2.0 / 64))
    assert np.array_equal(r.variance, np.zeros(64))
