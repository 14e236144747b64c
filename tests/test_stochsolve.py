"""Moment propagation: cubature, expectation operators, variance, covariance factor."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dorder.bpf import (make_basis, SpectralVector, SpectralMatrix, project_function,
                        project_bivariate, project_stationary, white_noise_covariance)
from dorder import opmat
from dorder.opmat import to_dense
from dorder.dosys import (DensityTerm, RandomParameter, DOSystem,
                          assemble_system_operator, system_from_dict, _system_columns,
                          _bind)
from dorder.stochsolve import (StochasticForcing, CubatureGrid,
                               parameter_quadrature, tensor_cubature,
                               propagate_moments, _node_moments, _PSD_RTOL)
from dorder.detsolve import solve

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "configs")


def simple_sys(lhs_orders, rhs_coeff=1.0, params=()):
    lhs = tuple(DensityTerm("lhs", "derivative", c, "point", order=o)
                for c, o in lhs_orders)
    rhs = (DensityTerm("rhs", "derivative", rhs_coeff, "point", order=0.0),)
    return DOSystem(lhs, rhs, tuple(params))


# ---------------------------------------------------------------------------
# parameter quadrature and cubature grids

def unzip(pairs):
    return (np.array([x for x, _ in pairs]), np.array([w for _, w in pairs]))


def test_uniform_quadrature_moments():
    p = RandomParameter("a", "uniform", lo=1.0, hi=3.0, quad_order=4)
    x, w = unzip(parameter_quadrature(p))
    assert np.isclose(w.sum(), 1.0, rtol=1e-14)
    assert np.all((x > 1.0) & (x < 3.0))
    # exact for polynomial degree up to 2*4-1; check first three moments
    for k in (1, 2, 3):
        exact = (3.0 ** (k + 1) - 1.0) / ((k + 1) * 2.0)
        assert np.isclose(np.sum(w * x ** k), exact, rtol=1e-13)


def test_uniform_two_point_rule():
    p = RandomParameter("a", "uniform", lo=9.5, hi=10.5, quad_order=2)
    x, w = unzip(parameter_quadrature(p))
    assert np.allclose(w, [0.5, 0.5], rtol=1e-15)
    assert np.allclose(np.sort(x), 10.0 + np.array([-0.5, 0.5]) / np.sqrt(3.0),
                       rtol=1e-14)


def test_gaussian_quadrature_moments():
    p = RandomParameter("g", "gaussian", mean=2.0, stddev=0.5, quad_order=6)
    x, w = unzip(parameter_quadrature(p))
    assert np.isclose(w.sum(), 1.0, rtol=1e-13)
    assert np.isclose(np.sum(w * x), 2.0, rtol=1e-13)
    assert np.isclose(np.sum(w * (x - 2.0) ** 2), 0.25, rtol=1e-13)
    assert np.isclose(np.sum(w * (x - 2.0) ** 3), 0.0, atol=1e-13)


def test_tensor_cubature_graded_order():
    params = (RandomParameter("a", "uniform", lo=0.0, hi=1.0, quad_order=2),
              RandomParameter("b", "uniform", lo=0.0, hi=1.0, quad_order=3))
    grid = tensor_cubature(params)
    assert len(grid) == 6
    assert np.isclose(grid.weights.sum(), 1.0, rtol=1e-14)
    assert all(set(node) == {"a", "b"} for node in grid.nodes)
    # node index sums never decrease along the enumeration
    xa, _ = unzip(parameter_quadrature(params[0]))
    xb, _ = unzip(parameter_quadrature(params[1]))
    sums = [int(np.argmin(np.abs(xa - n["a"]))) + int(np.argmin(np.abs(xb - n["b"])))
            for n in grid.nodes]
    assert sums == sorted(sums)


def test_tensor_cubature_of_no_parameters_is_one_unit_node():
    # the empty product: the grid a deterministic system is propagated on
    grid = tensor_cubature(())
    assert grid.nodes == ({},)
    assert np.array_equal(grid.weights, [1.0])


def test_cubature_grid_rejects_negative_weights():
    # a negative weight could make the centred variance negative
    with pytest.raises(ValueError, match="non-negative"):
        CubatureGrid(({"k": 0.0}, {"k": 1.0}), np.array([1.5, -0.5]))
    with pytest.raises(ValueError, match="non-negative"):
        CubatureGrid(({"k": 0.0},), np.array([np.nan]))


# ---------------------------------------------------------------------------
# expectations over the cubature grid

def test_mean_linear_in_rhs_param():
    # A_G depends linearly on an RHS coefficient, so E[A_G] = A_G(E[k])
    b = make_basis(32, 1.0)
    sysm = DOSystem(
        (DensityTerm("lhs", "derivative", 1.0, "point", order=1.0),),
        (DensityTerm("rhs", "derivative", "k", "point", order=0.0),),
        (RandomParameter("k", "uniform", lo=0.5, hi=2.5, quad_order=4),))
    # input mean e_0: the output mean is the first column of E[A_G]
    e0 = np.zeros(32)
    e0[0] = 1.0
    f = StochasticForcing(SpectralVector(b, e0), SpectralMatrix(b, np.zeros((32, 32))))
    ea = propagate_moments(sysm, b, f).mean
    at_mean = assemble_system_operator(sysm, b, {"k": 1.5})
    assert np.allclose(ea.coeffs, at_mean.first_col, atol=1e-14)


def test_deterministic_moments_match_direct():
    rng = np.random.default_rng(1)
    b = make_basis(24, 1.0)
    sysm = simple_sys([(1.0, 1.0), (0.4, 0.0)])
    g = rng.standard_normal((24, 24))
    m = g @ g.T
    mu = rng.standard_normal(24)
    f = StochasticForcing(SpectralVector(b, mu), SpectralMatrix(b, m))
    r = propagate_moments(sysm, b, f)
    a = to_dense(assemble_system_operator(sysm, b))
    direct = np.diag(a @ m @ a.T)
    assert np.allclose(r.variance.coeffs, direct, rtol=0.0, atol=1e-12 * np.abs(direct).max())
    assert np.allclose(r.mean.coeffs, a @ mu, rtol=0.0, atol=1e-12 * np.abs(a @ mu).max())


def test_expected_operator_order_insensitive():
    b = make_basis(16, 1.0)
    sysm = DOSystem(
        (DensityTerm("lhs", "derivative", "k", "point", order=1.0),
         DensityTerm("lhs", "derivative", 1.0, "point", order=0.0)),
        (DensityTerm("rhs", "derivative", 1.0, "point", order=0.0),),
        (RandomParameter("k", "uniform", lo=0.5, hi=1.5, quad_order=7),))
    grid = tensor_cubature(sysm.random_params)
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(grid))
    shuffled = CubatureGrid(tuple(grid.nodes[i] for i in perm), grid.weights[perm])
    # input mean e_0: the output mean is the first column of E[A_G]
    e0 = np.zeros(16)
    e0[0] = 1.0
    f = StochasticForcing(SpectralVector(b, e0), SpectralMatrix(b, np.zeros((16, 16))))
    a = propagate_moments(sysm, b, f, grid).mean.coeffs
    c = propagate_moments(sysm, b, f, shuffled).mean.coeffs
    assert np.max(np.abs(a - c)) <= 1e-13 * max(1.0, np.max(np.abs(a)))


def test_variance_order_insensitive():
    b = make_basis(16, 1.0)
    sysm = DOSystem(
        (DensityTerm("lhs", "derivative", "k", "point", order=1.0),
         DensityTerm("lhs", "derivative", 1.0, "point", order=0.0)),
        (DensityTerm("rhs", "derivative", 1.0, "point", order=0.0),),
        (RandomParameter("k", "uniform", lo=0.5, hi=1.5, quad_order=7),))
    grid = tensor_cubature(sysm.random_params)
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(grid))
    shuffled = CubatureGrid(tuple(grid.nodes[i] for i in perm), grid.weights[perm])
    f = StochasticForcing(project_function(np.cos, b), white_noise_covariance(b, 0.3))
    r = propagate_moments(sysm, b, f, grid)
    s = propagate_moments(sysm, b, f, shuffled)
    for a, c in ((r.mean.coeffs, s.mean.coeffs), (r.variance.coeffs, s.variance.coeffs)):
        assert np.max(np.abs(a - c)) <= 1e-13 * max(1.0, np.max(np.abs(a)))


def test_node_failure_names_node():
    b = make_basis(8, 1.0)
    sysm = DOSystem(
        (DensityTerm("lhs", "derivative", "k", "point", order=0.0),),
        (DensityTerm("rhs", "derivative", 1.0, "point", order=0.0),),
        (RandomParameter("k", "uniform", lo=-1.0, hi=1.0, quad_order=3),))
    grid = tensor_cubature(sysm.random_params)
    # middle node sits at k=0: singular LHS
    f = StochasticForcing(zero_mean(b), white_noise_covariance(b, 1.0))
    with pytest.raises(ValueError, match="node 1"):
        propagate_moments(sysm, b, f, grid)


def test_one_inversion_per_node(monkeypatch):
    # ex5's order columns are integration matrices, built once per call
    # with no inversion; then each cubature node inverts only its own LHS
    with open(os.path.join(CONFIGS, "example5.json")) as fh:
        sysm = system_from_dict(json.load(fh))
    b = make_basis(32, 5.0)
    calls = []
    invert = opmat.invert_lower_toeplitz

    def counting(m):
        calls.append(m.label)
        return invert(m)

    monkeypatch.setattr(opmat, "invert_lower_toeplitz", counting)
    _system_columns(sysm, b)
    assert calls == []
    grid = tensor_cubature(sysm.random_params)
    f = StochasticForcing(project_function(np.cos, b), white_noise_covariance(b, 0.3))
    propagate_moments(sysm, b, f, grid)
    assert calls == ["LHS"] * len(grid)


# ---------------------------------------------------------------------------
# moment propagation

def zero_mean(b):
    return project_function(lambda t: np.zeros_like(t), b)


def test_white_noise_through_identity():
    b = make_basis(16, 2.0)
    sysm = simple_sys([(1.0, 0.0)])
    f = StochasticForcing(zero_mean(b), white_noise_covariance(b, 0.7))
    r = propagate_moments(sysm, b, f)
    assert np.allclose(r.mean.coeffs, 0.0, atol=1e-15)
    assert np.allclose(r.variance.coeffs, 0.7 * (16 / 2.0), rtol=0.0, atol=1e-12)


def test_mean_propagation_matches_deterministic_solve():
    b = make_basis(32, 1.0)
    sysm = simple_sys([(1.0, 0.5), (1.0, 1.0)])
    mean = project_function(np.sin, b)
    f = StochasticForcing(mean, SpectralMatrix(b, np.zeros((32, 32))))
    r = propagate_moments(sysm, b, f)
    assert np.allclose(r.mean.coeffs, solve(sysm, mean).coeffs, atol=1e-14)
    assert np.abs(r.variance.coeffs).max() <= 1e-14


def test_deterministic_forcing_random_system_gives_parameter_variance():
    b = make_basis(16, 1.0)
    sysm = DOSystem(
        (DensityTerm("lhs", "derivative", 1.0, "point", order=1.0),),
        (DensityTerm("rhs", "derivative", "k", "point", order=0.0),),
        (RandomParameter("k", "uniform", lo=0.5, hi=1.5, quad_order=5),))
    mean = project_function(lambda t: np.ones_like(t), b)
    f = StochasticForcing(mean, SpectralMatrix(b, np.zeros((16, 16))))
    r = propagate_moments(sysm, b, f)
    # y = k t; var(y) = var(k) t^2 = (1/12) t^2
    t = b.midpoints()
    assert np.allclose(r.variance.coeffs, t ** 2 / 12.0, rtol=1e-10, atol=1e-13)


def test_basis_mismatch_rejected():
    b = make_basis(8, 1.0)
    other = make_basis(8, 2.0)
    f = StochasticForcing(zero_mean(other), white_noise_covariance(other, 1.0))
    with pytest.raises(ValueError, match="basis"):
        propagate_moments(simple_sys([(1.0, 1.0)]), b, f)


def test_input_covariance_validation():
    b = make_basis(8, 1.0)
    bad = np.eye(8)
    bad[0, 1] = 0.5  # asymmetric
    with pytest.raises(ValueError, match="symmetric"):
        StochasticForcing(zero_mean(b), SpectralMatrix(b, bad))
    indef = np.eye(8)
    indef[0, 1] = indef[1, 0] = 2.0  # symmetric but indefinite
    with pytest.raises(ValueError, match="positive semidefinite"):
        StochasticForcing(zero_mean(b), SpectralMatrix(b, indef))


def dense_variance(sysm, b, f, grid):
    """sum_j w_j diag(A_j (C + mu mu^T) A_j^T) - mean^2 from dense A_j, and its scale."""
    mu = f.mean.coeffs
    inner = f.covariance.coeffs + np.outer(mu, mu)
    dense = [to_dense(assemble_system_operator(sysm, b, node)) for node in grid.nodes]
    second = sum(w * np.diag(a @ inner @ a.T) for w, a in zip(grid.weights, dense))
    mean = sum(w * (a @ mu) for w, a in zip(grid.weights, dense))
    return second - mean ** 2, np.abs(second).max()


def random_covariance(kind, rng, b, rank):
    """A PSD covariance of the given kind on basis b."""
    n = b.n_funcs
    if kind == "diagonal":  # non-negative, some exact zeros
        return np.where(rng.random(n) < 0.3, 0.0, rng.random(n)) * np.eye(n)
    if kind == "sinc":
        width = rng.uniform(0.5, 5.0)
        return project_bivariate(lambda t1, t2: np.sinc((t1 - t2) / width), b).coeffs
    if kind == "exp":
        ell = rng.uniform(0.1, 2.0)
        return project_bivariate(lambda t1, t2: np.exp(-np.abs(t1 - t2) / ell), b).coeffs
    g = rng.standard_normal((n, min(rank, n))) / np.sqrt(n)
    return g @ g.T


def expected_factor_method(kind, n, rank):
    """The factor path of random_covariance(kind, ...), None where either may run."""
    if kind == "diagonal" or n == 1:  # a 1 x 1 matrix is diagonal
        return "diagonal"
    if kind == "lowrank":  # exact rank min(rank, n); pivoted Cholesky stops at N // 4
        return "pivoted_cholesky" if rank <= n // 4 else "eigh"
    return "eigh" if kind == "exp" else None  # exp is full rank


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 48),
       st.floats(0.1, 2.0), st.floats(0.0, 1.0), st.integers(1, 4), st.integers(1, 24),
       st.sampled_from(["lowrank", "diagonal", "sinc", "exp"]))
def test_variance_matches_dense_sandwich(seed, n, order1, order2, q, rank, kind):
    # exact in exact arithmetic up to the factor's cut; the dense reference
    # subtracts mean^2 from the second moment, so the tolerance is relative
    # to the second moment.  "diagonal" takes the diagonal path, "exp" the
    # truncated eigendecomposition, "lowrank" pivoted Cholesky up to rank
    # N // 4 and the eigendecomposition above, "sinc" either by its width.
    rng = np.random.default_rng(seed)
    b = make_basis(n, 2.0)
    sysm = DOSystem(
        (DensityTerm("lhs", "derivative", 1.0, "point", order=order1),
         DensityTerm("lhs", "derivative", "k", "point", order=order2)),
        (DensityTerm("rhs", "derivative", "g", "point", order=0.0),),
        (RandomParameter("k", "uniform", lo=0.2, hi=1.0, quad_order=q),
         RandomParameter("g", "gaussian", mean=1.0, stddev=0.3, quad_order=2)))
    f = StochasticForcing(SpectralVector(b, rng.standard_normal(n)),
                          SpectralMatrix(b, random_covariance(kind, rng, b, rank)))
    assert f.factor_method in (expected_factor_method(kind, n, rank) or
                               ("pivoted_cholesky", "eigh"))
    assert 0.0 <= f.psd_margin <= _PSD_RTOL
    grid = tensor_cubature(sysm.random_params)
    var = propagate_moments(sysm, b, f, grid).variance.coeffs
    ref, scale = dense_variance(sysm, b, f, grid)
    assert np.max(np.abs(var - ref)) <= 1e-12 * scale
    assert np.all(var >= 0.0)


@pytest.mark.parametrize("delta", [1e-9, 1e-6])
def test_uncertified_factor_falls_back_to_eigh(delta):
    # rank 2 plus an indefinite +-delta max|C| pair off the diagonal:
    # pivoted Cholesky stops at rank 2 with max|R| = delta max|C|, and
    # N delta = 3.2e-8 > _PSD_RTOL cannot certify C, so eigh decides.  It
    # accepts lambda_min = -9.8e-10 max|C| and rejects -9.8e-7 max|C|.
    n = 32
    g = np.random.default_rng(3).standard_normal((n, 2))
    c = g @ g.T
    c[3, 7] = c[7, 3] = c[3, 7] + delta * np.abs(c).max()
    b = make_basis(n, 1.0)
    if delta > _PSD_RTOL:
        with pytest.raises(ValueError, match="not positive semidefinite"):
            StochasticForcing(zero_mean(b), SpectralMatrix(b, c))
        return
    f = StochasticForcing(zero_mean(b), SpectralMatrix(b, c))
    lam = np.linalg.eigvalsh(c)
    assert f.factor_method == "eigh"
    assert f.psd_margin == pytest.approx(-lam[0] / np.abs(c).max(), rel=1e-6)
    assert f.rank == np.count_nonzero(lam > n * np.finfo(float).eps * lam[-1])


def ex5_sinc_covariance(n):
    with open(os.path.join(CONFIGS, "example5.json")) as fh:
        cfg = json.load(fh)
    spec = cfg["forcing"]["covariance"]
    kernel = lambda tau: spec["variance"] * np.sinc(tau / spec["width"])
    return project_stationary(kernel, make_basis(n, cfg["horizon"]))


@pytest.mark.parametrize("n", [64, 512, 2048])
def test_sinc_factor_rank_and_residual(n):
    # pivoted Cholesky stopped at trace(S) <= N eps trace(C); the
    # eigendecomposition's lambda <= N eps lambda_max cut kept 7 at 64 and 512
    rank = {64: 8, 512: 7, 2048: 7}[n]
    c = ex5_sinc_covariance(n)
    f = StochasticForcing(zero_mean(c.basis), c)
    fac = f._factor
    assert f.factor_method == "pivoted_cholesky"
    assert f.rank == rank and fac.shape == (n, rank)
    scale = np.abs(c.coeffs).max()
    residual = np.abs(fac @ fac.T - c.coeffs).max()
    assert residual <= 1e-12 * scale
    assert f.psd_margin == pytest.approx(n * residual / scale, rel=1e-2)


def test_white_noise_factor_is_its_diagonal():
    b = make_basis(16, 2.0)
    c = white_noise_covariance(b, 0.7)
    f = StochasticForcing(zero_mean(b), c)
    assert f.rank == 16
    assert np.array_equal(f._factor, np.diag(c.coeffs))
    zero = StochasticForcing(zero_mean(b), SpectralMatrix(b, np.zeros((16, 16))))
    assert zero.rank == 0


def test_forcing_covariance_read_only():
    b = make_basis(8, 1.0)
    f = StochasticForcing(zero_mean(b), white_noise_covariance(b, 1.0))
    with pytest.raises(ValueError, match="read-only"):
        f.covariance.coeffs[0, 0] = 2.0
    # a view is copied, so writing through its base cannot stale the factor
    base = np.eye(8)
    g = StochasticForcing(zero_mean(b), SpectralMatrix(b, base.T))
    base[0, 0] = 5.0
    assert g.covariance.coeffs[0, 0] == 1.0
    with pytest.raises(ValueError, match="read-only"):
        g.covariance.coeffs[0, 0] = 2.0


@pytest.mark.parametrize("n", [64, 512])
def test_factor_variance_componentwise_against_long_double(n):
    # every entry of every node's rowsum((A_j F)^2) is graded relative to
    # itself, so the small variances of the first blocks count as much as
    # the largest; the reference is long double on the same double A_j, F
    with open(os.path.join(CONFIGS, "example5.json")) as fh:
        sysm = system_from_dict(json.load(fh))
    c = ex5_sinc_covariance(n)
    f = StochasticForcing(zero_mean(c.basis), c)
    grid = tensor_cubature(sysm.random_params)
    _, var = _node_moments(sysm, c.basis, grid, f)
    columns = _system_columns(sysm, c.basis)
    fac = f._factor.astype(np.longdouble)
    for node, v in zip(grid.nodes, var):
        a = _bind(columns, c.basis, node).first_col.astype(np.longdouble)
        af = np.stack([np.convolve(a, col)[:n] for col in fac.T], axis=1)
        ref = np.sum(af * af, axis=1)
        assert np.all(ref > 0)
        assert np.max(np.abs(v - ref) / ref) <= 1e-14


def test_cli_import_leaves_scipy_signal_unloaded():
    # one product path: every convolution goes through opmat.truncated_product
    src = os.path.dirname(os.path.dirname(os.path.abspath(opmat.__file__)))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import dorder.cli; "
            "print(any(m.startswith('scipy.signal') for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
