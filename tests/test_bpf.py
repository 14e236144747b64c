"""Block pulse basis: projection, spectral containers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import toeplitz

from dorder.bpf import (BpfBasis, SpectralVector, SpectralMatrix, make_basis,
                        project_function, project_bivariate, project_stationary,
                        delta_spectral, white_noise_covariance, _gl_block_points, _toeplitz)


def test_basis_geometry():
    b = make_basis(8, 4.0)
    assert b.width == 0.5
    assert np.allclose(b.edges(), np.arange(9) * 0.5)
    assert np.allclose(b.midpoints(), np.arange(8) * 0.5 + 0.25)


@pytest.mark.parametrize("n,tau", [(0, 1.0), (-3, 1.0), (4, 0.0), (4, -2.0), (4, np.inf)])
def test_basis_validation(n, tau):
    with pytest.raises(ValueError):
        make_basis(n, tau)


def test_project_constant_exact():
    b = make_basis(16, 3.0)
    v = project_function(lambda t: np.full_like(t, 2.5), b)
    assert np.all(v.coeffs == 2.5)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.integers(1, 48),
       st.floats(1e-6, 1e6),
       st.floats(allow_nan=False, allow_infinity=False))
def test_project_any_constant_bit_exact(q, n, tau, c):
    # the rounded Gauss-Legendre weights need not sum to 2 (q = 3, 5, 7, 10
    # miss by an ulp), and even where they do, c * w_k rounds
    b = make_basis(n, tau)
    v = project_function(lambda t: np.full_like(t, c), b, quad_order=q)
    assert np.all(v.coeffs == c)
    m = project_bivariate(
        lambda t1, t2: np.full(np.broadcast_shapes(np.shape(t1), np.shape(t2)), c),
        b, quad_order=q)
    assert np.all(m.coeffs == c)


def test_project_leaves_callers_array_unmodified():
    b = make_basis(6, 2.0)
    rng = np.random.default_rng(3)
    cached = rng.standard_normal((6, 5))
    cached_grid = rng.standard_normal((30, 30))
    keep = cached.copy()
    v = project_function(lambda t: cached, b)
    assert np.array_equal(cached, keep)
    # a broadcasting kernel reading cached_grid at its nodes; every array
    # it returns is kept with a copy and must come back unchanged
    nodes = _gl_block_points(b, 5)[0].ravel()
    returned = []

    def kernel(t1, t2):
        out = cached_grid[np.searchsorted(nodes, t1), np.searchsorted(nodes, t2)]
        returned.append((out, out.copy()))
        return out

    m = project_bivariate(kernel, b)
    assert returned and all(np.array_equal(out, copy) for out, copy in returned)
    # same numbers as the plain weighted sums, to rounding
    _, w = np.polynomial.legendre.leggauss(5)
    assert np.allclose(v.coeffs, cached @ w / 2.0, rtol=0, atol=1e-14)
    plain = np.einsum("iajb,a,b->ij", cached_grid.reshape(6, 5, 6, 5), w, w) / 4.0
    assert np.allclose(m.coeffs, plain, rtol=0, atol=1e-14)
    # read-only broadcast views are accepted as well
    view = project_bivariate(
        lambda t1, t2: np.broadcast_to(-1.25, np.broadcast_shapes(t1.shape, t2.shape)), b)
    assert np.all(view.coeffs == -1.25)


def test_bivariate_kernel_called_once_per_block_row():
    # one block row is q x N x q points, never the (N q)^2 grid
    n, q = 64, 5
    sizes = []

    def kernel(t1, t2):
        sizes.append(np.broadcast(t1, t2).size)
        return np.cos(t1 - t2)

    project_bivariate(kernel, make_basis(n, 3.0), quad_order=q)
    assert len(sizes) == n
    assert max(sizes) <= q * n * q


@pytest.mark.parametrize("k", [0, 1, 17, 63])
def test_nonfinite_names_its_block(k):
    b = make_basis(64, 2.0)

    def inside(t):
        return (t >= k * b.width) & (t < (k + 1) * b.width)

    with pytest.raises(ValueError, match=rf"^function not finite inside block {k} \["):
        project_function(lambda t: np.where(inside(t), np.nan, 1.0), b)
    with pytest.raises(ValueError, match=rf"^kernel not finite inside block row {k}$"):
        project_bivariate(lambda t1, t2: np.where(inside(t1) & inside(t2), np.inf, 1.0), b)


def test_project_linear_hits_midpoints():
    # block average of a linear function is its midpoint value
    b = make_basis(32, 2.0)
    v = project_function(lambda t: 3.0 * t - 1.0, b)
    assert np.allclose(v.coeffs, 3.0 * b.midpoints() - 1.0, atol=1e-14)


def test_project_against_analytic_block_means():
    b = make_basis(16, 2.0)
    v = project_function(np.sin, b)
    e = b.edges()
    exact = (np.cos(e[:-1]) - np.cos(e[1:])) / b.width
    assert np.allclose(v.coeffs, exact, atol=1e-13)


def test_project_scalar_only_function():
    # functions that choke on arrays fall back to per-point evaluation
    b = make_basis(4, 1.0)
    def f(t):
        if np.ndim(t):
            raise TypeError("scalar only")
        return float(t) ** 2
    v = project_function(f, b)
    ref = project_function(lambda t: t ** 2, b)
    assert np.allclose(v.coeffs, ref.coeffs, atol=1e-15)


def test_project_nonfinite_rejected():
    b = make_basis(4, 1.0)
    with pytest.raises(ValueError, match="block"):
        project_function(lambda t: np.where(t < 0.5, 1.0, np.nan), b)


@settings(max_examples=50)
@given(st.integers(2, 64), st.floats(0.1, 50.0))
def test_project_reconstruct_idempotent(n, tau):
    rng = np.random.default_rng(n)
    b = make_basis(n, tau)
    v = SpectralVector(b, rng.standard_normal(n))
    # the step function of v: value v_i on block i
    step = lambda t: v.coeffs[np.minimum((t * n / tau).astype(int), n - 1)]
    w = project_function(step, b)
    assert np.allclose(w.coeffs, v.coeffs, rtol=1e-13, atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64), st.integers(1, 8), st.floats(0.01, 100.0),
       st.sampled_from(["sinc", "exp"]), st.floats(0.05, 10.0))
def test_stationary_matches_bivariate(n, q, tau, form, width):
    # same nodes and block means; only the node differences t1 - t2 round
    # differently, so the grids agree to 1e-13 of max|C|, not bit for bit
    if form == "sinc":
        k = lambda s: np.sinc(s / width)
    else:
        k = lambda s: np.exp(-np.abs(s) / width)
    b = make_basis(n, tau)
    c = project_stationary(k, b, quad_order=q).coeffs
    ref = project_bivariate(lambda t1, t2: k(t1 - t2), b, quad_order=q).coeffs
    assert np.array_equal(c, c.T)
    assert np.max(np.abs(c - ref)) <= 1e-13 * np.abs(ref).max()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.integers(1, 48), st.floats(1e-6, 1e6),
       st.floats(allow_nan=False, allow_infinity=False))
def test_stationary_any_constant_bit_exact(q, n, tau, c):
    m = project_stationary(lambda s: np.full_like(s, c), make_basis(n, tau), quad_order=q)
    assert m.coeffs.shape == (n, n)
    assert np.all(m.coeffs == c)


@settings(max_examples=100)
@given(st.lists(st.floats(), min_size=1, max_size=64),
       st.none() | st.lists(st.floats(), min_size=1, max_size=64))
def test_toeplitz_helper_is_scipy_bit_for_bit(c, r):
    c = np.array(c)
    r = None if r is None else np.array(r)
    got, ref = _toeplitz(c, r), toeplitz(c, r)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert got.flags.c_contiguous and got.flags.writeable
    assert got.tobytes() == ref.tobytes()


def test_stationary_kernel_called_once_on_lag_nodes():
    n, q = 64, 5
    shapes = []

    def k(s):
        shapes.append(s.shape)
        return np.cos(s)

    project_stationary(k, make_basis(n, 3.0), quad_order=q)
    assert shapes == [(n, q, q)]


@pytest.mark.parametrize("lag", [0, 1, 17, 63])
def test_stationary_nonfinite_names_its_lag(lag):
    # with q = 5, lag l's nodes are l h + (x_a - x_b) h / 2, and lags l +- 1
    # come no nearer to l h than 0.094 h, so only lag l (a = b) sees the NaN
    b = make_basis(64, 2.0)
    k = lambda s: np.where(np.abs(s - lag * b.width) < 0.05 * b.width, np.nan, 1.0)
    with pytest.raises(ValueError, match=rf"^kernel not finite at block lag {lag}, "):
        project_stationary(k, b)


def test_bivariate_separable_is_outer_product():
    b = make_basis(12, 2.0)
    f = lambda t: np.sin(t) + 2.0
    g = lambda t: np.cos(3.0 * t)
    m = project_bivariate(lambda a, c: (np.sin(a) + 2.0) * np.cos(3.0 * c), b)
    vf = project_function(f, b)
    vg = project_function(g, b)
    assert np.allclose(m.coeffs, np.outer(vf.coeffs, vg.coeffs), atol=1e-13)


def test_bivariate_scalar_fallback():
    b = make_basis(5, 1.0)
    def g(a, c):
        if np.ndim(a) or np.ndim(c):
            raise TypeError("scalar only")
        return a * c
    m = project_bivariate(g, b)
    ref = project_bivariate(lambda a, c: a * c, b)
    assert np.allclose(m.coeffs, ref.coeffs, atol=1e-15)


def test_delta_spectral():
    b = make_basis(8, 2.0)
    v = delta_spectral(b)
    assert v.coeffs[0] == 4.0  # N / tau
    assert np.all(v.coeffs[1:] == 0.0)


def test_white_noise_covariance():
    b = make_basis(8, 2.0)
    m = white_noise_covariance(b, 0.5)
    assert np.allclose(m.coeffs, 0.5 * 4.0 * np.eye(8), rtol=0, atol=0)
    with pytest.raises(ValueError):
        white_noise_covariance(b, -1.0)


@pytest.mark.parametrize("n,q,tau", [(1, 1.0, 1.0), (7, 0.3, 2.5), (64, 1.0, 5.0),
                                     (100, 1e-7, 1e4), (33, 0.0, 3.0)])
def test_white_noise_covariance_bit_identical_to_scaled_eye(n, q, tau):
    b = make_basis(n, tau)
    assert np.array_equal(white_noise_covariance(b, q).coeffs, np.eye(n) * (q * n / tau))


def test_spectral_container_validation():
    b = make_basis(4, 1.0)
    with pytest.raises(ValueError):
        SpectralVector(b, np.zeros(5))
    with pytest.raises(ValueError):
        SpectralVector(b, np.array([1.0, np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError):
        SpectralMatrix(b, np.zeros((4, 3)))
