"""Operational matrices on the lower-triangular Toeplitz ring."""

import json
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dorder import opmat
from dorder.bpf import make_basis, SpectralVector
from dorder.dosys import system_from_dict, term_operator, _integral_shift
from dorder.stochsolve import tensor_cubature
from dorder.opmat import (OpMatrix, gamma_fn, integration_matrix,
                          derivative_matrix, identity_matrix,
                          invert_lower_toeplitz, apply, compose,
                          to_dense, truncated_product, _fft_product,
                          _newton_inverse, _recurrence_inverse)


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "configs")


def ring_product_col(a, b):
    return np.convolve(a.first_col, b.first_col)[:a.first_col.size]


def test_gamma_fn():
    assert gamma_fn(1.0) == 1.0
    assert gamma_fn(5.0) == 24.0
    assert abs(gamma_fn(0.5) - np.sqrt(np.pi)) < 1e-15
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            gamma_fn(bad)


def test_integration_matrix_order_one_textbook():
    # A_1 is the classical BPF integration matrix: h/2 diagonal, h below
    b = make_basis(6, 3.0)
    h = b.width
    a1 = to_dense(integration_matrix(1.0, b))
    expect = np.tril(np.full((6, 6), h), -1) + np.eye(6) * h / 2.0
    assert np.array_equal(a1, expect)


def test_integration_matrix_order_zero_is_identity():
    b = make_basis(5, 2.0)
    assert np.array_equal(to_dense(integration_matrix(0.0, b)), np.eye(5))


def test_integration_matrix_first_column_telescopes():
    # column sums telescope: sum_p f_p = N^(alpha+1) - (N-1)^(alpha+1)
    b = make_basis(64, 1.0)
    for alpha in (0.3, 0.5, 1.7):
        col = integration_matrix(alpha, b).first_col
        lead = (b.width ** alpha) / gamma_fn(alpha + 2.0)
        total = 64.0 ** (alpha + 1) - 63.0 ** (alpha + 1)
        assert np.isclose(col.sum(), lead * total, rtol=1e-12)


def test_integration_negative_order_rejected():
    b = make_basis(4, 1.0)
    with pytest.raises(ValueError):
        integration_matrix(-0.5, b)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
@pytest.mark.parametrize("n", [32, 256])
def test_derivative_inverts_integration(alpha, n):
    b = make_basis(n, 5.0)
    ba = ring_product_col(derivative_matrix(alpha, b), integration_matrix(alpha, b))
    e0 = np.zeros(n)
    e0[0] = 1.0
    assert np.max(np.abs(ba - e0)) <= 1e-10


def test_derivative_order_three_halves_overflows_at_large_n():
    # the inverse column of A_1.5 grows geometrically; at N=1024 it
    # leaves double range and the constructor refuses to hand it back
    b = make_basis(1024, 1.0)
    with pytest.raises(RuntimeError, match="overflow"):
        derivative_matrix(1.5, b)


def test_invert_requires_nonzero_leading_entry():
    b = make_basis(4, 1.0)
    m = OpMatrix(b, np.array([0.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="singular"):
        invert_lower_toeplitz(m)


@settings(max_examples=40)
@given(st.integers(2, 40), st.integers(0, 2 ** 32 - 1))
def test_invert_matches_dense_inverse(n, seed):
    rng = np.random.default_rng(seed)
    b = make_basis(n, 1.0)
    col = np.empty(n)
    col[0] = rng.uniform(0.5, 2.0)
    col[1:] = 0.3 * rng.standard_normal(n - 1) / np.arange(1, n) ** 2
    m = OpMatrix(b, col)
    inv = invert_lower_toeplitz(m)
    assert np.allclose(to_dense(inv), np.linalg.inv(to_dense(m)), rtol=1e-9, atol=1e-9)


def negative_stride_inverse(f):
    # the plain forward recurrence, dotting against a reversed view of g
    n = f.size
    g = np.zeros(n)
    g[0] = 1.0 / f[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n):
            g[k] = -np.dot(f[1:k + 1], g[k - 1::-1]) / f[0]
    return g


def assert_matches_plain_recurrence(m):
    old = negative_stride_inverse(m.first_col)
    if np.isfinite(old).all():
        assert np.array_equal(invert_lower_toeplitz(m).first_col, old)
    else:
        with pytest.raises(RuntimeError, match="overflow"):
            invert_lower_toeplitz(m)


@settings(max_examples=60)
@given(st.integers(1, 64), st.integers(0, 2 ** 32 - 1))
def test_invert_bit_identical_to_plain_recurrence_random(n, seed):
    rng = np.random.default_rng(seed)
    col = rng.standard_normal(n)
    col[0] = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0)
    assert_matches_plain_recurrence(OpMatrix(make_basis(n, 1.0), col))


@settings(max_examples=60)
@given(st.integers(1, 64),
       st.floats(0.0, 2.0, exclude_min=True, allow_nan=False),
       st.floats(0.1, 20.0, allow_nan=False))
def test_invert_bit_identical_to_plain_recurrence_integration(n, alpha, horizon):
    # alpha > 1 includes inverse columns that grow geometrically
    assert_matches_plain_recurrence(integration_matrix(alpha, make_basis(n, horizon)))


def test_invert_single_block():
    b = make_basis(1, 2.0)
    inv = invert_lower_toeplitz(OpMatrix(b, np.array([4.0])))
    assert np.array_equal(inv.first_col, np.array([0.25]))
    with pytest.raises(ValueError, match="singular"):
        invert_lower_toeplitz(OpMatrix(b, np.array([0.0])))


def long_double_inverse(f):
    fl = f.astype(np.longdouble)
    g = np.zeros(f.size, dtype=np.longdouble)
    g[0] = 1 / fl[0]
    for k in range(1, f.size):
        g[k] = -np.dot(fl[1:k + 1], g[k - 1::-1]) / fl[0]
    return g


def config_lhs(name, n, node_index=None):
    """A config's integral-form LHS first column, bound at one cubature node if asked."""
    with open(os.path.join(CONFIGS, name)) as fh:
        cfg = json.load(fh)
    sysm = system_from_dict(cfg)
    b = make_basis(n, cfg["horizon"])
    node = None if node_index is None else tensor_cubature(sysm.random_params).nodes[node_index]
    shift = _integral_shift(sysm)
    col = np.zeros(n)
    for t in sysm.lhs_terms:
        col += term_operator(t, b, node, shift).first_col
    return OpMatrix(b, col, label="LHS")


# Measured max error relative to max|g| (x86-64 OpenBLAS, 80-bit long
# double); each bound allows 10x headroom over the recurrence's
# measurement.  The config columns are in integral form, as assembly
# builds them.  N = 2048 and 8192 take the certified Newton inverse;
# the recurrence measured 8.6e-17, 5.9e-17 and 1.1e-17 on those three.
@pytest.mark.parametrize("build, measured, bound", [
    # ex2's distributed relaxation times A_0.887: the column peaks at 0.24
    # in entry 0, the inverse at 4.2 (4.8 at N=8192)
    (lambda: config_lhs("example2.json", 2048), 8.6e-17, 9e-16),
    (lambda: config_lhs("example2.json", 8192), 9.2e-17, 1e-15),
    (lambda: integration_matrix(0.5, make_basis(2048, 1.0)), 1.2e-16, 6e-16),
    # ex5's order-2 LHS times A_2: the column peaks at 1.01 in entry 0 and
    # its inverse at 0.99
    (lambda: config_lhs("example5.json", 128, node_index=0), 5.6e-17, 6e-16),
    (lambda: config_lhs("example5.json", 512, node_index=0), 4.6e-17, 5e-16),
], ids=["ex2_lhs_n2048", "ex2_lhs_n8192", "A_0.5_n2048", "ex5_lhs_node0_n128",
        "ex5_lhs_node0_n512"])
def test_invert_graded_against_long_double(build, measured, bound):
    m = build()
    g = invert_lower_toeplitz(m).first_col
    ref = long_double_inverse(m.first_col)
    err = float(np.max(np.abs(g - ref)) / np.max(np.abs(ref)))
    assert err <= bound, f"relative error {err:.2e} (measured {measured:.1e})"


# ---------------------------------------------------------------------------
# the FFT product and the Newton inverse, called below the crossover

def fft_everywhere():
    """Every product and inverse takes its O(N log N) path, at any N."""
    return mock.patch.object(opmat, "_FFT_MIN_N", 0)


def product_tol(a, b):
    return 1e-14 * np.abs(a).max() * np.abs(b).max() * a.size


def columns(n, seed, count):
    """Columns of random sign and magnitude, spanning 2**+-20 in scale."""
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(n) * 2.0 ** rng.uniform(-20, 20) for _ in range(count)]


def decaying_column(n, seed):
    """f with sum_(k>0) |f_k| = f_0 / 2: its inverse column is bounded by 2 / f_0."""
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(n) / np.arange(1, n + 1)
    f[0] = rng.uniform(0.5, 2.0)
    if n > 1 and np.abs(f[1:]).sum() > 0:
        f[1:] *= 0.5 * f[0] / np.abs(f[1:]).sum()
    return f


@settings(max_examples=60)
@given(st.integers(1, 128), st.integers(0, 2 ** 32 - 1))
def test_fft_product_matches_direct_convolution(n, seed):
    a, b = columns(n, seed, 2)
    direct = np.convolve(a, b)[:n]
    assert np.max(np.abs(_fft_product(a, b) - direct)) <= product_tol(a, b)


@settings(max_examples=60)
@given(st.integers(1, 128), st.integers(1, 128), st.integers(0, 2 ** 32 - 1))
def test_fft_product_is_causal(n, prefix, seed):
    # the first p outputs depend only on the first p inputs, up to rounding
    a, b, tail_a, tail_b = columns(n, seed, 4)
    p = min(prefix, n)
    a2 = np.concatenate([a[:p], tail_a[p:]])
    b2 = np.concatenate([b[:p], tail_b[p:]])
    tol = product_tol(a, b) + product_tol(a2, b2)
    assert np.max(np.abs(_fft_product(a, b)[:p] - _fft_product(a2, b2)[:p])) <= tol


@settings(max_examples=40)
@given(st.sampled_from([1, 2, 7, 64, 512, 513, 2048]),
       st.floats(1e-3, 1e3), st.sampled_from([-1.0, 1.0]), st.integers(0, 2 ** 32 - 1))
def test_scaled_unit_column_product_is_exact(n, c, sign, seed):
    c *= sign
    (b,) = columns(n, seed, 1)
    e = np.zeros(n)
    e[0] = c
    assert np.array_equal(truncated_product(e, b), c * b)
    assert np.array_equal(truncated_product(b, e), c * b)
    with fft_everywhere():
        assert np.array_equal(truncated_product(e, b), c * b)
        inv = invert_lower_toeplitz(OpMatrix(make_basis(n, 1.0), e)).first_col
    assert inv[0] == 1.0 / c and not inv[1:].any()


@settings(max_examples=60)
@given(st.integers(1, 128), st.integers(0, 2 ** 32 - 1))
def test_newton_inverse_matches_recurrence(n, seed):
    f = decaying_column(n, seed)
    loop = _recurrence_inverse(f)
    with fft_everywhere():
        g = _newton_inverse(f)
    assert g is not None
    assert np.max(np.abs(g - loop)) <= 1e-13 * np.abs(loop).max()


@settings(max_examples=40)
@given(st.integers(2, 128), st.integers(1, 128), st.integers(0, 2 ** 32 - 1))
def test_newton_inverse_is_causal(n, prefix, seed):
    f, other = decaying_column(n, seed), decaying_column(n, seed + 1)
    p = min(prefix, n)
    f2 = np.concatenate([f[:p], other[p:] * f[0] / other[0]])
    with fft_everywhere():
        g, g2 = _newton_inverse(f), _newton_inverse(f2)
    assert np.max(np.abs(g[:p] - g2[:p])) <= 1e-13 * np.abs(g).max()


def test_certificate_rejects_growing_inverse_and_falls_back():
    # the inverse column of A_1.5 grows to 3e23 by N=64; the Newton
    # residual then reads 3e8, and the recurrence gives the column
    m = integration_matrix(1.5, make_basis(64, 1.0))
    with fft_everywhere():
        assert _newton_inverse(m.first_col) is None
        g = invert_lower_toeplitz(m).first_col
    assert np.array_equal(g, negative_stride_inverse(m.first_col))


def test_apply_equals_dense_matvec():
    rng = np.random.default_rng(11)
    b = make_basis(33, 2.0)
    m = integration_matrix(0.6, b)
    v = SpectralVector(b, rng.standard_normal(33))
    w = apply(m, v)
    assert np.allclose(w.coeffs, to_dense(m) @ v.coeffs, atol=1e-13)


def test_ring_is_commutative_and_associative():
    b = make_basis(20, 1.0)
    x = integration_matrix(0.4, b)
    y = integration_matrix(1.0, b)
    z = identity_matrix(b)
    assert np.allclose(compose(x, y).first_col, compose(y, x).first_col, atol=1e-15)
    lhs = compose(compose(x, y), x)
    rhs = compose(x, compose(y, x))
    assert np.allclose(lhs.first_col, rhs.first_col, atol=1e-15)
    assert np.array_equal(compose(x, z).first_col, x.first_col)


def test_basis_mismatch_rejected():
    x = integration_matrix(0.5, make_basis(6, 1.0))
    y = integration_matrix(0.5, make_basis(6, 2.0))
    with pytest.raises(ValueError):
        compose(x, y)
    with pytest.raises(ValueError):
        apply(x, SpectralVector(make_basis(6, 2.0), np.zeros(6)))


def test_opmatrix_rejects_nonfinite():
    b = make_basis(3, 1.0)
    with pytest.raises(RuntimeError):
        OpMatrix(b, np.array([1.0, np.inf, 0.0]))
