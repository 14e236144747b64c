"""Operational matrices of fractional integration and differentiation.

On the block pulse basis the fractional integral of order alpha acts
on coefficient vectors as a lower-triangular Toeplitz matrix A_alpha;
the derivative operator B_alpha is its inverse (system assembly never
builds it, see dosys).  Lower-triangular
Toeplitz matrices over a fixed basis form a commutative ring, so every
matrix here is stored by its first column only and all algebra
(products, sums, inverses) happens on first columns.

Every product is one truncated convolution, truncated_product.  An
operand that is a scaled unit column c e_0 gives c times the other
exactly, in O(N), so a result that is exact in exact arithmetic (an
identity LHS, an impulse input) stays exact.  Otherwise columns of up
to _FFT_MIN_N entries are convolved directly, and longer ones by a
real FFT in O(N log N), with the first _FFT_MIN_N entries taken
directly: the FFT's error is normwise, and the first entries are often
the smallest.  The inverse follows the same crossover: up to
_FFT_MIN_N entries the forward recurrence, above it a Newton iteration
whose every result is certified by its residual f*g - e_0, with the
recurrence as the fallback when the certificate fails.

A (J, N) first column holds a stack of J operators on one basis, such
as the LHS columns of J cubature nodes.  invert_lower_toeplitz inverts
the whole stack in one pass, each step of the recurrence and each
Newton product batched over the rows, and every row is bit-identical
to the inverse of that row alone.  _row_products multiplies every row
of a stack by shared columns, one lower-Toeplitz GEMM per column up to
_FFT_MIN_N entries and a batched real FFT above.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bpf import BpfBasis, SpectralVector, _toeplitz

__all__ = [
    "OpMatrix", "integration_matrix", "derivative_matrix",
    "invert_lower_toeplitz", "truncated_product", "apply", "to_dense",
]


# Longest column on the direct paths: where the two products cost the
# same (warm, one core, N = 512: np.convolve 0.058 ms, the FFT product
# 0.055 ms).  The inverse switches at the same N although Newton is
# cheaper from N = 256 (N = 512: recurrence 1.2 ms, Newton 0.40 ms), so
# every result at N <= 512 stays bit-identical to the direct paths.
_FFT_MIN_N = 512
# Largest accepted max|f*g - e_0| of a Newton inverse.  Since
# g - f^(-1) = -f^(-1) * (f*g - e_0), the error of g is at most
# ||f^(-1)||_1 times this.  Integral-form LHS columns of ex2 and ex5 at
# N = 2048..32768 measure 0.9e-16 to 2.2e-16; a growing column such as
# A_1.5's inverse reads 1e-9 at N = 16 and 3e8 at N = 64.
_RESIDUAL_TOL = 1e-13


def _row_error(cls, row, message):
    """cls(message) carrying the failing row of a stack as .row (None for one column)."""
    err = cls(message)
    err.row = row
    return err


def _first_failing_row(ok):
    """Index of the first False in the per-row mask ok, or None."""
    bad = np.flatnonzero(~ok)
    return int(bad[0]) if bad.size else None


@dataclass(frozen=True, eq=False)
class OpMatrix:
    """Lower-triangular Toeplitz operator defined by its first column.

    The dense matrix has M[r, c] = first_col[r - c] for r >= c and 0
    above the diagonal.  A (J, N) first_col is a stack of J operators,
    one per row; invert_lower_toeplitz takes either form, apply and
    to_dense one operator.  An error about one row of a stack names it
    and carries it as .row.
    """

    basis: BpfBasis
    first_col: np.ndarray = field(repr=False)
    label: str = ""

    def __post_init__(self):
        c = np.asarray(self.first_col, dtype=float)
        n = self.basis.n_funcs
        if c.ndim not in (1, 2) or c.shape[-1] != n:
            raise ValueError(f"first column has shape {c.shape}, expected ({n},) or (J, {n})")
        object.__setattr__(self, "first_col", c)
        row = _first_failing_row(np.isfinite(np.atleast_2d(c)).all(axis=1))
        if row is not None:
            raise _row_error(RuntimeError, self._row(row),
                             f"operational matrix {self._name(row)} has non-finite entries")

    def _row(self, row):
        """row for a stack, None for one column."""
        return row if self.first_col.ndim == 2 else None

    def _name(self, row):
        """The label, with the row of a stack: 'LHS row 3'."""
        name = self.label or "(unlabeled)"
        return name if self._row(row) is None else f"{name} row {row}"


def integration_matrix(alpha, basis):
    """Operational matrix A_alpha of fractional integration of order alpha.

    First column entry p (1-based) is

        (tau/N)^alpha / Gamma(alpha + 2) * f_p,
        f_1 = 1,  f_p = p^(alpha+1) - 2(p-1)^(alpha+1) + (p-2)^(alpha+1),

    the second difference of p^(alpha+1).  Order 0 gives the identity
    exactly: p - 2(p-1) + (p-2) is 0 in floating point, and the scale
    is width^0 / Gamma(2) = 1.  Negative orders are rejected,
    differentiation has its own constructor.
    """
    if not np.isfinite(alpha) or alpha < 0:
        raise ValueError(f"integration order must be >= 0, got {alpha!r}")
    n = basis.n_funcs
    col = np.empty(n)
    col[0] = 1.0
    if n > 1:
        p = np.arange(2, n + 1, dtype=float)
        e = alpha + 1.0
        col[1:] = p ** e - 2.0 * (p - 1.0) ** e + (p - 2.0) ** e
    col *= basis.width ** alpha / math.gamma(alpha + 2.0)
    return OpMatrix(basis, col, label=f"A_{alpha:g}")


def derivative_matrix(alpha, basis):
    """Operational matrix B_alpha = A_alpha^(-1) of fractional differentiation.

    Computed by triangular-Toeplitz inversion of the integration
    matrix.  The inverse column grows geometrically once alpha exceeds
    1 and overflows double precision for large N; the non-finite guard
    in OpMatrix turns that into a loud failure instead of garbage.
    System assembly does not use it: dosys builds every term in
    integral form, as integration matrices only.
    """
    if not np.isfinite(alpha) or alpha < 0:
        raise ValueError(f"derivative order must be >= 0, got {alpha!r}")
    a = integration_matrix(alpha, basis)
    if alpha == 0:
        return a  # the identity; the recurrence would write -0.0 below e_0
    m = invert_lower_toeplitz(a)
    return OpMatrix(m.basis, m.first_col, label=f"B_{alpha:g}")


def invert_lower_toeplitz(m):
    """Invert a lower-triangular Toeplitz matrix, or a stack of them, on first columns.

    Columns of up to _FFT_MIN_N entries, and any column whose Newton
    inverse fails its certificate, take the forward recurrence

        g_0 = 1/f_0,  g_k = -(1/f_0) sum_{j=1..k} f_j g_{k-j},

    at cost O(N^2), with exact division structure and no pivoting.
    Longer columns take the Newton iteration of _newton_inverse, at
    cost O(N log N), kept only when max|f*g - e_0| <= _RESIDUAL_TOL.
    A geometrically growing inverse, such as that of A_1.5, fails the
    certificate within a few dozen entries, so the recurrence still
    overflows loudly where it leaves double range instead of returning
    garbage.  A (J, N) stack is inverted in one pass (one column is its
    one-row case); the singular and overflow checks are per row, and
    the error names the first failing row.
    """
    f = np.atleast_2d(m.first_col)
    row = _first_failing_row(f[:, 0] != 0.0)
    if row is not None:
        raise _row_error(ValueError, m._row(row), f"matrix {m._name(row)} is singular: "
                         "leading first-column entry is zero")
    n = f.shape[1]
    if n > _FFT_MIN_N:
        g, certified = _newton_inverse(f)
        if not certified.all():
            g[~certified] = _recurrence_inverse(f[~certified])
    else:
        g = _recurrence_inverse(f)
    row = _first_failing_row(np.isfinite(g).all(axis=1))
    if row is not None:
        raise _row_error(
            RuntimeError, m._row(row),
            f"inverse of {m._name(row)} overflowed double precision "
            f"at N={n}; the inverse column grows geometrically for this operator")
    return OpMatrix(m.basis, g.reshape(m.first_col.shape),
                    label=f"inv({m.label})" if m.label else "")


def _recurrence_inverse(f):
    """Forward recurrence for the inverse columns of the rows of f, f[:, 0] != 0.

    The sum pairs f_1..f_k with g_{k-1}..g_0, i.e. g read backwards.  A
    negative-stride view of g would be copied before every BLAS dot, so
    the columns are built in reverse (rev[:, N-1-k] = g_k), each step
    is one stacked matmul (J, 1, k) @ (J, k, 1) of contiguous slices,
    and they are flipped once at the end.  numpy runs each of those
    1 x k by k x 1 products as the BLAS dot of np.dot, so the products,
    their order, the dot length and the final division are those of the
    plain recurrence on a reversed view of one column, and every row
    matches it bit for bit.
    """
    n = f.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        rev = np.zeros_like(f)
        rev[:, n - 1] = 1.0 / f[:, 0]
        rows, cols = f[:, None, :], rev[:, :, None]
        for k in range(1, n):
            rev[:, n - 1 - k] = -(rows[:, :, 1:k + 1] @ cols[:, n - k:])[:, 0, 0] / f[:, 0]
    return rev[:, ::-1].copy()


def _newton_inverse(f):
    """Newton inverses of the rows of f, f[:, 0] != 0, and which are certified.

    Newton's iteration for a power series inverse (Brent & Kung,
    J. ACM 25(4), 1978) with length doubling: when g holds the first m
    entries of f^(-1), f*g = e_0 + r with r zero below entry m, and the
    entries m..2m-1 of f^(-1) are those of -g*r.  The first entry is
    1/f_0 and no entry is changed once written.  Every product is a
    real FFT batched over the rows, whose error the certificate
    covers.  Row j is certified when max|f_j*g_j - e_0| <= _RESIDUAL_TOL
    (never for non-finite entries); the caller takes the recurrence for
    the others.  A scaled unit column c e_0 has the exact inverse
    e_0 / c and is always certified.
    """
    n = f.shape[1]
    g = np.zeros_like(f)
    g[:, 0] = 1.0 / f[:, 0]
    m = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while m < n:
            k = min(2 * m, n)
            r = _fft_product(f[:, :k], g[:, :k])[:, m:]
            g[:, m:k] = -_fft_product(g[:, :k - m], r)
            m = k
        res = _fft_product(f, g)
        res[:, 0] -= 1.0
        certified = np.max(np.abs(res), axis=1) <= _RESIDUAL_TOL
    unit = ~f[:, 1:].any(axis=1)
    g[unit, 1:] = 0.0
    return g, certified | unit


def truncated_product(a, b):
    """First N entries of the convolution of two length-N columns.

    This is the ring product of lower-triangular Toeplitz matrices, and
    the action of one on a coefficient vector; every product of one
    column pair goes through it.  A scaled unit column c e_0 on either
    side returns c times the other, exactly and in O(N).  Otherwise N
    up to _FFT_MIN_N convolves directly.  Longer columns take
    _fft_product, and then their first _FFT_MIN_N entries are replaced
    by the direct convolution of the first _FFT_MIN_N inputs, so every
    entry there is accurate relative to itself.
    """
    if not a[1:].any():
        return a[0] * b
    if not b[1:].any():
        return b[0] * a
    n, h = a.shape[0], _FFT_MIN_N
    if n <= h:
        return np.convolve(a, b)[:n]
    out = _fft_product(a, b)
    if h:
        out[:h] = np.convolve(a[:h], b[:h])[:h]
    return out


def _row_products(a, columns):
    """Every row of the (J, N) stack a times each column b: one (J, N) array per b.

    Up to _FFT_MIN_N entries this is the GEMM a @ L(b)^T with the
    lower-triangular Toeplitz matrix L(b), built once per column and
    shared by all J rows.  Longer rows are transformed once and each b
    by a batched real FFT, with the first _FFT_MIN_N entries replaced by
    the same GEMM on the first _FFT_MIN_N inputs, as in
    truncated_product; no N x N array is built, and each yielded array
    is the only O(J N) one alive.  A scaled unit column, on either
    side, gives its exact product.
    """
    n = a.shape[1]
    h = min(n, _FFT_MIN_N)
    unit = ~a[:, 1:].any(axis=1)
    if n > h:
        size = _next_fast_len(2 * n - 1)
        fa = np.fft.rfft(a, size)
    for b in columns:
        if not b[1:].any():
            yield b[0] * a
            continue
        out = np.fft.irfft(fa * np.fft.rfft(b, size), size)[:, :n] if n > h else np.empty_like(a)
        out[:, :h] = a[:, :h] @ _toeplitz(b[:h], np.zeros(h)).T
        out[unit] = a[unit, :1] * b
        yield out


def _fft_product(a, b):
    """First N entries of the convolution of length-N columns by real FFT.

    a and b may be stacks of columns along the first axis (broadcast
    against each other).  The transform length is at least 2N - 1, so
    no entry wraps around.  The error of each entry is a rounding error
    of the whole product, about eps max|a| max|b| N, not of that entry.
    """
    n = a.shape[-1]
    size = _next_fast_len(2 * n - 1)
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[..., :n]


def _next_fast_len(m):
    """Smallest 2^a 3^b 5^c >= m >= 1, a real FFT length without large prime factors."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _one_operator(m, what):
    """ValueError if m is a stack: what takes one operator."""
    if m.first_col.ndim != 1:
        raise ValueError(f"{what} takes one operator, got a stack of first columns "
                         f"of shape {m.first_col.shape}")


def apply(m, v):
    """Matrix-vector product M @ v on spectral coefficients.

    Lower-triangular Toeplitz action is the truncated convolution of
    the first column with the coefficient vector.
    """
    _one_operator(m, "apply")
    if m.basis != v.basis:
        raise ValueError("operands live on different bases")
    return SpectralVector(m.basis, truncated_product(m.first_col, v.coeffs))


def to_dense(m):
    """Materialize the full N x N matrix.  For dense reference checks in tests."""
    _one_operator(m, "to_dense")
    return _toeplitz(m.first_col, np.zeros_like(m.first_col))
