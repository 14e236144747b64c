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
real FFT in O(N log N).  The inverse follows the same crossover: up to
_FFT_MIN_N entries the forward recurrence, above it a Newton iteration
whose every result is certified by its residual f*g - e_0, with the
recurrence as the fallback when the certificate fails.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import fft as _fft
from scipy.linalg import toeplitz
from scipy.special import gamma as _gamma

from .bpf import BpfBasis, SpectralVector

__all__ = [
    "OpMatrix", "gamma_fn", "integration_matrix", "derivative_matrix",
    "invert_lower_toeplitz", "identity_matrix", "truncated_product", "apply",
    "compose", "to_dense",
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


@dataclass(frozen=True, eq=False)
class OpMatrix:
    """Lower-triangular Toeplitz operator defined by its first column.

    The dense matrix has M[r, c] = first_col[r - c] for r >= c and 0
    above the diagonal.
    """

    basis: BpfBasis
    first_col: np.ndarray = field(repr=False)
    label: str = ""

    def __post_init__(self):
        c = np.asarray(self.first_col, dtype=float)
        if c.shape != (self.basis.n_funcs,):
            raise ValueError(
                f"first column has shape {c.shape}, expected ({self.basis.n_funcs},)")
        if not np.isfinite(c).all():
            raise RuntimeError(
                f"operational matrix {self.label or '(unlabeled)'} has non-finite entries")
        object.__setattr__(self, "first_col", c)


def gamma_fn(x):
    """Gamma function on the positive reals.

    Thin validating wrapper over the library implementation (Lanczos
    accuracy, relative error well under 1e-13 on this domain).
    """
    if not np.isfinite(x) or x <= 0:
        raise ValueError(f"gamma_fn requires x > 0, got {x!r}")
    return float(_gamma(x))


def _require_same_basis(a, b):
    if a.basis != b.basis:
        raise ValueError("operands live on different bases")


def integration_matrix(alpha, basis):
    """Operational matrix A_alpha of fractional integration of order alpha.

    First column entry p (1-based) is

        (tau/N)^alpha / Gamma(alpha + 2) * f_p,
        f_1 = 1,  f_p = p^(alpha+1) - 2(p-1)^(alpha+1) + (p-2)^(alpha+1),

    the second difference of p^(alpha+1).  Order 0 maps to the
    identity by convention (all f_p with p >= 2 vanish); negative
    orders are rejected, differentiation has its own constructor.
    """
    if not np.isfinite(alpha) or alpha < 0:
        raise ValueError(f"integration order must be >= 0, got {alpha!r}")
    n = basis.n_funcs
    if alpha == 0:
        return identity_matrix(basis)
    col = np.empty(n)
    col[0] = 1.0
    if n > 1:
        p = np.arange(2, n + 1, dtype=float)
        e = alpha + 1.0
        col[1:] = p ** e - 2.0 * (p - 1.0) ** e + (p - 2.0) ** e
    col *= basis.width ** alpha / gamma_fn(alpha + 2.0)
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
    if alpha == 0:
        return identity_matrix(basis)
    m = invert_lower_toeplitz(integration_matrix(alpha, basis))
    return OpMatrix(m.basis, m.first_col, label=f"B_{alpha:g}")


def identity_matrix(basis):
    """The identity element of the Toeplitz ring."""
    col = np.zeros(basis.n_funcs)
    col[0] = 1.0
    return OpMatrix(basis, col, label="I")


def invert_lower_toeplitz(m):
    """Invert a lower-triangular Toeplitz matrix on its first column.

    Columns of up to _FFT_MIN_N entries, and any column whose Newton
    inverse fails its certificate, take the forward recurrence

        g_0 = 1/f_0,  g_k = -(1/f_0) sum_{j=1..k} f_j g_{k-j},

    at cost O(N^2), with exact division structure and no pivoting.
    Longer columns take the Newton iteration of _newton_inverse, at
    cost O(N log N), kept only when max|f*g - e_0| <= _RESIDUAL_TOL.
    A geometrically growing inverse, such as that of A_1.5, fails the
    certificate within a few dozen entries, so the recurrence still
    overflows loudly where it leaves double range instead of returning
    garbage.
    """
    f = m.first_col
    if f[0] == 0.0:
        raise ValueError(f"matrix {m.label or '(unlabeled)'} is singular: "
                         "leading first-column entry is zero")
    n = f.shape[0]
    g = _newton_inverse(f) if n > _FFT_MIN_N else None
    if g is None:
        g = _recurrence_inverse(f)
    if not np.isfinite(g).all():
        raise RuntimeError(
            f"inverse of {m.label or '(unlabeled)'} overflowed double precision "
            f"at N={n}; the inverse column grows geometrically for this operator")
    return OpMatrix(m.basis, g, label=f"inv({m.label})" if m.label else "")


def _recurrence_inverse(f):
    """Forward recurrence for the inverse column of f, f_0 != 0.

    The sum pairs f_1..f_k with g_{k-1}..g_0, i.e. g read backwards.  A
    negative-stride view of g would be copied before every BLAS dot, so
    the column is built in reverse (rev[N-1-k] = g_k), each step is a
    dot of two contiguous slices, and it is flipped once at the end.
    The products, their order, the dot length and the final division
    are those of the plain recurrence on a reversed view of g, so the
    column matches it bit for bit.
    """
    n = f.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        rev = np.zeros(n)
        rev[n - 1] = 1.0 / f[0]
        for k in range(1, n):
            rev[n - 1 - k] = -np.dot(f[1:k + 1], rev[n - k:]) / f[0]
    return rev[::-1].copy()


def _newton_inverse(f):
    """Certified Newton inverse of the column f, f_0 != 0, or None.

    Newton's iteration for a power series inverse (Brent & Kung,
    J. ACM 25(4), 1978) with length doubling: when g holds the first m
    entries of f^(-1), f*g = e_0 + r with r zero below entry m, and the
    entries m..2m-1 of f^(-1) are those of -g*r.  The first entry is
    1/f_0 and no entry is changed once written.  The result is returned
    only when max|f*g - e_0| <= _RESIDUAL_TOL; None (also for
    non-finite entries) asks the caller for the recurrence.
    """
    n = f.shape[0]
    g = np.zeros(n)
    g[0] = 1.0 / f[0]
    m = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while m < n:
            k = min(2 * m, n)
            r = truncated_product(f[:k], g[:k])[m:]
            g[m:k] = -truncated_product(g[:k - m], r)
            m = k
        res = truncated_product(f, g)
        res[0] -= 1.0
        certified = np.max(np.abs(res)) <= _RESIDUAL_TOL
    return g if certified else None


def truncated_product(a, b):
    """First N entries of the convolution of two length-N columns.

    This is the ring product of lower-triangular Toeplitz matrices, and
    the action of one on a coefficient vector; every product of the
    package goes through it.  A scaled unit column c e_0 on either side
    returns c times the other, exactly and in O(N).  Otherwise N up to
    _FFT_MIN_N convolves directly, and longer columns by _fft_product.
    """
    if not a[1:].any():
        return a[0] * b
    if not b[1:].any():
        return b[0] * a
    if a.shape[0] <= _FFT_MIN_N:
        return np.convolve(a, b)[:a.shape[0]]
    return _fft_product(a, b)


def _fft_product(a, b):
    """First N entries of the convolution of two length-N columns by real FFT.

    The transform length is at least 2N - 1, so no entry wraps around.
    The error of each entry is a rounding error of the whole product,
    about eps max|a| max|b| N, not of that entry.
    """
    n = a.shape[0]
    size = _fft.next_fast_len(2 * n - 1, real=True)
    return _fft.irfft(_fft.rfft(a, size) * _fft.rfft(b, size), size)[:n]


def apply(m, v):
    """Matrix-vector product M @ v on spectral coefficients.

    Lower-triangular Toeplitz action is the truncated convolution of
    the first column with the coefficient vector.
    """
    _require_same_basis(m, v)
    return SpectralVector(m.basis, truncated_product(m.first_col, v.coeffs))


def compose(a, b):
    """Ring product a @ b: truncated convolution of first columns.

    Convolution commutes, so compose(a, b) == compose(b, a) exactly.
    """
    _require_same_basis(a, b)
    return OpMatrix(a.basis, truncated_product(a.first_col, b.first_col))


def to_dense(m):
    """Materialize the full N x N matrix.  For dense reference checks in tests."""
    r = np.zeros_like(m.first_col)
    r[0] = m.first_col[0]
    return toeplitz(m.first_col, r)
