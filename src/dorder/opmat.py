"""Operational matrices of fractional integration and differentiation.

On the block pulse basis the fractional integral of order alpha acts
on coefficient vectors as a lower-triangular Toeplitz matrix A_alpha;
the derivative operator B_alpha is its inverse (system assembly never
builds it, see dosys).  Lower-triangular
Toeplitz matrices over a fixed basis form a commutative ring, so every
matrix here is stored by its first column only and all algebra
(products, sums, inverses) happens on first columns.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import toeplitz
from scipy.special import gamma as _gamma

from .bpf import BpfBasis, SpectralVector

__all__ = [
    "OpMatrix", "gamma_fn", "integration_matrix", "derivative_matrix",
    "invert_lower_toeplitz", "identity_matrix", "apply", "compose",
    "add", "scale", "to_dense",
]


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

    Forward recurrence: g_0 = 1/f_0, g_k = -(1/f_0) sum_{j=1..k} f_j g_{k-j}.
    Cost O(N^2); exact division structure, no pivoting.

    The sum pairs f_1..f_k with g_{k-1}..g_0, i.e. g read backwards.  A
    negative-stride view of g would be copied before every BLAS dot, so
    the column is built in reverse (rev[N-1-k] = g_k), each step is a
    dot of two contiguous slices, and it is flipped once at the end.
    The products, their order, the dot length and the final division
    are those of the plain recurrence on a reversed view of g, so the
    column matches it bit for bit.
    """
    f = m.first_col
    if f[0] == 0.0:
        raise ValueError(f"matrix {m.label or '(unlabeled)'} is singular: "
                         "leading first-column entry is zero")
    n = f.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        rev = np.zeros(n)
        rev[n - 1] = 1.0 / f[0]
        for k in range(1, n):
            rev[n - 1 - k] = -np.dot(f[1:k + 1], rev[n - k:]) / f[0]
    g = rev[::-1].copy()
    if not np.isfinite(g).all():
        raise RuntimeError(
            f"inverse of {m.label or '(unlabeled)'} overflowed double precision "
            f"at N={n}; the inverse column grows geometrically for this operator")
    return OpMatrix(m.basis, g, label=f"inv({m.label})" if m.label else "")


def apply(m, v):
    """Matrix-vector product M @ v on spectral coefficients.

    Lower-triangular Toeplitz action is the truncated convolution of
    the first column with the coefficient vector.
    """
    _require_same_basis(m, v)
    n = m.basis.n_funcs
    return SpectralVector(m.basis, np.convolve(m.first_col, v.coeffs)[:n])


def compose(a, b):
    """Ring product a @ b: truncated convolution of first columns.

    Convolution commutes, so compose(a, b) == compose(b, a) exactly.
    """
    _require_same_basis(a, b)
    n = a.basis.n_funcs
    col = np.convolve(a.first_col, b.first_col)[:n]
    return OpMatrix(a.basis, col)


def add(a, b):
    """Ring sum a + b."""
    _require_same_basis(a, b)
    return OpMatrix(a.basis, a.first_col + b.first_col)


def scale(a, k):
    """Scalar multiple k * a."""
    if not np.isfinite(k):
        raise ValueError(f"scale factor must be finite, got {k!r}")
    return OpMatrix(a.basis, k * a.first_col, label=a.label)


def to_dense(m):
    """Materialize the full N x N matrix.  For dense reference checks in tests."""
    r = np.zeros_like(m.first_col)
    r[0] = m.first_col[0]
    return toeplitz(m.first_col, r)
