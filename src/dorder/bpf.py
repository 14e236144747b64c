"""Block pulse basis: projection and singular inputs.

The basis splits [0, tau) into N half-open blocks of equal width and
represents a function by its vector of block averages.  Bivariate
kernels (covariance functions) get an N x N grid of cell averages,
one block row (q x N x q kernel values) at a time, in O(N^2 + N q^2)
memory.  A stationary kernel k(t1 - t2) gives a symmetric Toeplitz
grid, fixed by its N lag means, so it takes N q^2 kernel values in
all.  Scalar-only callables take the one per-point fallback.
Block integrals are evaluated by fixed-order Gauss-Legendre quadrature
per block; Dirac inputs bypass quadrature through dedicated
constructors whose coefficients are the exact projections.

The block average of a constant is that constant, and both projections
return it bit-exactly for every quadrature order.  They do not rely on
the floating-point sum of the Gauss-Legendre weights, which is computed
numerically and may miss 2 by an ulp (see `_block_mean`).
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BpfBasis", "SpectralVector", "SpectralMatrix",
    "make_basis", "project_function", "project_bivariate", "project_stationary",
    "delta_spectral", "white_noise_covariance",
]


@dataclass(frozen=True)
class BpfBasis:
    """N block pulse functions on [0, horizon).

    Block i (0-based) is the half-open interval
    [i*horizon/N, (i+1)*horizon/N); the blocks partition [0, horizon).
    """

    n_funcs: int
    horizon: float

    def __post_init__(self):
        if not isinstance(self.n_funcs, (int, np.integer)) or self.n_funcs < 1:
            raise ValueError(f"n_funcs must be a positive integer, got {self.n_funcs!r}")
        if not np.isfinite(self.horizon) or self.horizon <= 0:
            raise ValueError(f"horizon must be a positive real, got {self.horizon!r}")
        object.__setattr__(self, "n_funcs", int(self.n_funcs))
        object.__setattr__(self, "horizon", float(self.horizon))

    @property
    def width(self):
        """Block width horizon / n_funcs."""
        return self.horizon / self.n_funcs

    def edges(self):
        """The n_funcs + 1 block edges, from 0 to horizon."""
        return np.linspace(0.0, self.horizon, self.n_funcs + 1)

    def midpoints(self):
        """Block midpoints (i + 1/2) * width."""
        return (np.arange(self.n_funcs) + 0.5) * self.width


@dataclass(frozen=True, eq=False)
class SpectralVector:
    """Expansion coefficients of a one-argument function."""

    basis: BpfBasis
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (self.basis.n_funcs,):
            raise ValueError(
                f"coefficient vector has shape {c.shape}, expected ({self.basis.n_funcs},)")
        if not np.isfinite(c).all():
            raise ValueError("coefficient vector contains non-finite entries")
        object.__setattr__(self, "coeffs", c)


@dataclass(frozen=True, eq=False)
class SpectralMatrix:
    """Expansion coefficients of a two-argument kernel."""

    basis: BpfBasis
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        n = self.basis.n_funcs
        if c.shape != (n, n):
            raise ValueError(f"coefficient grid has shape {c.shape}, expected ({n}, {n})")
        if not np.isfinite(c).all():
            raise ValueError("coefficient grid contains non-finite entries")
        object.__setattr__(self, "coeffs", c)


def make_basis(n_funcs, horizon):
    """Construct a block pulse basis of `n_funcs` blocks on [0, horizon)."""
    return BpfBasis(n_funcs, horizon)


def _gl_block_points(basis, quad_order):
    """Gauss-Legendre abscissae per block, shape (N, q), and unit weights.

    Returned weights are the [-1, 1] rule weights; the affine block map
    carries a Jacobian of width/2 per dimension.
    """
    if quad_order < 1:
        raise ValueError("quad_order must be >= 1")
    x, w = np.polynomial.legendre.leggauss(quad_order)
    left = basis.edges()[:-1]
    pts = left[:, None] + (x[None, :] + 1.0) * (basis.width / 2.0)
    return pts, w


def _block_mean(vals, w):
    """Gauss-Legendre block mean over the last axis of `vals`.

    Equal to (vals @ w) / 2 in exact arithmetic.  The value at the first
    node is taken out before the weighted sum and added back after it,
    so an axis holding one value c returns c bit-exactly: every
    difference is 0, whatever the rounded weights sum to.  Allocates a
    new array and never writes into `vals`.
    """
    ref = vals[..., 0]
    return ref + (vals - ref[..., None]) @ w / 2.0


def _eval_grid(f, *args):
    """f on the broadcast of its array arguments, point by point if f
    rejects arrays or returns another shape (the one per-point fallback)."""
    shape = np.broadcast_shapes(*(a.shape for a in args))
    try:
        y = np.asarray(f(*args), dtype=float)
        if y.shape == shape:
            return y
    except (TypeError, ValueError):
        pass
    points = zip(*(a.ravel() for a in np.broadcast_arrays(*args)))
    return np.array([float(np.asarray(f(*p)).reshape(())) for p in points]).reshape(shape)


def project_function(f, basis, quad_order=5):
    """Project a scalar function of time onto the block pulse basis.

    Coefficient i is (N/tau) times the integral of f over block i,
    i.e. the block average, computed by Gauss-Legendre quadrature of
    the given order inside every block.  A constant projects to itself
    bit-exactly for every order; the rule does not rely on the
    floating-point sum of the weights being 2.

    Parameters
    ----------
    f : callable
        Function of time; may be vectorized over ndarray arguments or
        accept scalars only.
    basis : BpfBasis
    quad_order : int
        Points per block (default 5; exact for polynomials of degree
        up to 2*quad_order - 1).

    Returns
    -------
    SpectralVector
    """
    pts, w = _gl_block_points(basis, quad_order)
    vals = _eval_grid(f, pts)
    bad = ~np.isfinite(vals)
    if bad.any():
        i = int(np.argwhere(bad)[0][0])
        raise ValueError(f"function not finite inside block {i} "
                         f"[{i * basis.width:g}, {(i + 1) * basis.width:g})")
    # block average: (N/tau) * (width/2) * sum(w * f) = sum(w * f) / 2
    return SpectralVector(basis, _block_mean(vals, w))


def project_bivariate(g, basis, quad_order=5):
    """Project a two-argument kernel onto the N x N block cell grid.

    Entry (i, j) is the mean of g over block cell i x j, the tensor
    Gauss-Legendre rule applied as the block mean over t2 and then over
    t1, so a constant kernel projects to itself bit-exactly.

    g is called once per block row i, on block i's nodes of shape
    (q, 1, 1) and all nodes of shape (N, q), and should return their
    broadcast (q, N, q); scalar-only callables take _eval_grid's
    per-point fallback, N^2 q^2 calls.  Working memory is
    O(N^2 + N q^2), and no array g returns is written into.
    """
    pts, w = _gl_block_points(basis, quad_order)
    c = np.empty((basis.n_funcs, basis.n_funcs))
    for i, row in enumerate(pts):
        vals = _eval_grid(g, row[:, None, None], pts)
        if not np.isfinite(vals).all():
            raise ValueError(f"kernel not finite inside block row {i}")
        c[i] = _block_mean(_block_mean(vals, w).T, w)
    return SpectralMatrix(basis, c)


def project_stationary(k, basis, quad_order=5):
    """Project a stationary kernel k(t1 - t2) onto the N x N block cell grid.

    On equal blocks the cell mean depends only on the block lag |i - j|,
    so the grid is the symmetric Toeplitz matrix of the N lag means
    col[l], the cell means of block l against block 0.  k is called
    once, on the lag nodes t1 - t2 of those cells, shape (N, q, q), and
    must be even, as a stationary covariance is.  The nodes and the two
    nested block means are project_bivariate's, so a constant kernel
    projects to itself bit-exactly and the grid matches
    project_bivariate(lambda t1, t2: k(t1 - t2)) up to the rounding of
    the node differences.  Costs N q^2 kernel values and one N x N array.
    """
    pts, w = _gl_block_points(basis, quad_order)
    vals = _eval_grid(k, pts[:, :, None] - pts[0])
    bad = ~np.isfinite(vals)
    if bad.any():
        lag = int(np.argwhere(bad)[0][0])
        raise ValueError(f"kernel not finite at block lag {lag}, |t1 - t2| in "
                         f"[{max(lag - 1, 0) * basis.width:g}, {(lag + 1) * basis.width:g}]")
    return SpectralMatrix(basis, _toeplitz(_block_mean(_block_mean(vals, w), w)))


def _toeplitz(c, r=None):
    """The Toeplitz matrix with first column c and first row r (r[0] unused).

    r defaults to c, which gives the symmetric matrix of a real c.  Row
    i is the window of concatenate((c[::-1], r[1:])) starting at
    len(c) - 1 - i.  The strided view of those windows is copied, as
    scipy.linalg.toeplitz does, and equals its result bit for bit.
    """
    c = np.asarray(c)
    r = c if r is None else np.asarray(r)
    vals = np.concatenate((c[::-1], r[1:]))
    return np.lib.stride_tricks.sliding_window_view(vals, r.size)[::-1].copy()


def delta_spectral(basis):
    """Unit impulse as a first-block rectangular pulse.

    The pulse has height N/tau and width tau/N, hence unit area; its
    coefficient vector is (N/tau, 0, ..., 0).
    """
    c = np.zeros(basis.n_funcs)
    c[0] = basis.n_funcs / basis.horizon
    return SpectralVector(basis, c)


def white_noise_covariance(basis, intensity):
    """Spectral grid of the covariance intensity * delta(t1 - t2).

    Projecting the delta collapses one integral of the cell mean,
    leaving a diagonal matrix with entries intensity * N/tau.  This is
    exact, no mollifier width enters.
    """
    if not np.isfinite(intensity) or intensity < 0:
        raise ValueError(f"intensity must be nonnegative, got {intensity!r}")
    n = basis.n_funcs
    c = np.zeros((n, n))
    np.fill_diagonal(c, intensity * n / basis.horizon)
    return SpectralMatrix(basis, c)
