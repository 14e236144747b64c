"""Output moments under random forcing and random coefficients.

For a linear system the output mean and variance follow from the
input mean C_mU and covariance C_kUU through the assembled operator A_j
at each cubature node j, of probability weight w_j:

    C_mY  = sum_j w_j A_j C_mU
    var_Y = sum_j w_j [ diag(A_j C_kUU A_j^T) + (A_j C_mU - C_mY)^2 ]

This is the diagonal of E[A_G (C_kUU + C_mU C_mU^T) A_G^T] - C_mY C_mY^T
in centred form: every term is a variance, so nothing cancels.  With
deterministic coefficients there is one node of weight 1.  With random
coefficients the nodes are a full tensor Gauss cubature over the
parameters (stochastic collocation), and the per-node vectors are
summed with the probability weights in one weighted sum each, so node
ordering moves results only at roundoff.

Random parameters bind coefficients, never orders, so every term's
integral-form column is built once per propagate_moments call.  The
J cubature nodes then take one pass over a (J, N) stack: the LHS
columns of all nodes are inverted in one call, and the products A_j mu
and A_j F_k, for the r columns F_k of the covariance factor, are one
GEMM per forcing column, its lower-Toeplitz matrix shared by all nodes,
up to 512 blocks (O(J N^2)) and a batched real FFT above
(O(J N log N)), see opmat.  The pass yields both moments.

The input covariance is factored once, C_kUU = F F^T, when the forcing
is built.  A diagonal covariance (white noise) is its own factor.  Any
other is factored by pivoted Cholesky, O(N r^2) for rank r, stopped
once the trace left is at most n * eps * trace(C), and kept when the
residual certifies C positive semidefinite (Gershgorin on the row and
column sums of |C - F F^T|, O(N^2 r)).  A
C the certificate does not pass, or of rank above N / 4, takes the
symmetric eigendecomposition truncated to the eigenvalues above
n * eps * lambda_max (numpy's `matrix_rank` rule), F = V_r
sqrt(Lambda_r), which also rejects an indefinite C.  Then
diag(A_G C_kUU A_G^T) = rowsum((A_G F)^2), a sum of squares, so the
variance is non-negative by construction.
"""

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .bpf import SpectralVector, SpectralMatrix
from .opmat import _row_products
from .dosys import _bind, _system_columns
# not called here; kept bound so perfbench's tracer finds it by name
from .dosys import assemble_system_operator  # noqa: F401

__all__ = [
    "StochasticForcing", "MomentResult", "CubatureGrid",
    "parameter_quadrature", "tensor_cubature", "propagate_moments",
]

# tolerated asymmetry / negativity relative to the largest entry;
# projection truncation produces harmless violations at this scale
_SYM_RTOL = 1e-10
_PSD_RTOL = 1e-8


def _rank_rtol(n):
    """Relative cut of the covariance factor: numpy's matrix_rank rule, n * eps.

    The eigendecomposition drops eigenvalues at or below it times
    lambda_max; pivoted Cholesky stops once the trace of what is left
    is at or below it times trace(C).
    """
    return n * np.finfo(float).eps


def _pivoted_cholesky(c):
    """F (N x r) with C ~ F F^T by diagonal pivoting, or None past rank N // 4.

    Harbrecht, Peters & Schneider, Appl. Numer. Math. 62 (2012): each
    step takes the largest diagonal entry d_p of the Schur complement S
    left so far and adds the column (C[p] - F F[p]^T) / sqrt(d_p).  It
    stops once trace(S) <= _rank_rtol(N) * trace(C), which keeps 8
    columns of ex5's sinc kernel at N = 64 and 7 at N = 512-4096, with
    max|C - F F^T| <= 2.5e-13 max|C|.  A bound on the largest entry
    instead, max(d) <= N eps |F[:, 0]|^2, stops at 6 columns from
    N = 2048, with a residual of 1.3e-10 max|C|.
    """
    n = c.shape[0]
    d = np.diag(c).copy()
    stop = _rank_rtol(n) * d.sum()
    rows = np.empty((n // 4, n))  # row k is column k of F
    for m in range(n // 4 + 1):
        if d.sum() <= stop:
            return rows[:m].T
        if m == n // 4:
            return None
        p = int(np.argmax(d))
        rows[m] = (c[p] - rows[:m, p] @ rows[:m]) / np.sqrt(d[p])
        d -= rows[m] * rows[m]


def _residual_bounds(c, fac):
    """(max|R|, Gershgorin bound) of R = C - F F^T, one block of rows at a time.

    The bound is max(max row sum, max column sum) of |R|, at least the
    largest row sum of |sym R| and so at least -lambda_min(sym R).  No
    second N x N array is built.  NaN propagates (an overflowed factor
    is never certified).
    """
    n = c.shape[0]
    step = max(1, 2 ** 18 // n)
    peaks, row_sums, col_sums = [], [], np.zeros(n)
    for i in range(0, n, step):
        r = np.abs(c[i:i + step] - fac[i:i + step] @ fac.T)
        peaks.append(r.max())
        row_sums.append(r.sum(axis=1).max())
        col_sums += r.sum(axis=0)
    return np.max(peaks), np.max([*row_sums, col_sums.max()])


def _factor_covariance(c):
    """Check C and factor it: (factor, method, PSD margin).

    The factor is 1-D d with C = diag(d), or F with C ~ F F^T.  The
    margin bounds max(-lambda_min(C), 0) / max|C|, and C is rejected
    where it passes _PSD_RTOL.  A diagonal C is symmetric and has its
    diagonal as its eigenvalues, so it is checked in O(N) and returned
    as that diagonal, entries at or below _rank_rtol(n) * max(d) set to
    0.  Any other C is tried by pivoted Cholesky first, and kept if
    C - F F^T = R certifies it: lambda_min(C) >= lambda_min(sym R) >=
    -G, G = max(max row sum, max column sum) of |R| (Gershgorin, at most
    N max|R|), so G <= _PSD_RTOL max|C| proves the eigendecomposition
    would not reject C.  Since C - C^T = R - R^T (up
    to the rounding of F F^T), 2 max|R| <= _SYM_RTOL max|C| also proves
    C symmetric; only where that bound does not (a certified factor
    below N = 200, or no certified factor) does the dense check
    max|C - C^T| run.  Without a certified factor, also for a rank past
    N // 4, the symmetric eigendecomposition decides, dropping the
    eigenvalues at or below _rank_rtol(n) * lambda_max.
    """
    n = c.shape[0]
    d = np.diag(c)
    diagonal = np.count_nonzero(c) == np.count_nonzero(d)
    m = np.abs(d).max() if diagonal else max(c.max(), -c.min())
    floor = m if m > 0 else 1.0
    fac = None if diagonal else _pivoted_cholesky(c)
    if fac is not None:
        res, gershgorin = _residual_bounds(c, fac)
        margin = gershgorin / floor
        if not margin <= _PSD_RTOL:
            fac = None
        elif 2 * res <= _SYM_RTOL * floor:
            return fac, "pivoted_cholesky", margin
    if not diagonal:
        skew = np.abs(c - c.T).max()
        if skew > _SYM_RTOL * floor:
            raise ValueError(f"input covariance is not symmetric: "
                             f"max |C - C^T| = {skew:.3e} vs scale {m:.3e}")
    if d.min() < -_PSD_RTOL * floor:
        raise ValueError(f"input covariance has negative diagonal entries "
                         f"beyond tolerance: min {d.min():.3e} vs scale {m:.3e}")
    if diagonal:
        return (np.where(d > _rank_rtol(n) * max(d.max(), 0.0), d, 0.0), "diagonal",
                max(0.0, -d.min()) / floor)
    if fac is not None:
        return fac, "pivoted_cholesky", margin
    # block averaging preserves positive semidefiniteness exactly, so a
    # clearly negative eigenvalue means the kernel itself is indefinite.
    # The symmetric part has the same quadratic form as C.
    lam, v = np.linalg.eigh(0.5 * (c + c.T))
    if lam[0] < -_PSD_RTOL * floor:
        raise ValueError(f"input covariance is not positive semidefinite: "
                         f"min eigenvalue {lam[0]:.3e} vs scale {m:.3e}")
    keep = lam > _rank_rtol(n) * lam[-1]
    return v[:, keep] * np.sqrt(lam[keep]), "eigh", max(0.0, -lam[0]) / floor


@dataclass(frozen=True, eq=False)
class StochasticForcing:
    """Input mean and covariance in spectral form.

    The covariance is checked (symmetric, positive semidefinite) and
    factored once here, C = F F^T, by certified pivoted Cholesky or else
    the truncated eigendecomposition (see _factor_covariance); `rank` is
    the number of columns kept, `factor_method` the path taken
    ('diagonal', 'pivoted_cholesky' or 'eigh'), `psd_margin` its bound
    on max(-lambda_min, 0) / max|C| and `rank_rtol` its relative cut.  A
    diagonal covariance is its own factor.  The forcing makes the
    covariance array it holds read-only (a view is copied first), so the
    factor cannot go stale.
    """

    mean: SpectralVector
    covariance: SpectralMatrix

    def __post_init__(self):
        if self.mean.basis != self.covariance.basis:
            raise ValueError("mean and covariance live on different bases")
        c = self.covariance.coeffs
        if not c.flags.owndata:
            c = c.copy()
            object.__setattr__(self, "covariance", SpectralMatrix(self.covariance.basis, c))
        fac, method, margin = _factor_covariance(c)
        object.__setattr__(self, "_factor", fac)
        object.__setattr__(self, "factor_method", method)
        object.__setattr__(self, "psd_margin", float(margin))
        c.flags.writeable = False

    @property
    def rank_rtol(self):
        """Relative cut of the factor: of lambda_max, trace(C) or max(d) by method."""
        return _rank_rtol(self.covariance.basis.n_funcs)

    @property
    def rank(self):
        """Number of factor columns (nonzero diagonal entries for a diagonal C)."""
        f = self._factor
        return int(np.count_nonzero(f)) if f.ndim == 1 else f.shape[1]


@dataclass(frozen=True, eq=False)
class MomentResult:
    """Output mean and block variances in spectral form."""

    mean: SpectralVector
    variance: SpectralVector


@dataclass(frozen=True, eq=False)
class CubatureGrid:
    """Flattened tensor cubature: parameter maps and matching weights.

    The weights must be non-negative: propagate_moments' variance is a
    weighted sum of squares, and only non-negative weights keep it so.
    """

    nodes: tuple
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if len(self.nodes) != w.shape[0]:
            raise ValueError("node and weight counts differ")
        if not (w >= 0).all():
            raise ValueError(f"cubature weights must be non-negative, got min {w.min()!r}")
        object.__setattr__(self, "weights", w)

    def __len__(self):
        return len(self.nodes)


def parameter_quadrature(p):
    """Probability-weighted quadrature rule for one random parameter.

    uniform: Gauss-Legendre nodes mapped to [lo, hi], weights divided
    by 2 so they sum to 1 up to rounding.  gaussian: probabilists'
    Gauss-Hermite rule scaled by (mean, stddev), weights divided by
    sqrt(2 pi).

    Returns
    -------
    list of (node, weight) float pairs
    """
    q = p.quad_order
    if p.distribution == "uniform":
        x, w = np.polynomial.legendre.leggauss(q)
        nodes = p.lo + (x + 1.0) * 0.5 * (p.hi - p.lo)
        weights = w / 2.0
    else:  # gaussian, the only other distribution RandomParameter admits
        x, w = np.polynomial.hermite_e.hermegauss(q)
        nodes = p.mean + p.stddev * x
        weights = w / np.sqrt(2.0 * np.pi)
    return list(zip(nodes.tolist(), weights.tolist()))


def tensor_cubature(params):
    """Full tensor product of per-parameter rules.

    The flattening enumerates multi-indices in graded lexicographic
    order: sorted first by total index sum, ties broken
    lexicographically.  Grid size is the product of the quad orders, so
    no parameters give the one node {} of weight 1.
    """
    params = tuple(params)
    rules = [parameter_quadrature(p) for p in params]
    names = [p.name for p in params]
    indices = sorted(product(*(range(len(r)) for r in rules)),
                     key=lambda ix: (sum(ix), ix))
    nodes = []
    weights = []
    for ix in indices:
        nodes.append({n: rules[d][i][0] for d, (n, i) in enumerate(zip(names, ix))})
        weights.append(float(np.prod([rules[d][i][1] for d, i in enumerate(ix)])))
    return CubatureGrid(tuple(nodes), np.array(weights))


def _node_moments(sys, basis, grid, forcing):
    """A_j mu and diag(A_j C A_j^T) for all nodes: two (J, N) stacks.

    _bind gives the (J, N) stack of A_j first columns.  A_j is
    lower-triangular Toeplitz, so with the forcing's factor C = F F^T
    the diagonal is rowsum((A_j F)^2), accumulated one column of F at a
    time: opmat._row_products multiplies every A_j by mu and by each
    column, a GEMM with that column's Toeplitz matrix shared by all
    nodes up to 512 blocks (O(J N^2) each) and a batched real FFT above
    (O(J N log N)).  For a diagonal C = diag(d) each row is the direct
    convolution of a^2 with d, O(N^2), at every N.  Both are sums of
    squares or of non-negative products.
    """
    columns = _system_columns(sys, basis)
    try:
        a = _bind(columns, basis, grid.nodes)
    except (ValueError, RuntimeError) as e:
        j = getattr(e, "row", None)
        if j is None:
            raise
        raise type(e)(f"assembly failed at cubature node {j} {grid.nodes[j]}: {e}") from e
    fac = forcing._factor
    if fac.ndim == 1:
        (a_mu,) = _row_products(a, (forcing.mean.coeffs,))
        # kept direct: an FFT product of these non-negative columns
        # can return tiny negative variances
        n = basis.n_funcs
        return a_mu, np.array([np.convolve(r * r, fac)[:n] for r in a])
    products = _row_products(a, (forcing.mean.coeffs, *fac.T))
    a_mu = next(products)
    var = np.zeros_like(a)
    for af in products:
        var += af * af
    return a_mu, var


def propagate_moments(sys, basis, forcing, grid=None):
    """Mean and variance of the output.

    One pass over a (J, N) stack of the cubature nodes: the term
    columns (built once per call) are bound at every node, the J LHS
    columns are inverted in one call, and A_j mu and diag(A_j C A_j^T)
    come out as two stacks.  The mean sum_j w_j A_j mu and the centred
    variance follow from those stacks.

    Parameters
    ----------
    sys : DOSystem
    basis : BpfBasis
    forcing : StochasticForcing
        Input mean and covariance on the same basis.
    grid : CubatureGrid, optional
        Override the cubature built from sys.random_params;
        deterministic systems get a single unit-weight node.

    Returns
    -------
    MomentResult
    """
    if forcing.mean.basis != basis:
        raise ValueError("forcing does not live on the requested basis")
    grid = tensor_cubature(sys.random_params) if grid is None else grid

    a_mu, var = _node_moments(sys, basis, grid, forcing)
    mean = grid.weights @ a_mu
    # centred form: every term is non-negative, so nothing cancels
    dev = a_mu - mean
    var = grid.weights @ (var + dev * dev)
    return MomentResult(SpectralVector(basis, mean), SpectralVector(basis, var))

