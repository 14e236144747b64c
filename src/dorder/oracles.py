"""Independent reference computations backing the main pipeline.

Nothing in this module touches the block pulse machinery: the
references come from power series (Mittag-Leffler), adaptive
quadrature of closed-form integrals, frequency-domain integration,
Grunwald-Letnikov time stepping, and seeded Monte Carlo with
Gaussian-process path sampling.  Agreement between these and the
operational-matrix results validates both sides.

Each function imports the SciPy routine it calls (quad, special
functions) when it runs, so importing this module loads no SciPy
subpackage; gl_solve and mc_moments (on uniform parameters)
need numpy alone.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .dosys import density_quadrature, _density_callable, _resolve_coeff

__all__ = [
    "mittag_leffler", "analytic_impulse_example1",
    "variance_double_integrator", "freq_response",
    "steady_state_variance_frequency", "gl_weights", "gl_solve",
    "ForcingModel", "McResult", "mc_moments",
]


# ---------------------------------------------------------------------------
# special functions

def _finite_arg(name, x):
    """x as a float; ValueError if it is not finite."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def mittag_leffler(alpha, beta, z, max_terms=10 ** 4):
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z), real z.

    Power series sum_k z^k / Gamma(alpha k + beta) with compensated
    accumulation, terms evaluated in log space; stops once two
    consecutive terms fall below 1e-16 of the partial sum.  Intended
    for the moderate-argument regime (|z| up to about 10 for orders
    away from zero); a non-finite argument, term overflow or hitting
    the term cap raises.
    """
    from scipy.special import gammaln, rgamma

    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    beta = _finite_arg("beta", beta)
    z = _finite_arg("z", z)
    if z == 0.0:
        return float(rgamma(beta))
    log_az = math.log(abs(z))
    neg = z < 0
    s = 0.0
    comp = 0.0  # Kahan compensation
    small_run = 0
    for k in range(max_terms):
        g = alpha * k + beta
        if g > 0:
            log_t = k * log_az - gammaln(g)
            if log_t > 700.0:
                raise RuntimeError(
                    f"series term overflow at k={k}; argument z={z:g} outside "
                    f"the usable regime for alpha={alpha:g}")
            t = math.exp(log_t)
            if neg and k % 2:
                t = -t
        else:
            # Gamma pole or negative argument at small k; rgamma is 0 at poles
            t = z ** k * rgamma(g)
        y = t - comp
        u = s + y
        comp = (u - s) - y
        s = u
        if abs(t) < 1e-16 * abs(s):
            small_run += 1
            if small_run >= 2:
                return s
        else:
            small_run = 0
    raise RuntimeError(f"Mittag-Leffler series did not converge in {max_terms} terms "
                       f"for alpha={alpha:g}, beta={beta:g}, z={z:g}")


# ---------------------------------------------------------------------------
# closed-form integrals for the bundled examples

_S5, _C5 = math.sin(0.5 * math.pi), math.cos(0.5 * math.pi)
_S8, _C8 = math.sin(0.8 * math.pi), math.cos(0.8 * math.pi)


def analytic_impulse_example1(t):
    """Impulse response of the distributed integrator of orders [0.5, 0.8].

    Evaluates the real-axis inversion integral

        h(t) = (1/pi) int_0^inf e^(-x t) / (ln(x)^2 + pi^2)
               * [x^(-1/2) (sin(pi/2) ln x + pi cos(pi/2))
                  - x^(-4/5) (sin(4pi/5) ln x + pi cos(4pi/5))] dx

    after the substitution x = e^u, which regularizes both endpoints.
    Relative accuracy target 1e-8 for t in roughly [0.05, 10].
    """
    from scipy.integrate import quad

    t = _finite_arg("t", t)
    if t <= 0:
        raise ValueError(f"t must be positive, got {t!r}")

    def f(u):
        if u > 36.0:
            return 0.0  # e^(-e^u t) underflows to zero long before here
        x = math.exp(u)
        bracket = (math.exp(0.5 * u) * (_S5 * u + math.pi * _C5)
                   - math.exp(0.2 * u) * (_S8 * u + math.pi * _C8))
        return math.exp(-x * t) / (u * u + math.pi * math.pi) * bracket / math.pi

    v1, e1 = quad(f, -60.0, 0.0, limit=300, epsabs=1e-13, epsrel=1e-10)
    v2, e2 = quad(f, 0.0, 40.0, limit=300, epsabs=1e-13, epsrel=1e-10)
    val = v1 + v2
    if not np.isfinite(val) or (e1 + e2) > max(1e-10, 1e-8 * abs(val)):
        raise RuntimeError(f"impulse-response quadrature did not converge at t={t:g}")
    return val


def variance_double_integrator(t, a1=1.0, a2=1.0, alpha1=0.75, alpha2=1.0):
    """Output variance of a1 D^alpha1 y + a2 D^alpha2 y = white noise.

    Closed form

        var(t) = (1/a2^2) int_0^t u^(2(alpha2-1))
                 [ E_{alpha2-alpha1, alpha2}( -(a1/a2) u^(alpha2-alpha1) ) ]^2 du

    with the algebraic endpoint singularity (alpha2 < 1) handed to the
    weighted quadrature rule.  Relative accuracy target 1e-7.
    """
    from scipy.integrate import quad

    t = _finite_arg("t", t)
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t!r}")
    if t == 0.0:
        return 0.0
    if not alpha1 < alpha2:
        raise ValueError(f"need alpha1 < alpha2, got {alpha1!r} >= {alpha2!r}")
    dm = alpha2 - alpha1
    p = 2.0 * (alpha2 - 1.0)
    ratio = a1 / a2

    def ml_sq(u):
        e = mittag_leffler(dm, alpha2, -ratio * u ** dm)
        return e * e / (a2 * a2)

    if p == 0.0:
        val, err = quad(ml_sq, 0.0, t, limit=200, epsabs=1e-13, epsrel=1e-9)
    elif -1.0 < p < 0.0:
        val, err = quad(ml_sq, 0.0, t, weight="alg", wvar=(p, 0.0),
                        limit=200, epsabs=1e-13, epsrel=1e-9)
    else:
        val, err = quad(lambda u: u ** p * ml_sq(u), 0.0, t,
                        limit=200, epsabs=1e-13, epsrel=1e-9)
    if not np.isfinite(val) or err > max(1e-12, 1e-7 * abs(val)):
        raise RuntimeError(f"variance quadrature did not converge at t={t:g}")
    return val


# ---------------------------------------------------------------------------
# frequency domain

def _dist_frequency_factor(term, s):
    """int rho(alpha) s^(+-alpha) dalpha over the term's order interval."""
    lo, hi = term.lower, term.upper
    if term.sense == "integral":
        lo, hi = -hi, -lo
    named_constant = (term.density is None
                      or (isinstance(term.density, dict)
                          and term.density.get("form") == "constant"))
    if named_constant:
        L = np.log(s)
        if abs(L) < 1e-6:
            # (s^hi - s^lo)/ln s, short series about ln s = 0
            return ((hi - lo)
                    + L * (hi ** 2 - lo ** 2) / 2.0
                    + L * L * (hi ** 3 - lo ** 3) / 6.0)
        return (s ** hi - s ** lo) / L
    # non-constant density: fixed high-order rule in the order variable,
    # independent of the term's own quad_points
    x, w = np.polynomial.legendre.leggauss(64)
    half = 0.5 * (term.upper - term.lower)
    nodes = term.lower + (x + 1.0) * half
    rho = np.asarray(_density_callable(term.density)(nodes), dtype=float)
    sign = 1.0 if term.sense == "derivative" else -1.0
    return np.sum(w * half * rho * s ** (sign * nodes))


def _side_frequency(terms, s, param_values):
    total = 0j
    for t in terms:
        coeff = _resolve_coeff(t, param_values)
        if t.kind == "point":
            if t.order == 0.0:
                total += coeff
            elif s == 0:
                if t.sense == "integral":
                    raise ValueError("pole at s = 0: integral-sense term")
                # s^alpha -> 0
            else:
                sign = 1.0 if t.sense == "derivative" else -1.0
                total += coeff * s ** (sign * t.order)
        else:
            if s == 0:
                if t.sense == "integral":
                    raise ValueError("pole at s = 0: integral-sense term")
                # s^alpha integrated over positive orders -> 0
            else:
                total += coeff * _dist_frequency_factor(t, s)
    return total


def freq_response(sys, omega, param_values=None):
    """Transfer function value G(j omega) = RHS(s)/LHS(s) at s = j omega.

    Complex powers use the principal branch, so on the imaginary axis
    s^alpha = |omega|^alpha exp(j alpha sign(omega) pi/2).  Distributed
    terms with constant density use the closed form
    (s^upper - s^lower)/ln s, with a series fallback where ln s
    vanishes.
    """
    s = 1j * float(omega) if omega != 0 else 0
    den = _side_frequency(sys.lhs_terms, s, param_values)
    if den == 0:
        raise ValueError(f"pole on the imaginary axis at omega={omega!r}")
    num = _side_frequency(sys.rhs_terms, s, param_values)
    return complex(num / den)


def steady_state_variance_frequency(sys, param_values=None):
    """Steady-state output variance under unit white noise.

    (1/2 pi) int_-inf^inf |G(j w)|^2 dw, folded to the positive axis by
    conjugate symmetry.  Relative accuracy target 1e-6; a divergent or
    non-decaying integrand raises.
    """
    from scipy.integrate import quad

    def g2(w):
        v = freq_response(sys, w, param_values)
        return v.real * v.real + v.imag * v.imag

    tail_probe = g2(1e8) * 1e8
    v1, e1 = quad(g2, 0.0, 50.0, limit=500, epsabs=1e-13, epsrel=1e-9)
    v2, e2 = quad(g2, 50.0, np.inf, limit=500, epsabs=1e-13, epsrel=1e-9)
    val = (v1 + v2) / math.pi
    if (not np.isfinite(val) or val <= 0
            or (e1 + e2) / math.pi > max(1e-12, 1e-6 * abs(val))
            or tail_probe > 1e-3 * abs(val)):
        raise RuntimeError("frequency integral did not converge; the system "
                           "may be unstable or not strictly proper")
    return val


# ---------------------------------------------------------------------------
# Grunwald-Letnikov stepping

def gl_weights(alpha, n):
    """First n binomial weights of (1 - z)^alpha.

    w_0 = 1, w_k = w_{k-1} (1 - (alpha + 1)/k).  Negative alpha gives
    the fractional-integration weights.
    """
    w = np.empty(n)
    w[0] = 1.0
    for k in range(1, n):
        w[k] = w[k - 1] * (1.0 - (alpha + 1.0) / k)
    return w


def _term_weights(terms, n, h):
    """(term, convolution weights at unit coefficient) per term, built once per grid.

    Distributed terms are collapsed by their order quadrature.
    """
    out = []
    for t in terms:
        col = np.zeros(n)
        for a_l, w_l in density_quadrature(t):
            s = a_l if t.sense == "derivative" else -a_l
            col += w_l * h ** (-s) * gl_weights(s, n)
        out.append((t, col))
    return out


def _gl_march(lhs_cols, rhs_cols, u, values):
    """March y through sum c_i w_i * y = sum c_j (w_j * u) (truncated convolutions).

    lhs_cols and rhs_cols are _term_weights lists; the coefficients c
    are bound at the parameter values `values`.
    """
    n = u.shape[0]
    w_lhs = np.zeros(n)
    for t, col in lhs_cols:
        w_lhs += _resolve_coeff(t, values) * col
    rhs = np.zeros(n)
    for t, col in rhs_cols:
        rhs += _resolve_coeff(t, values) * np.convolve(col, u)[:n]
    if w_lhs[0] == 0.0:
        raise ValueError("degenerate stepping operator: leading weight is zero")
    y = np.empty(n)
    w0 = w_lhs[0]
    tail = w_lhs[1:]
    y[0] = rhs[0] / w0
    for k in range(1, n):
        y[k] = (rhs[k] - np.dot(tail[:k], y[k - 1::-1])) / w0
    return y


def gl_solve(sys, input_samples, step, param_values=None):
    """Finite-difference solve on a uniform grid, zero initial conditions.

    Fractional operators are replaced by Grunwald-Letnikov
    convolutions with binomial weights; distributed terms are first
    collapsed by their order quadrature.  Sample k of the input and
    output sits at time (k + 1) * step.  First-order accurate in the
    step; too-large steps degrade accuracy without raising.
    """
    u = np.asarray(input_samples, dtype=float)
    if u.ndim != 1 or u.size == 0:
        raise ValueError("input_samples must be a nonempty 1-D array")
    n = u.shape[0]
    h = float(step)
    if not h > 0:
        raise ValueError(f"step must be positive, got {step!r}")
    return _gl_march(_term_weights(sys.lhs_terms, n, h), _term_weights(sys.rhs_terms, n, h),
                     u, param_values)


# ---------------------------------------------------------------------------
# Monte Carlo with Gaussian-process forcing

def _grid_cholesky(cov_fn, t):
    """Lower Cholesky factor of cov_fn on the grid t, jitter 1e-10 * trace on the diagonal."""
    k = np.asarray(cov_fn(t[:, None], t[None, :]), dtype=float)
    if k.shape != (t.size, t.size):
        raise ValueError("cov_fn must evaluate on broadcast grids")
    k = k + np.eye(t.size) * (1e-10 * np.trace(k))
    try:
        return np.linalg.cholesky(k)
    except np.linalg.LinAlgError as e:
        raise ValueError(f"covariance is not positive semidefinite on the grid: {e}") from e


@dataclass(frozen=True)
class ForcingModel:
    """Continuous-time forcing description for the Monte Carlo driver.

    mean_fn is a constant or a callable of time.  At most one of
    kernel (two-argument covariance function) and white_intensity
    (Dirac covariance magnitude) may be set; neither means the forcing
    is deterministic.
    """

    mean_fn: object = 0.0
    kernel: object = None
    white_intensity: float | None = None

    def __post_init__(self):
        if self.kernel is not None and self.white_intensity is not None:
            raise ValueError("kernel and white_intensity are mutually exclusive")
        if self.white_intensity is not None and not (
                math.isfinite(self.white_intensity) and self.white_intensity >= 0):
            raise ValueError(
                f"white_intensity must be finite and nonnegative, got {self.white_intensity!r}")

    def mean_values(self, t):
        """The mean on the grid t; pointwise if mean_fn does not broadcast."""
        if not callable(self.mean_fn):
            return np.full(t.shape, float(self.mean_fn))
        v = np.asarray(self.mean_fn(t), dtype=float)
        if v.shape != t.shape:
            v = np.array([float(self.mean_fn(ti)) for ti in t])
        return v


@dataclass(frozen=True, eq=False)
class McResult:
    """Empirical output moments with standard errors on a uniform grid."""

    times: np.ndarray = field(repr=False)
    mean: np.ndarray = field(repr=False)
    variance: np.ndarray = field(repr=False)
    se_mean: np.ndarray = field(repr=False)
    se_variance: np.ndarray = field(repr=False)


class _RunningMoments:
    """One-pass mean and central moments up to order four (vectorized).

    Standard numerically stable updates; fourth moment feeds the
    standard error of the variance estimate.
    """

    def __init__(self, dim):
        self.n = 0
        self.mean = np.zeros(dim)
        self.m2 = np.zeros(dim)
        self.m3 = np.zeros(dim)
        self.m4 = np.zeros(dim)

    def update(self, x):
        self.n += 1
        n = self.n
        d = x - self.mean
        dn = d / n
        term = d * dn * (n - 1)
        self.m4 += (term * dn * dn * (n * n - 3 * n + 3)
                    + 6.0 * dn * dn * self.m2 - 4.0 * dn * self.m3)
        self.m3 += term * dn * (n - 2) - 3.0 * dn * self.m2
        self.m2 += term
        self.mean += dn

    def variance(self):
        return self.m2 / (self.n - 1)

    def se_mean(self):
        return np.sqrt(self.variance() / self.n)

    def se_variance(self):
        n = self.n
        var = self.variance()
        m4c = self.m4 / n
        inner = m4c - (n - 3.0) / (n - 1.0) * var * var
        return np.sqrt(np.maximum(inner, 0.0) / n)


def _draw_parameters(params, u):
    """Inverse-CDF map from uniforms on (0,1) to parameter values."""
    out = {}
    for p, ui in zip(params, u):
        if p.distribution == "uniform":
            out[p.name] = p.lo + (p.hi - p.lo) * float(ui)
        else:
            from scipy.special import ndtri
            out[p.name] = p.mean + p.stddev * float(ndtri(ui))
    return out


def mc_moments(sys, forcing, horizon, n_grid, n_samples, seed):
    """Monte Carlo output moments via Grunwald-Letnikov inner solves.

    Per sample: draw parameter values (inverse CDF from a pseudorandom
    uniform stream), draw a forcing path (Gaussian process for kernel
    covariances, independent normals scaled by sqrt(intensity/step)
    for white noise), march the sample equation, and fold the path
    into one-pass moment accumulators.

    Per-sample generators are spawned from SeedSequence(seed), one
    child per sample index, so the result is independent of evaluation
    order and reproducible bit for bit under a fixed seed.

    Returns
    -------
    McResult
        Grid times (k + 1) * horizon/n_grid, empirical mean and
        variance, and their standard errors.
    """
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples!r}")
    if n_grid < 1:
        raise ValueError(f"n_grid must be positive, got {n_grid!r}")
    h = float(horizon) / n_grid
    times = (np.arange(n_grid) + 1) * h

    lhs_cols = _term_weights(sys.lhs_terms, n_grid, h)
    rhs_cols = _term_weights(sys.rhs_terms, n_grid, h)
    mean_vals = forcing.mean_values(times)

    ell = None if forcing.kernel is None else _grid_cholesky(forcing.kernel, times)
    white_scale = (None if forcing.white_intensity is None
                   else math.sqrt(forcing.white_intensity / h))

    params = sys.random_params
    children = np.random.SeedSequence(seed).spawn(n_samples)
    acc = _RunningMoments(n_grid)
    for i in range(n_samples):
        rng = np.random.default_rng(children[i])
        values = _draw_parameters(params, rng.random(len(params))) if params else {}
        path = mean_vals
        if ell is not None:
            path = mean_vals + ell @ rng.standard_normal(n_grid)
        elif white_scale is not None:
            path = mean_vals + white_scale * rng.standard_normal(n_grid)
        acc.update(_gl_march(lhs_cols, rhs_cols, path, values))

    return McResult(times, acc.mean.copy(), acc.variance(), acc.se_mean(),
                    acc.se_variance())
