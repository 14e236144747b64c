"""Independent reference computations backing the main pipeline.

Nothing in this module touches the block pulse machinery: the
references come from power series (Mittag-Leffler), closed-form
integrals and frequency-domain integrals evaluated by the trapezoid
rule, Grunwald-Letnikov time stepping, and seeded Monte Carlo with
Gaussian-process path sampling.  Agreement between these and the
operational-matrix results validates both sides.

Each reference integral is written in a variable in which its
integrand decays exponentially at both ends (omega = e^u, x = e^u, or
the tanh-sinh map of a finite interval), where the trapezoid rule
converges geometrically in the step.  `_trapezoid` halves the step
until two levels agree, and it refuses an integrand that is not
negligible at the ends of its range.  The integrands and the
Mittag-Leffler series take arrays, and each entry of an array call
has the bits of its scalar call.  So this module needs numpy alone,
except for the normal quantile of a Gaussian parameter in mc_moments.
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
# checks and the trapezoid rule

def _finite_arg(name, x):
    """x as a float array (0-d for a scalar); ValueError if an entry is not finite."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite, got {float(x[~np.isfinite(x)][0])!r}")
    return x


_H0 = 0.5  # first step of the trapezoid rule
_HALVINGS = 8  # step halvings after which an integral counts as not converged
_BLOCK = 1 << 16  # integrand values per call, which bounds the temporaries
_TOL = 1e-12  # relative agreement of two levels that ends the halving


def _trapezoid(f, x, lo, hi, fail):
    """int_lo^hi f(v, x_i) dv for each entry x_i of the 1-D array x.

    The trapezoid rule starts at step _H0 ((hi - lo)/_H0 must be whole)
    and halves the step, reusing the nodes it has, until two levels
    agree to _TOL relative.  f(v, x) is called with v of shape (1, n)
    and x of shape (k, 1) and returns shape (k, n).  Each entry is
    summed on its own and frozen once it converges, so an entry's value
    does not depend on the other entries.  RuntimeError(fail(x_i)) for
    an entry with a non-finite integrand, an integrand at lo or hi that
    is not negligible against the integral, or no convergence within
    _HALVINGS halvings.
    """
    def sums(v, rows, w=1.0):
        """Sum over the nodes v of w f for the entries x[rows], in blocks of rows."""
        out = np.empty(rows.size)
        step = max(1, _BLOCK // v.size)
        for i in range(0, rows.size, step):
            r = rows[i:i + step]
            y = f(v[None, :], x[r, None])
            bad = ~np.isfinite(y).all(axis=1)
            if bad.any():
                raise RuntimeError(fail(x[r[bad][0]]))
            out[i:i + step] = np.sum(y * w, axis=1)
        return out

    x = np.asarray(x, dtype=float)
    h = _H0
    n = int(round((hi - lo) / h))
    rows = np.arange(x.size)
    w = np.ones(n + 1)
    w[[0, -1]] = 0.5
    total = h * sums(lo + h * np.arange(n + 1), rows, w)
    ends = np.abs(sums(np.array([lo]), rows)) + np.abs(sums(np.array([hi]), rows))
    bad = ~(ends <= _TOL * np.abs(total))
    if bad.any():
        raise RuntimeError(fail(x[bad.argmax()]))
    out = np.empty(x.size)
    for _ in range(_HALVINGS):
        h *= 0.5
        new = 0.5 * total + h * sums(lo + h * (2 * np.arange(n) + 1), rows)
        n *= 2
        done = np.abs(new - total) <= _TOL * np.abs(new)
        out[rows[done]] = new[done]
        rows, total = rows[~done], new[~done]
        if not rows.size:
            return out
    raise RuntimeError(fail(x[rows[0]]))


# ---------------------------------------------------------------------------
# special functions

def _rgamma(g):
    """1/Gamma(g): 0 at the poles g = 0, -1, -2, ..., and 0 or +-inf where
    Gamma(g) leaves the float range."""
    if g <= 0 and g == math.floor(g):
        return 0.0
    try:
        gam = math.gamma(g)
    except OverflowError:
        return 0.0
    return 1.0 / gam if gam else math.copysign(math.inf, gam)


def mittag_leffler(alpha, beta, z, max_terms=10 ** 4):
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z), real z.

    Power series sum_k z^k / Gamma(alpha k + beta) with compensated
    accumulation, terms evaluated in log space; each entry of an array
    z stops once two consecutive terms fall below 1e-16 of its partial
    sum.  Intended for the moderate-argument regime (|z| up to about 10
    for orders away from zero); a non-finite argument, term overflow or
    hitting the term cap raises.  A scalar z gives a float.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    beta = float(_finite_arg("beta", beta))
    z = _finite_arg("z", z)
    flat = z.ravel()
    out = np.full(flat.size, _rgamma(beta))  # the value at z = 0
    live = np.flatnonzero(flat)
    zl = flat[live]
    log_az = np.log(np.abs(zl))
    odd = np.where(zl < 0, -1.0, 1.0)  # sign of an odd power of z
    s = np.zeros(live.size)
    comp = np.zeros(live.size)  # Kahan compensation
    small_run = np.zeros(live.size, dtype=int)
    for k in range(max_terms):
        if not live.size:
            break
        g = alpha * k + beta
        if g > 0:
            log_t = k * log_az - math.lgamma(g)
            if log_t.max() > 700.0:
                raise RuntimeError(
                    f"series term overflow at k={k}; argument z={zl[log_t.argmax()]:g} "
                    f"outside the usable regime for alpha={alpha:g}")
            t = np.exp(log_t)
            if k % 2:
                t = t * odd
        else:
            # Gamma pole or negative argument at small k
            t = zl ** k * _rgamma(g)
        y = t - comp
        u = s + y
        comp = (u - s) - y
        s = u
        small_run = np.where(np.abs(t) < 1e-16 * np.abs(s), small_run + 1, 0)
        done = small_run >= 2
        if done.any():
            out[live[done]] = s[done]
            keep = ~done
            live, zl, log_az, odd, s, comp, small_run = (
                a[keep] for a in (live, zl, log_az, odd, s, comp, small_run))
    if live.size:
        raise RuntimeError(f"Mittag-Leffler series did not converge in {max_terms} terms "
                           f"for alpha={alpha:g}, beta={beta:g}, z={zl[0]:g}")
    return float(out[0]) if z.ndim == 0 else out.reshape(z.shape)


# ---------------------------------------------------------------------------
# closed-form integrals for the bundled examples

_S5, _C5 = math.sin(0.5 * math.pi), math.cos(0.5 * math.pi)
_S8, _C8 = math.sin(0.8 * math.pi), math.cos(0.8 * math.pi)


def _times(t, positive):
    """t as a float array of times, checked finite and positive (or nonnegative)."""
    t = _finite_arg("t", t)
    bad = t <= 0 if positive else t < 0
    if bad.any():
        kind = "positive" if positive else "nonnegative"
        raise ValueError(f"t must be {kind}, got {float(t[bad][0])!r}")
    return t


def analytic_impulse_example1(t):
    """Impulse response of the distributed integrator of orders [0.5, 0.8].

    Evaluates the real-axis inversion integral

        h(t) = (1/pi) int_0^inf e^(-x t) / (ln(x)^2 + pi^2)
               * [x^(-1/2) (sin(pi/2) ln x + pi cos(pi/2))
                  - x^(-4/5) (sin(4pi/5) ln x + pi cos(4pi/5))] dx

    after the substitution x = e^u, over the whole line: the integrand
    falls like e^(u/5)/|u| as u -> -inf and like exp(-e^u t) as
    u -> inf, so [-200, 40] holds all but about 1e-20 of it.  Relative
    accuracy target 1e-12 for t in roughly [0.05, 10].  An array t
    gives an array.
    """
    t = _times(t, positive=True)

    def f(u, t):
        bracket = (np.exp(0.5 * u) * (_S5 * u + math.pi * _C5)
                   - np.exp(0.2 * u) * (_S8 * u + math.pi * _C8))
        return np.exp(-np.exp(u) * t) * (bracket / (u * u + math.pi * math.pi) / math.pi)

    val = _trapezoid(f, t.ravel(), -200.0, 40.0,
                     lambda t: f"impulse-response quadrature did not converge at t={t:g}")
    return float(val[0]) if t.ndim == 0 else val.reshape(t.shape)


def variance_double_integrator(t, a1=1.0, a2=1.0, alpha1=0.75, alpha2=1.0):
    """Output variance of a1 D^alpha1 y + a2 D^alpha2 y = white noise.

    Closed form

        var(t) = (1/a2^2) int_0^t u^(2(alpha2-1))
                 [ E_{alpha2-alpha1, alpha2}( -(a1/a2) u^(alpha2-alpha1) ) ]^2 du

    finite for alpha2 > 1/2 only.  The tanh-sinh map u = t s(pi sinh v),
    s the logistic function, taken in log space, turns the u^(2 alpha2 - 2)
    endpoint singularity into a double-exponential decay in v; the range
    of v grows as alpha2 nears 1/2.  Relative accuracy target 1e-12.  An
    array t gives an array; t = 0 gives 0.
    """
    t = _times(t, positive=False)
    if not alpha1 < alpha2:
        raise ValueError(f"need alpha1 < alpha2, got {alpha1!r} >= {alpha2!r}")
    if not alpha2 > 0.5:
        raise ValueError(f"the white-noise variance is infinite for alpha2 <= 1/2, "
                         f"got alpha2={alpha2!r}")
    dm = alpha2 - alpha1
    p1 = 2.0 * alpha2 - 1.0  # exponent of the singularity, plus one
    ratio = a1 / a2
    # at |v| = vmax the integrand has fallen to about e^-45 of its size
    vmax = 0.5 * math.ceil(2.0 * math.asinh(45.0 / (math.pi * min(p1, 1.0))))

    def f(v, t):
        y = math.pi * np.sinh(v)
        log_u = np.log(t) - np.logaddexp(0.0, -y)
        # u^(p1 - 1) du/dv with du/dv = u (1 - s(y)) pi cosh v
        jac = np.exp(p1 * log_u - np.logaddexp(0.0, y)
                     + (math.log(0.5 * math.pi) + np.logaddexp(v, -v)))
        e = mittag_leffler(dm, alpha2, -ratio * np.exp(dm * log_u))
        return jac * (e * e / (a2 * a2))

    flat = t.ravel()
    val = np.zeros(flat.size)
    pos = flat > 0
    val[pos] = _trapezoid(f, flat[pos], -vmax, vmax,
                          lambda t: f"variance quadrature did not converge at t={t:g}")
    return float(val[0]) if t.ndim == 0 else val.reshape(t.shape)


# ---------------------------------------------------------------------------
# frequency domain

def _dist_frequency_factor(term, s):
    """int rho(alpha) s^(+-alpha) dalpha over the term's order interval, at each s."""
    s = np.asarray(s, dtype=complex)
    lo, hi = term.lower, term.upper
    if term.sense == "integral":
        lo, hi = -hi, -lo
    named_constant = (term.density is None
                      or (isinstance(term.density, dict)
                          and term.density.get("form") == "constant"))
    if named_constant:
        L = np.log(s)
        small = np.abs(L) < 1e-6
        # (s^hi - s^lo)/ln s, with a short series about ln s = 0
        series = ((hi - lo)
                  + L * (hi ** 2 - lo ** 2) / 2.0
                  + L * L * (hi ** 3 - lo ** 3) / 6.0)
        return np.where(small, series, (s ** hi - s ** lo) / np.where(small, 1.0, L))
    # non-constant density: fixed high-order rule in the order variable,
    # independent of the term's own quad_points
    x, w = np.polynomial.legendre.leggauss(64)
    half = 0.5 * (term.upper - term.lower)
    nodes = term.lower + (x + 1.0) * half
    rho = np.asarray(_density_callable(term.density)(nodes), dtype=float)
    sign = 1.0 if term.sense == "derivative" else -1.0
    return np.sum(w * half * rho * s[..., None] ** (sign * nodes), axis=-1)


def _side_frequency(terms, s, param_values):
    """The side's sum of terms at each Laplace variable of the array s."""
    zero = s == 0
    s1 = np.where(zero, 1j, s)  # stands in for s = 0, where s^alpha -> 0
    total = np.zeros(s.shape, dtype=complex)
    for t in terms:
        coeff = _resolve_coeff(t, param_values)
        if t.kind == "point" and t.order == 0.0:
            total = total + coeff
            continue
        if t.sense == "integral" and zero.any():
            raise ValueError("pole at s = 0: integral-sense term")
        if t.kind == "point":
            sign = 1.0 if t.sense == "derivative" else -1.0
            v = s1 ** (sign * t.order)
        else:
            v = _dist_frequency_factor(t, s1)  # positive orders: also -> 0 at s = 0
        total = total + coeff * np.where(zero, 0.0, v)
    return total


def freq_response(sys, omega, param_values=None):
    """Transfer function value G(j omega) = RHS(s)/LHS(s) at s = j omega.

    Complex powers use the principal branch, so on the imaginary axis
    s^alpha = |omega|^alpha exp(j alpha sign(omega) pi/2).  Distributed
    terms with constant density use the closed form
    (s^upper - s^lower)/ln s, with a series fallback where ln s
    vanishes.  A scalar omega gives a complex number, an array of omega
    an array of the same shape.
    """
    w = np.asarray(omega, dtype=float)
    s = 1j * np.atleast_1d(w)
    den = _side_frequency(sys.lhs_terms, s, param_values)
    pole = den == 0
    if pole.any():
        raise ValueError(f"pole on the imaginary axis at omega={float(s[pole][0].imag)!r}")
    g = _side_frequency(sys.rhs_terms, s, param_values) / den
    return complex(g[0]) if w.ndim == 0 else g


def steady_state_variance_frequency(sys, param_values=None):
    """Steady-state output variance under unit white noise.

    (1/2 pi) int_-inf^inf |G(j w)|^2 dw, folded to the positive axis by
    conjugate symmetry and taken over u = ln w in [-100, 100] by the
    trapezoid rule.  Relative accuracy target 1e-12; a divergent or
    non-decaying integrand (one not negligible at either end of that
    range, or at w = 1e8) raises.
    """
    def g2(w):
        v = freq_response(sys, w, param_values)
        return v.real * v.real + v.imag * v.imag

    def fail(_):
        return ("frequency integral did not converge; the system "
                "may be unstable or not strictly proper")

    def f(u, _):  # w = e^u; one integral, so x below is one dummy entry
        w = np.exp(u)
        return g2(w) * w

    tail_probe = g2(1e8) * 1e8
    val = float(_trapezoid(f, np.zeros(1), -100.0, 100.0, fail)[0]) / math.pi
    if not val > 0 or tail_probe > 1e-3 * val:
        raise RuntimeError(fail(None))
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
