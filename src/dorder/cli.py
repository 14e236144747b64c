"""Command-line front end: solve, stoch, mc, oracle.

Reads a JSON system description (schema_version 1), runs the requested
analysis, and writes a CSV time series plus a JSON manifest that
records every resolved parameter, seed, and version needed to
reproduce the run.  The config is the one description of the system:
its terms, coefficients, order quadrature and horizon come from it
alone, and a verify check reads the shape it checks from those terms
(a system the check's oracle does not describe is a config error).
Flags set only the discretization (--n-basis, or --n-grid, --samples
and --seed for mc), the output path and --verify.

Exit codes: 0 success, 1 usage or config error (an output file that
cannot be written included), 2 numeric failure, 3 verification
failure.  Every config value and flag is checked before any numeric
work starts, so a config error writes nothing; the CSV and its
manifest are written both or neither.
"""

import argparse
import dataclasses
import errno
import json
import math
import os
import sys
import tempfile

import numpy as np
import scipy

from . import __version__
from .bpf import (make_basis, project_function, project_bivariate, project_stationary,
                  delta_spectral, white_noise_covariance)
from .dosys import system_from_dict, system_to_dict
from .detsolve import solve, solve_ivp_shifted, _relaxation_form
from .stochsolve import StochasticForcing, propagate_moments
from . import oracles

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# config loading

class ConfigError(ValueError):
    """Problem with the run configuration (maps to exit code 1)."""


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path} is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be an object")
    ver = cfg.get("schema_version")
    if ver != SCHEMA_VERSION:
        raise ConfigError(f"{path}: schema_version must be {SCHEMA_VERSION}, got {ver!r}")
    return cfg


def _build_system(cfg):
    try:
        return system_from_dict(cfg)
    except (ValueError, TypeError, KeyError) as e:
        raise ConfigError(f"bad system description: {e}") from e


def _resolve_horizon(cfg):
    h = cfg.get("horizon")
    if h is None:
        raise ConfigError("no horizon: set 'horizon' in the config")
    h = float(h)
    if not (np.isfinite(h) and h > 0):
        raise ConfigError(f"horizon must be positive and finite, got {h!r}")
    return h


def _finite(spec, key, default, ndim=0):
    """spec[key], or default when absent, as a finite float, or for ndim > 0
    as a float array of that many dimensions; ConfigError if not."""
    v = np.asarray(spec.get(key, default), dtype=float)
    if v.ndim != ndim:
        raise ConfigError(f"{key} must have {ndim} dimension(s), got {v.ndim}")
    if not np.isfinite(v).all():
        raise ConfigError(f"{key} must be finite, got {v.tolist()!r}")
    return float(v) if ndim == 0 else v


def _table_fn(spec, xkey, ykey):
    x = _finite(spec, xkey, None, 1)
    y = _finite(spec, ykey, None, 1)
    if x.shape != y.shape or x.size < 2:
        raise ConfigError(f"table needs matching 1-D '{xkey}'/'{ykey}' arrays, length >= 2")
    if np.any(np.diff(x) <= 0):
        raise ConfigError(f"table '{xkey}' values must be strictly increasing")
    return lambda t: np.interp(t, x, y)


def _signal_fn(spec, what, default, forms="constant|table"):
    """constant|table block -> callable of time."""
    form = spec.get("form")
    if form == "constant":
        value = _finite(spec, "value", default)
        return lambda t: np.full_like(np.asarray(t, dtype=float), value)
    if form == "table":
        return _table_fn(spec, "t", "u")
    raise ConfigError(f"unknown {what} form {form!r} (expected {forms})")


def _input_fn(cfg):
    """Deterministic input block -> callable of time, or None for the unit impulse."""
    spec = cfg.get("input", {"form": "delta"})
    if spec.get("form") == "delta":
        return None
    return _signal_fn(spec, "input", 1.0, "delta|constant|table")


def _kernel_fn(spec):
    """Covariance block -> (kernel callable or None, its function of the lag
    t1 - t2 for a stationary form or None, white intensity or None)."""
    form = spec.get("form")
    if form == "white":
        q = _finite(spec, "intensity", 1.0)
        if q < 0:
            raise ConfigError(f"white intensity must be nonnegative, got {q!r}")
        return None, None, q
    if form == "sinc":
        var = _finite(spec, "variance", 1.0)
        width = _finite(spec, "width", 2.0 * math.pi)
        if var < 0 or width <= 0:
            raise ConfigError("sinc covariance needs variance >= 0 and width > 0")
        def kernel(t1, t2):
            return var * np.sinc((t1 - t2) / width)

        return kernel, (lambda tau: kernel(tau, 0.0)), None
    if form == "table":
        t = _finite(spec, "t", None, 1)
        k = _finite(spec, "k", None, 2)
        if k.shape != (t.size, t.size):
            raise ConfigError("table covariance needs 1-D 't' and square 'k' of matching size")
        from scipy.interpolate import RegularGridInterpolator
        interp = RegularGridInterpolator((t, t), k, bounds_error=False, fill_value=None)

        def kernel(t1, t2):
            tt1, tt2 = np.broadcast_arrays(np.asarray(t1, float), np.asarray(t2, float))
            pts = np.stack([tt1.ravel(), tt2.ravel()], axis=-1)
            return interp(pts).reshape(tt1.shape)

        return kernel, None, None
    raise ConfigError(f"unknown covariance form {form!r} (expected white|sinc|table)")


def _forcing_blocks(cfg):
    spec = cfg.get("forcing")
    if not isinstance(spec, dict) or "mean" not in spec or "covariance" not in spec:
        raise ConfigError("stochastic runs need a 'forcing' block with 'mean' and 'covariance'")
    return _signal_fn(spec["mean"], "forcing mean", 0.0), _kernel_fn(spec["covariance"])


# ---------------------------------------------------------------------------
# output

def _csv_cells(col):
    """Iterator over the repr of each value of an array or list column, blank for None."""
    if isinstance(col, np.ndarray):
        return map(repr, col.astype(float, copy=False).tolist())
    return ("" if v is None else repr(float(v)) for v in col)


def _csv_text(header, columns):
    """Locale-independent CSV: dot decimal, LF endings, blank for None.

    Cells are formatted a row at a time, so only one row of cell
    strings is alive at once.
    """
    rows = zip(*map(_csv_cells, columns))
    return "\n".join([",".join(header)] + [",".join(row) for row in rows]) + "\n"


def _require_finite(columns):
    """Raise FloatingPointError if a named column holds a non-finite value (None is blank)."""
    for name, col in columns:
        if not isinstance(col, np.ndarray):
            col = np.array([v for v in col if v is not None], dtype=float)
        if not np.isfinite(col).all():
            raise FloatingPointError(f"result column {name!r} holds non-finite values")


def _default_output(config_path, command):
    stem = os.path.splitext(os.path.basename(config_path))[0]
    return f"{stem}.{command}.csv"


def _manifest_path(output):
    stem = output[:-4] if output.endswith(".csv") else output
    return stem + ".manifest.json"


def _write_outputs(output, header, columns, manifest):
    """Write the CSV and its manifest, both or neither.

    Each text goes to a temp file in the output directory, with the mode
    a plain open() would give (0o666 less the umask; mkstemp makes 0o600),
    and each temp replaces its target only once both are written and
    neither target is a directory.  A failure before that removes both
    temps and leaves no partial file.
    """
    texts = {output: _csv_text(header, columns),
             _manifest_path(output): json.dumps(manifest, indent=2) + "\n"}
    umask = os.umask(0)
    os.umask(umask)
    d = os.path.dirname(os.path.abspath(output))
    temps = []
    try:
        for text in texts.values():
            fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
            temps.append(tmp)
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            os.chmod(tmp, 0o666 & ~umask)
        for path in texts:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for tmp, path in zip(temps, texts):
            os.replace(tmp, path)
    except BaseException:
        for tmp in temps:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        raise


def _base_manifest(command, config_path, cfg, sysm, flags):
    resolved = dict(cfg)
    resolved.update(system_to_dict(sysm))  # terms as parsed, defaults filled in
    return {
        "command": command,
        "config_path": os.path.abspath(config_path),
        "schema_version": SCHEMA_VERSION,
        "resolved_config": resolved,
        "flags": flags,
        "versions": {
            "dorder": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
        },
    }


# ---------------------------------------------------------------------------
# verification
#
# Each _*_check function reads its parameters from the verify block when
# the run is prepared, so a malformed value is a config error, and returns
# a closure that scores the computed output as (report, extra CSV columns).

def _window_check(spec, times, kind, lo, mode, tol, oracle_name, oracle):
    """Error of a series against oracle(t) at the midpoints in the window.

    The oracle is called once, on the array of those midpoints.

    mode "abs" scores |v - ref|, mode "rel" scores |v - ref| / |ref|.
    """
    window = _finite(spec, "window", [lo, times[-1]], 1)
    if window.shape != (2,):
        raise ConfigError(f"{kind}: window must be [lo, hi], got {window.tolist()!r}")
    lo, hi = window.tolist()
    tol = _finite(spec, "tol_" + mode, tol)
    inside = [i for i, t in enumerate(times) if lo <= t <= hi]
    if not inside:
        raise ConfigError(f"{kind}: no block midpoints in window [{lo}, {hi}]")

    def check(series):
        ref = oracle(np.asarray(times)[inside])
        err = np.abs(np.asarray(series)[inside] - ref)
        if mode == "rel":
            err = err / np.abs(ref)
        oracle_col = [None] * len(times)
        err_col = [None] * len(times)
        for i, r, e in zip(inside, ref.tolist(), err.tolist()):
            oracle_col[i], err_col[i] = r, e
        worst = float(np.max(err))
        report = {"kind": kind, "window": [lo, hi], "tol_" + mode: tol,
                  f"max_{mode}_error": worst, "pass": bool(worst <= tol)}
        return report, [(oracle_name, oracle_col), (f"{mode}_error", err_col)]

    return check


def _is_identity(term):
    return term.kind == "point" and term.order == 0.0


def _impulse_check(spec, cfg, sysm, times, u_fn):
    """Impulse response of example 1's integrator y = int_0.5^0.8 I^alpha u dalpha
    against its analytic value; any other system or input is a ConfigError."""
    lhs, rhs = sysm.lhs_terms, sysm.rhs_terms
    if not (len(lhs) == 1 and _is_identity(lhs[0]) and lhs[0].coeff == 1.0
            and len(rhs) == 1 and rhs[0].kind == "distributed" and rhs[0].sense == "integral"
            and rhs[0].coeff == 1.0 and (rhs[0].lower, rhs[0].upper) == (0.5, 0.8)
            and rhs[0].density in (None, {"form": "constant"})
            and u_fn is None and "initial" not in cfg):
        raise ConfigError("impulse_integral checks y = int_0.5^0.8 I^alpha u dalpha: an "
                          "identity LHS, one constant-density distributed integral on "
                          "[0.5, 0.8], unit coefficients, the delta input and no 'initial'")
    return _window_check(spec, times, "impulse_integral", 0.05, "abs", 5e-3,
                         "oracle", oracles.analytic_impulse_example1)


def _gl_check(spec, march, horizon, times, u_fn, y0):
    """GL stepper reference y0 + gl_solve(system, b u - c y0) for march = (system, b, c)."""
    n_grid = int(_finite(spec, "n_grid", 1024))
    tol = _finite(spec, "tol_abs", 1e-2)
    if n_grid < 1:
        raise ConfigError(f"gl_stepper n_grid must be >= 1, got {n_grid}")
    h = horizon / n_grid
    msys, b, c = march
    idx = np.clip(np.round(np.asarray(times) / h).astype(int) - 1, 0, n_grid - 1)

    def check(y):
        if u_fn is None:
            u = np.zeros(n_grid)
            u[0] = 1.0 / h  # unit-area pulse in the first step
        else:
            u = u_fn((np.arange(n_grid) + 1) * h)
        ref = (y0 + oracles.gl_solve(msys, b * u - c * y0, h))[idx]
        err = np.abs(np.asarray(y) - ref)
        worst = float(np.max(err))
        report = {"kind": "gl_stepper", "n_grid": n_grid, "tol_abs": tol,
                  "max_abs_error": worst, "pass": bool(worst <= tol)}
        return report, [("oracle", ref), ("abs_error", err)]

    return check


def _white_intensity(kind, sysm, white_q):
    """Intensity q scaling a unit-white-noise reference; ConfigError where it cannot check."""
    if white_q is None or not white_q > 0 or sysm.random_params:
        raise ConfigError(f"{kind} checks white noise of positive intensity (got "
                          f"{white_q!r}) on a system without random parameters")
    return white_q


def _ml_variance_check(spec, sysm, times, q):
    """Variance of a1 D^alpha1 y + a2 D^alpha2 y = b u under white noise of
    intensity q, against q b^2 variance_double_integrator; the shape is read
    from the system, and any other system is a ConfigError."""
    stale = [k for k in ("a1", "a2", "alpha1", "alpha2") if k in spec]
    if stale:
        raise ConfigError(f"ml_variance reads the system's terms; remove {', '.join(stale)} "
                          f"from the verify block")
    lhs, rhs = sysm.lhs_terms, sysm.rhs_terms
    if not (len(lhs) == 2 and all(t.kind == "point" and t.sense == "derivative" for t in lhs)
            and lhs[0].order != lhs[1].order and len(rhs) == 1 and _is_identity(rhs[0])):
        raise ConfigError("ml_variance checks a1 D^alpha1 y + a2 D^alpha2 y = b u: two point "
                          "derivative terms of distinct orders and one identity RHS term")
    low, high = sorted(lhs, key=lambda t: t.order)
    if high.coeff == 0.0:
        raise ConfigError("ml_variance needs a nonzero coefficient on the higher order")
    if not high.order > 0.5:
        raise ConfigError(f"ml_variance: the white-noise variance is infinite for a higher "
                          f"order alpha2 <= 1/2, got {high.order!r}")
    shape = {"a1": low.coeff, "a2": high.coeff, "alpha1": low.order, "alpha2": high.order}
    scale = q * rhs[0].coeff * rhs[0].coeff
    window = _window_check(
        spec, times, "ml_variance", 0.5, "rel", 0.02, "oracle_variance",
        lambda t: scale * oracles.variance_double_integrator(t, **shape))
    return lambda variance, mean, forcing: window(variance)


def _h2_check(spec, sysm, times, q):
    t_min = _finite(spec, "t_min", 4.5)
    tol = _finite(spec, "tol_rel", 0.05)
    mask = np.asarray(times) >= t_min
    if not np.any(mask):
        raise ConfigError(f"h2_plateau: no block midpoints at or after t_min={t_min}")

    def check(variance, mean, forcing):
        plateau = float(np.mean(np.asarray(variance)[mask]))
        ref = q * oracles.steady_state_variance_frequency(sysm)
        rel = abs(plateau - ref) / abs(ref)
        report = {"kind": "h2_plateau", "t_min": t_min, "tol_rel": tol,
                  "plateau": plateau, "reference": ref, "rel_error": rel,
                  "pass": bool(rel <= tol)}
        return report, []

    return check


def _refinement_check(spec, sysm, basis):
    if not sysm.random_params:
        raise ConfigError("colloc_refinement needs a system with random parameters")
    tol = _finite(spec, "tol_rel", 1e-3)
    bumped = dataclasses.replace(
        sysm,
        random_params=tuple(dataclasses.replace(p, quad_order=p.quad_order + 2)
                            for p in sysm.random_params))

    def check(variance, mean, forcing):
        r = propagate_moments(bumped, basis, forcing)
        v = r.variance.coeffs
        dm = float(np.max(np.abs(r.mean.coeffs - mean)) / max(np.max(np.abs(mean)), 1e-300))
        dv = float(np.max(np.abs(v - variance)) / max(np.max(np.abs(variance)), 1e-300))
        report = {"kind": "colloc_refinement", "tol_rel": tol,
                  "mean_rel_change": dm, "variance_rel_change": dv,
                  "pass": bool(dm <= tol and dv <= tol)}
        return report, []

    return check


def _verify_check(cfg, args, checks):
    """The config's verify check, made by its entry in the kind -> check table.

    None without --verify.
    """
    if not args.verify:
        return None
    spec = cfg.get("verify")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("--verify needs a 'verify' block with a 'kind' in the config")
    if spec["kind"] not in checks:
        raise ConfigError(
            f"verify kind {spec['kind']!r} not usable here (expected one of {sorted(checks)})")
    return checks[spec["kind"]](spec)


# ---------------------------------------------------------------------------
# solve / stoch / mc
#
# Each prepare step reads the rest of the config and the flags and returns
# a run() closure; run() does the numeric work and returns the named CSV
# columns, the verify check's (report, extra columns) or None, and the
# manifest's deterministic "diagnostics" block or None.

def _prepare_solve(cfg, sysm, horizon, args):
    """Deterministic response: CSV columns t,y at block midpoints."""
    if sysm.random_params:
        raise ConfigError("system has random parameters; use 'stoch' or 'mc' for its moments")
    basis = make_basis(args.n_basis, horizon)
    times = basis.midpoints()
    u_fn = _input_fn(cfg)
    y0 = _finite(cfg, "initial", 0.0)
    # the shifted solve marches x = y - y0 from rest under b u - c y0;
    # its shape and y0 are checked here, so a wrong one is a config error
    march = _relaxation_form(sysm, y0) if "initial" in cfg else (sysm, 1.0, 0.0)
    check = _verify_check(cfg, args, {
        "impulse_integral": lambda spec: _impulse_check(spec, cfg, sysm, times, u_fn),
        "gl_stepper": lambda spec: _gl_check(spec, march, horizon, times, u_fn, y0),
    })

    def run():
        forcing = delta_spectral(basis) if u_fn is None else project_function(u_fn, basis)
        if "initial" in cfg:
            y = solve_ivp_shifted(sysm, y0, forcing).coeffs
        else:
            y = solve(sysm, forcing).coeffs
        return [("t", times), ("y", y)], check and check(y), None

    return run


def _prepare_stoch(cfg, sysm, horizon, args):
    """Collocation moments: CSV columns t,mean,variance at block midpoints."""
    basis = make_basis(args.n_basis, horizon)
    times = basis.midpoints()
    mean_fn, (kernel, lag, white_q) = _forcing_blocks(cfg)
    check = _verify_check(cfg, args, {
        "ml_variance": lambda spec: _ml_variance_check(
            spec, sysm, times, _white_intensity("ml_variance", sysm, white_q)),
        "h2_plateau": lambda spec: _h2_check(
            spec, sysm, times, _white_intensity("h2_plateau", sysm, white_q)),
        "colloc_refinement": lambda spec: _refinement_check(spec, sysm, basis),
    })

    def run():
        mean_sv = project_function(mean_fn, basis)
        if white_q is not None:
            cov_sm = white_noise_covariance(basis, white_q)
        elif lag is not None:
            cov_sm = project_stationary(lag, basis)
        else:
            cov_sm = project_bivariate(kernel, basis)
        forcing = StochasticForcing(mean_sv, cov_sm)
        r = propagate_moments(sysm, basis, forcing)
        # a block midpoint reconstructs to its own coefficient
        variance = r.variance.coeffs
        columns = [("t", times), ("mean", r.mean.coeffs), ("variance", variance)]
        diagnostics = {
            "covariance_rank": forcing.rank,
            "covariance_factor": forcing.factor_method,
            "psd_margin": forcing.psd_margin,
            "rank_rtol": forcing.rank_rtol,
            "cubature_nodes": math.prod(p.quad_order for p in sysm.random_params),
        }
        return columns, check and check(variance, r.mean.coeffs, forcing), diagnostics

    return run


def _prepare_mc(cfg, sysm, horizon, args):
    """Monte Carlo moments: CSV columns t,mean,variance,mean_stderr,variance_stderr."""
    mean_fn, (kernel, _, white_q) = _forcing_blocks(cfg)
    if args.samples < 2:
        raise ConfigError(f"--samples must be >= 2, got {args.samples}")
    if args.n_grid < 1:
        raise ConfigError(f"--n-grid must be >= 1, got {args.n_grid}")
    forcing = oracles.ForcingModel(mean_fn=mean_fn, kernel=kernel, white_intensity=white_q)

    def run():
        r = oracles.mc_moments(sysm, forcing, horizon, args.n_grid,
                               args.samples, args.seed)
        return [("t", r.times), ("mean", r.mean), ("variance", r.variance),
                ("mean_stderr", r.se_mean), ("variance_stderr", r.se_variance)], None, None

    return run


def _fail(code, e):
    detail = e if isinstance(e, ConfigError) else f"{type(e).__name__}: {e}"
    print(f"error: {detail}", file=sys.stderr)
    return code


def _run(args):
    """Run solve, stoch or mc in three steps, each with its own exit code.

    1. Prepare: load the config, build the system, resolve the horizon
       and the output path, and let the command read everything else.
       Any error, an output directory that does not exist included,
       exits 1 before any numeric work, and nothing is written.
    2. Compute: any failure, or a non-finite value in a result column,
       exits 2, and nothing is written.
    3. Write the CSV and the manifest; a failed write exits 1, a failed
       verification exits 3.
    """
    try:
        cfg = _load_config(args.config)
        sysm = _build_system(cfg)
        horizon = _resolve_horizon(cfg)
        output = args.output or _default_output(args.config, args.command)
        if not os.path.isdir(os.path.dirname(os.path.abspath(output))):
            raise ConfigError(f"output directory of {output!r} does not exist")
        run = args.prepare(cfg, sysm, horizon, args)
    except Exception as e:
        return _fail(1, e)
    try:
        columns, verdict, diagnostics = run()
        report, extra = verdict or (None, [])
        columns += extra
        _require_finite(columns)
    except Exception as e:
        return _fail(2, e)

    flags = {k: output if k == "output" else getattr(args, k) for k in args.flags}
    manifest = _base_manifest(args.command, args.config, cfg, sysm, flags)
    if diagnostics is not None:
        manifest["diagnostics"] = diagnostics
    if report is not None:
        manifest["verify"] = report
    try:
        _write_outputs(output, [name for name, _ in columns],
                       [col for _, col in columns], manifest)
    except OSError as e:
        return _fail(1, e)
    if report is not None and not report["pass"]:
        print(f"verification FAILED: {json.dumps(report)}", file=sys.stderr)
        return 3
    return 0


def cmd_oracle(args):
    """Print the Mittag-Leffler value E_{alpha,beta}(z): oracle ml ALPHA BETA Z."""
    try:
        if args.name != "ml":
            raise ConfigError(f"unknown oracle {args.name!r}; available: ml")
        if len(args.args) != 3:
            raise ConfigError("usage: oracle ml ALPHA BETA Z")
        out = oracles.mittag_leffler(*(float(v) for v in args.args))
    except ValueError as e:  # ConfigError included
        return _fail(1, e)
    except Exception as e:
        return _fail(2, e)
    print(repr(float(out)))
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_common(p):
    p.add_argument("config", help="JSON system description")
    p.add_argument("--output", default=None,
                   help="CSV output path (default: <config stem>.<command>.csv)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dorder",
        description="Distributed-order system analysis on block pulse bases.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_, prepare in (("solve", "deterministic response", _prepare_solve),
                                 ("stoch", "collocation moments", _prepare_stoch)):
        p = sub.add_parser(name, help=help_)
        _add_common(p)
        p.add_argument("--n-basis", type=int, default=512, help="block count (default 512)")
        p.add_argument("--verify", action="store_true",
                       help="run the config's verify block; violations exit 3")
        p.set_defaults(func=_run, prepare=prepare,
                       flags=("n_basis", "output", "verify"))

    p = sub.add_parser("mc", help="Monte Carlo moments")
    _add_common(p)
    p.add_argument("--n-grid", type=int, default=512, help="time steps (default 512)")
    p.add_argument("--samples", type=int, default=10000, help="sample count (default 10000)")
    p.add_argument("--seed", type=int, default=12345, help="random seed (default 12345)")
    p.set_defaults(func=_run, prepare=_prepare_mc,
                   flags=("n_grid", "samples", "seed", "output"))

    p = sub.add_parser("oracle", help="print a Mittag-Leffler reference value")
    p.add_argument("name", help="ml")
    p.add_argument("args", nargs="*", help="ALPHA BETA Z")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
