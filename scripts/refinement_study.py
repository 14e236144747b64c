"""Convergence study: oracle error of the bundled examples vs block count.

Prints one table per example showing the max error against the
matching independent oracle as N doubles.  The error should fall
monotonically; the acceptance gate checks the same trend at fixed N.
"""

import argparse
import json
import os

import numpy as np

from dorder.bpf import (make_basis, project_function, delta_spectral,
                        white_noise_covariance)
from dorder.dosys import system_from_dict
from dorder.detsolve import solve, solve_ivp_shifted, _relaxation_form
from dorder.stochsolve import StochasticForcing, propagate_moments
from dorder import oracles


def load(configs_dir, name):
    with open(os.path.join(configs_dir, name)) as fh:
        cfg = json.load(fh)
    return system_from_dict(cfg), cfg


def impulse_errors(configs_dir, sizes):
    sysm, _ = load(configs_dir, "example1.json")
    cache = {}
    for n in sizes:
        basis = make_basis(n, 5.0)
        y = solve(sysm, delta_spectral(basis)).coeffs
        t = basis.midpoints()
        mask = (t >= 0.2) & (t <= 5.0)
        ref = np.array([cache.setdefault(ti, oracles.analytic_impulse_example1(ti))
                        for ti in t[mask]])
        yield n, float(np.max(np.abs(y[mask] - ref)))


def relaxation_errors(configs_dir, sizes):
    sysm, cfg = load(configs_dir, "example2.json")
    y0 = float(cfg["initial"])
    horizon, n_gl = 10.0, 4096
    unit_sys, _, c = _relaxation_form(sysm, y0)
    h = horizon / n_gl
    # x = y - y0 from rest under b u - c y0, with u = 0
    y_gl = y0 + oracles.gl_solve(unit_sys, np.full(n_gl, -c * y0), h)
    t_gl = (np.arange(n_gl) + 1) * h
    for n in sizes:
        basis = make_basis(n, horizon)
        zero = project_function(lambda t: np.zeros_like(t), basis)
        y = solve_ivp_shifted(sysm, y0, zero).coeffs
        idx = np.clip(np.round(basis.midpoints() / h).astype(int) - 1, 0, n_gl - 1)
        yield n, float(np.max(np.abs(y - y_gl[idx])))


def variance_errors(configs_dir, sizes):
    sysm, _ = load(configs_dir, "example3.json")
    cache = {}
    for n in sizes:
        basis = make_basis(n, 5.0)
        forcing = StochasticForcing(
            project_function(lambda t: np.zeros_like(t), basis),
            white_noise_covariance(basis, 1.0))
        r = propagate_moments(sysm, basis, forcing, None)
        t = basis.midpoints()
        v = r.variance.coeffs  # a block midpoint reconstructs to its own coefficient
        mask = (t >= 0.5) & (t <= 5.0)
        ref = np.array([cache.setdefault(ti, oracles.variance_double_integrator(ti))
                        for ti in t[mask]])
        yield n, float(np.max(np.abs(v[mask] - ref) / ref))


STUDIES = [
    ("example1: impulse response, max abs err on [0.2, 5]", impulse_errors),
    ("example2: relaxation vs GL stepper, max abs err", relaxation_errors),
    ("example3: white-noise variance, max rel err on [0.5, 5]", variance_errors),
]


if __name__ == "__main__":
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--configs", default=os.path.join(here, "configs"))
    ap.add_argument("--sizes", type=int, nargs="+",
                    default=[64, 128, 256, 512])
    args = ap.parse_args()
    for title, study in STUDIES:
        print(title)
        prev = None
        for n, err in study(args.configs, args.sizes):
            trend = "" if prev is None else ("  v" if err < prev else "  ^ NOT MONOTONE")
            print(f"  N={n:5d}  err={err:.4e}{trend}")
            prev = err
        print()
