"""The benchmark workloads, one in-process CLI op, and the correctness gate.

Each workload runs one shipped config unchanged through `dorder.cli.main`
at a fixed size.  An op fails on a nonzero exit, a manifest whose verify
block did not pass, a missing or non-finite CSV value in the result
columns, or (mc_sinc) a Monte Carlo moment more than Z_LIMIT standard
errors from the collocation reference.
"""

import csv
import json
import math
import os
import time
import traceback
from dataclasses import dataclass

import numpy as np

from dorder import cli

OUTPUT = "out.csv"
MANIFEST = "out.manifest.json"
MC_SAMPLES = 1000
# Criterion 7 passes one fixed seed at |z| <= 3.  Over many seeds that
# rule flags correct output: |z| passed 3 for 2 of 55 seeds at 1000
# samples (up to 3.31), 1 of 20 at 2000 and 2 of 60 at 500 (up to
# 3.89).  The gate is 5 standard errors, which at 1000 samples still
# catches a mean off by 8% or a variance off by 22%.
Z_LIMIT = 5.0
Z_POINTS = 50

RESULT_COLUMNS = {
    "solve": ("t", "y"),
    "stoch": ("t", "mean", "variance"),
    "mc": ("t", "mean", "variance", "mean_stderr", "variance_stderr"),
}


@dataclass(frozen=True)
class Workload:
    """One shipped config run through one CLI command at a fixed size."""

    name: str
    command: str
    config: str
    n: int  # --n-basis, or --n-grid for mc
    warm_n: int  # size of the warm-up op that set-up time includes
    reference: "Workload | None" = None  # collocation run the MC is checked against

    def argv(self, root, n, seed):
        size = "--n-grid" if self.command == "mc" else "--n-basis"
        a = [self.command, os.path.join(root, "configs", self.config),
             size, str(n), "--output", OUTPUT]
        if self.command == "mc":
            return a + ["--samples", str(MC_SAMPLES), "--seed", str(seed)]
        return a + ["--verify"]


# the MC grid has 2N steps, so MC grid point 2i is block midpoint i
MC_REFERENCE = Workload("mc_reference", "stoch", "example5.json", 512, 64)

WORKLOADS = {w.name: w for w in (
    Workload("colloc_sinc", "stoch", "example5.json", 512, 64),
    Workload("white_long", "stoch", "example4.json", 2048, 64),
    Workload("det_long", "solve", "example2.json", 32768, 256),
    Workload("mc_sinc", "mc", "example5.json", 2 * MC_REFERENCE.n, 64, reference=MC_REFERENCE),
)}


def run_op(root, w, n, seed, op_dir, runner=None):
    """Run one CLI op with cwd op_dir; returns (exit code, wall seconds).

    `runner(fn, argv)` wraps the call (the traced run passes its span
    recorder).  An exception escaping the CLI counts as exit code 2.
    """
    os.makedirs(op_dir, exist_ok=True)
    argv = w.argv(root, n, seed)
    prev = os.getcwd()
    os.chdir(op_dir)
    try:
        t0 = time.perf_counter()
        try:
            rc = runner(cli.main, argv) if runner else cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = 2
        return rc, time.perf_counter() - t0
    finally:
        os.chdir(prev)


def verify_headline(report):
    """The one error figure of a manifest verify block."""
    kind = report["kind"]
    if kind == "colloc_refinement":
        return max(report["mean_rel_change"], report["variance_rel_change"])
    if kind == "ml_variance":
        return report["max_rel_error"]
    if kind == "h2_plateau":
        return report["rel_error"]
    return report["max_abs_error"]


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    verify_err: float = math.nan
    columns: dict = None


def check_op(w, op_dir, n, rc):
    """Gate one op on its exit code, manifest and CSV."""
    if rc != 0:
        return Outcome(False, f"exit code {rc}")
    try:
        with open(os.path.join(op_dir, MANIFEST), encoding="utf-8") as fh:
            manifest = json.load(fh)
        with open(os.path.join(op_dir, OUTPUT), newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (OSError, ValueError) as e:
        return Outcome(False, f"unreadable output: {e}")
    err = math.nan
    if w.command != "mc":
        report = manifest.get("verify")
        if not isinstance(report, dict) or report.get("pass") is not True:
            return Outcome(False, f"verify did not pass: {report}")
        err = verify_headline(report)
    header, body = rows[0], rows[1:]
    if len(body) != n:
        return Outcome(False, f"{len(body)} CSV rows, expected {n}")
    columns = {}
    for name in RESULT_COLUMNS[w.command]:
        if name not in header:
            return Outcome(False, f"CSV lacks column {name!r}")
        j = header.index(name)
        try:
            col = np.array([float(r[j]) for r in body])
        except (ValueError, IndexError):
            return Outcome(False, f"missing value in column {name!r}")
        if not np.isfinite(col).all():
            return Outcome(False, f"non-finite value in column {name!r}")
        columns[name] = col
    return Outcome(True, verify_err=err, columns=columns)


def mc_z_max(ref, mc):
    """Largest |z| of MC mean and variance against collocation moments.

    Compared at Z_POINTS block midpoints spread over the last 90% of the
    horizon (both estimates vanish near t = 0); MC grid point 2i sits
    at block midpoint i.
    """
    n = ref["t"].size
    if mc["t"].size != 2 * n:
        return math.inf
    blocks = np.unique(np.round(np.linspace(n // 10, n - 1, Z_POINTS)).astype(int))
    idx = 2 * blocks
    if not np.allclose(ref["t"][blocks], mc["t"][idx], rtol=0, atol=1e-12):
        return math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.concatenate([
            np.abs(ref["mean"][blocks] - mc["mean"][idx]) / mc["mean_stderr"][idx],
            np.abs(ref["variance"][blocks] - mc["variance"][idx]) / mc["variance_stderr"][idx]])
    return float(np.max(z)) if np.isfinite(z).all() else math.inf
