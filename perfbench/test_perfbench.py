"""Tests of the benchmark itself, at small sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads as wl  # noqa: E402
from dorder import cli, detsolve, stochsolve  # noqa: E402

SMALL_N = {"colloc_sinc": 32, "white_long": 64, "det_long": 256, "mc_sinc": 64}
COLLOC_NODES = 5 * 5 + 7 * 7  # q5 grid plus the q7 refinement grid


def traced_op(d, w, n, seed=1):
    tracer = spans.Tracer()

    def runner(fn, argv):
        with tracer.installed():
            return tracer.run_op(0, fn, argv)

    rc, _ = wl.run_op(str(ROOT), w, n, seed, d, runner)
    assert rc == 0
    return spans.layer_metrics(tracer, 0)


def test_wrappers_rebind_every_by_value_import():
    originals = (cli.propagate_moments, cli.solve, cli.solve_ivp_shifted,
                 stochsolve.assemble_system_operator, detsolve.term_operator)
    post_init = stochsolve.StochasticForcing.__post_init__
    with spans.Tracer().installed():
        assert spans.unwrapped_bindings() == []
        for name in ("propagate_moments", "solve", "solve_ivp_shifted", "make_basis"):
            assert hasattr(getattr(cli, name), "__wrapped__"), name
        assert hasattr(stochsolve.assemble_system_operator, "__wrapped__")
        assert hasattr(stochsolve.StochasticForcing.__post_init__, "__wrapped__")
    restored = (cli.propagate_moments, cli.solve, cli.solve_ivp_shifted,
                stochsolve.assemble_system_operator, detsolve.term_operator)
    assert all(a is b for a, b in zip(originals, restored))
    assert stochsolve.StochasticForcing.__post_init__ is post_init


def test_colloc_sinc_call_counts(tmp_path):
    m = traced_op(tmp_path, wl.WORKLOADS["colloc_sinc"], SMALL_N["colloc_sinc"])
    assert m["stochsolve.cubature_nodes"] == COLLOC_NODES
    assert m["dosys.assemble_calls"] == 2 * COLLOC_NODES
    assert m["opmat.invert_calls"] == 5 * m["dosys.assemble_calls"]
    assert m["stochsolve.expected_sandwich_s"] > 0
    assert m["stochsolve.forcing_check_s"] > 0
    assert 0.5 < m["trace.coverage"] <= 1.0


def test_det_long_call_counts(tmp_path):
    m = traced_op(tmp_path, wl.WORKLOADS["det_long"], SMALL_N["det_long"])
    assert m["opmat.invert_calls"] == 4
    assert m["dosys.assemble_calls"] == 0
    assert m["dosys.term_operator_s"] > 0
    assert m["oracles.verify_s"] > 0


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_traced_outputs_byte_identical(tmp_path, name):
    w, n = wl.WORKLOADS[name], SMALL_N[name]
    rc, _ = wl.run_op(str(ROOT), w, n, 7, tmp_path / "plain")
    assert wl.check_op(w, tmp_path / "plain", n, rc).ok
    traced_op(tmp_path / "traced", w, n, seed=7)
    assert wl.check_op(w, tmp_path / "traced", n, 0).ok
    for f in (wl.OUTPUT, wl.MANIFEST):
        assert (tmp_path / "plain" / f).read_bytes() == (tmp_path / "traced" / f).read_bytes()


def test_gate_rejects_bad_outputs(tmp_path):
    w, n = wl.WORKLOADS["colloc_sinc"], 3
    assert wl.check_op(w, tmp_path, n, 2).reason == "exit code 2"
    (tmp_path / wl.MANIFEST).write_text(json.dumps({"verify": {
        "kind": "colloc_refinement", "pass": True,
        "mean_rel_change": 1e-6, "variance_rel_change": 2e-6}}))
    (tmp_path / wl.OUTPUT).write_text("t,mean,variance\n0.5,1,1\n1.5,1,1\n2.5,1,1\n")
    ok = wl.check_op(w, tmp_path, n, 0)
    assert ok.ok and ok.verify_err == 2e-6
    (tmp_path / wl.OUTPUT).write_text("t,mean,variance\n0.5,1,1\n1.5,1,nan\n2.5,1,1\n")
    assert not wl.check_op(w, tmp_path, n, 0).ok
    (tmp_path / wl.OUTPUT).write_text("t,mean,variance\n0.5,1,1\n")
    assert not wl.check_op(w, tmp_path, n, 0).ok


def test_mc_z_max():
    n = 100
    t = (np.arange(n) + 0.5) / n
    ref = {"t": t, "mean": np.ones(n), "variance": np.full(n, 2.0)}
    mc = {"t": (np.arange(2 * n) + 1) / (2 * n), "mean": np.ones(2 * n),
          "variance": np.full(2 * n, 2.0), "mean_stderr": np.full(2 * n, 0.1),
          "variance_stderr": np.full(2 * n, 0.1)}
    assert wl.mc_z_max(ref, mc) == 0.0
    mc["variance"] = mc["variance"] + 0.4
    assert math.isclose(wl.mc_z_max(ref, mc), 4.0)
    mc["t"] = mc["t"] + 1e-3  # misaligned grids never pass
    assert wl.mc_z_max(ref, mc) == math.inf


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_metric(trace, kind):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = subprocess.run([sys.executable, *bench["command"][1:], "--workload", "det_long",
                        "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                       cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert p.returncode == 0, p.stderr
    out = last_json(p.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0
    declared = {m["name"]: m["unit"] for m in bench[kind]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "det_long",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""
