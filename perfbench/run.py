"""Benchmark of the dorder CLI: one workload per invocation.

    python3 perfbench/run.py --workload colloc_sinc --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the package is imported from
src/, not from an installed copy.  Ops run in this process through
`dorder.cli.main`, with BLAS pinned to one thread.

--trace 0 prints the end-to-end metrics: op_s (median wall time of a
warm op), setup_s (median of fresh interpreters that import dorder.cli
and run one small op), peak_rss_mb, verify_err and pass_frac.
--trace 1 alternates untraced and traced ops and prints the per-layer
metrics of spans recorded around every public layer function.  The
last stdout line is the result JSON; the line before it records the
environment and per-op details.  Exit code 2 means the benchmark could
not run at all (e.g. no src/dorder in the checkout).
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".perfbench_runs"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# One BLAS thread: on a 2-vCPU VM with OpenBLAS 0.3.31, two threads gave
# eigvalsh at N=512..1024 no speed-up over one, and the first call took
# 1.07 s instead of 0.04 s.  One thread also keeps op times independent
# of load on the other vCPU.
BLAS_THREADS = "1"
SETUP_REPS = 3
SETUP_TIMEOUT_S = 30  # three hung set-ups still end well within 180 s
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from dorder.cli import main; sys.exit(main(sys.argv[2:]))")


def finite(v):
    """v, or the largest float where a failed op left no finite value."""
    return v if math.isfinite(v) else sys.float_info.max


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def digest(top):
    """sha256 over the .py files under `top`, naming a code version without git."""
    h = hashlib.sha256()
    for p in sorted((ROOT / top).rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def environment(w, seed):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": blas, "blas_threads": BLAS_THREADS,
        "workload": w.name, "n": w.n,
        "command": ["dorder"] + [os.path.relpath(a, ROOT) if a.startswith(str(ROOT)) else a
                                 for a in w.argv(str(ROOT), w.n, seed)],
        "seed": seed, "commit": commit(),
        "src_sha256": digest("src"), "bench_sha256": digest("perfbench"),
    }


def setup_once(wl, w, seed, d):
    """Wall time of a fresh interpreter importing dorder.cli plus one warm-up op."""
    d.mkdir()
    cmd = [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"),
           *w.argv(str(ROOT), w.warm_n, seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=d, stdout=subprocess.DEVNULL)
    # Popen.wait(timeout) polls in 50 ms steps, which would quantise the
    # figure; a plain wait blocks in waitpid and a timer enforces the limit
    killer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    killer.start()
    rc = proc.wait()
    dt = time.perf_counter() - t0
    killer.cancel()
    return dt, wl.check_op(w, d, w.warm_n, rc)


def timed_ops(wl, w, seed, run_dir, seconds, runners):
    """Run ops cycling through `runners` for at most about `seconds`.

    An op starts only if, at the median op time so far, it ends within
    `seconds`, so a run's length does not grow when ops get slower.  At
    least one op per runner runs.  Returns [(runner index, exit
    code, wall seconds, op dir)] and the peak RSS in MB after the first
    op.  Later ops can raise the peak through allocator state alone, so
    only the first counts and the figure does not depend on op count.
    """
    ops = []
    t0 = time.perf_counter()
    while len(ops) < len(runners) or (time.perf_counter() - t0 + statistics.median(
            dt for _, _, dt, _ in ops) <= seconds):
        k = len(ops)
        which = k % len(runners)
        d = run_dir / f"op{k}"
        rc, dt = wl.run_op(str(ROOT), w, w.n, seed, d, runners[which](k))
        ops.append((which, rc, dt, d))
        if k == 0:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return ops, peak_mb


def gate(wl, w, seed, run_dir, ops):
    """Check every op; returns (outcomes, reference outcome or None, z per op)."""
    outcomes = [wl.check_op(w, d, w.n, rc) for _, rc, _, d in ops]
    ref = None
    z = [None] * len(ops)
    if w.reference is not None:
        d = run_dir / "reference"
        rc, _ = wl.run_op(str(ROOT), w.reference, w.reference.n, seed, d)
        ref = wl.check_op(w.reference, d, w.reference.n, rc)
        for i, o in enumerate(outcomes):
            if not o.ok:
                continue
            z[i] = wl.mc_z_max(ref.columns, o.columns) if ref.ok else float("inf")
            if not z[i] <= wl.Z_LIMIT:
                o.ok, o.reason = False, f"|z| {z[i]:.3g} > {wl.Z_LIMIT} or no reference"
    return outcomes, ref, z


def plain_run(wl, w, seed, seconds, run_dir):
    setups = [setup_once(wl, w, seed, run_dir / f"setup{i}") for i in range(SETUP_REPS)]
    rc, _ = wl.run_op(str(ROOT), w, w.warm_n, seed, run_dir / "warm")
    warm = wl.check_op(w, run_dir / "warm", w.warm_n, rc)
    ops, peak_mb = timed_ops(wl, w, seed, run_dir, seconds, [lambda k: None])
    outcomes, ref, z = gate(wl, w, seed, run_dir, ops)

    checked = [o for _, o in setups] + [warm] + outcomes + ([ref] if ref else [])
    failed = sum(not o.ok for o in checked)
    errs = [o.verify_err for o in ([ref] if ref else outcomes) if o.ok]
    metrics = {
        "op_s": (statistics.median(dt for _, _, dt, _ in ops), "s"),
        "setup_s": (statistics.median(dt for dt, _ in setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "verify_err": (statistics.median(errs) if errs else sys.float_info.max, "1"),
        "pass_frac": ((len(checked) - failed) / len(checked), "fraction"),
    }
    details = {
        "op_wall_s": [dt for _, _, dt, _ in ops],
        "setup_wall_s": [dt for dt, _ in setups],
        "mc_z_max": [v for v in z if v is not None],
        "failures": [o.reason for o in checked if not o.ok],
    }
    return len(checked), failed, metrics, details


def trace_run(wl, spans, w, seed, seconds, run_dir):
    rc, _ = wl.run_op(str(ROOT), w, w.warm_n, seed, run_dir / "warm")
    warm = wl.check_op(w, run_dir / "warm", w.warm_n, rc)
    tracer = spans.Tracer()

    def traced(k):
        def runner(fn, argv):
            with tracer.installed():
                return tracer.run_op(k, fn, argv)
        return runner

    ops, _ = timed_ops(wl, w, seed, run_dir, seconds, [lambda k: None, traced])
    outcomes, ref, z = gate(wl, w, seed, run_dir, ops)

    # tracing must not change a byte of the outputs
    plain_dir = ops[0][3]
    for (which, _, _, d), o in zip(ops, outcomes):
        if which == 1 and o.ok and outcomes[0].ok:
            for f in (wl.OUTPUT, wl.MANIFEST):
                if (d / f).read_bytes() != (plain_dir / f).read_bytes():
                    o.ok, o.reason = False, f"traced {f} differs from untraced"

    per_op = []
    for k, (which, _, dt, d) in enumerate(ops):
        if which != 1:
            continue
        m = spans.layer_metrics(tracer, k)
        m["cli.bytes_written"] = sum(p.stat().st_size for p in d.iterdir() if p.is_file())
        m["check.mc_z_max"] = z[k] if z[k] is not None else 0.0
        m["trace.op_s"] = dt
        per_op.append(m)
    layer = spans.median_metrics(per_op)
    untraced_s = statistics.median(dt for which, _, dt, _ in ops if which == 0)
    layer["trace.overhead_s"] = layer["trace.op_s"] - untraced_s

    RUNS.mkdir(exist_ok=True)
    with open(RUNS / f"{w.name}.spans.json", "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)

    checked = [warm] + outcomes + ([ref] if ref else [])
    failed = sum(not o.ok for o in checked)
    metrics = {k: (v, spans.METRIC_UNITS[k]) for k, v in layer.items()}
    details = {"op_wall_s": [dt for _, _, dt, _ in ops],
               "traced": [which == 1 for which, _, _, _ in ops],
               "failures": [o.reason for o in checked if not o.ok]}
    return len(checked), failed, metrics, details


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "dorder" / "cli.py").is_file():
        print(f"error: no dorder sources under {ROOT / 'src'}; run from a "
              "full source checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads as wl

    w = wl.WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    run_dir = RUNS / f"{w.name}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if args.trace:
            out = trace_run(wl, spans, w, args.seed, args.seconds, run_dir)
        else:
            out = plain_run(wl, w, args.seed, args.seconds, run_dir)
        attempted, failed, metrics, details = out
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": finite(v), "unit": u} for k, (v, u) in metrics.items()}}
    record = {"env": environment(w, args.seed), "trace": args.trace,
              "details": details, "result": result}
    with open(RUNS / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"env": record["env"], "details": details}))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
