"""Span tracing of the dorder layers, done entirely from outside the package.

`Tracer.installed()` wraps every public function of each layer module
(the names in its `__all__`) and rebinds each wrapper in *every* dorder
module that holds the original by value, e.g. `stochsolve` imports
`assemble_system_operator` and `cli` imports `propagate_moments`.
Rebinding only the defining module would let those calls bypass the
span.  `StochasticForcing.__post_init__` (the input covariance check) is
wrapped on the class.  Leaving the context restores every original.

A span is a tuple (name, start, end, parent index, op id), kept in
memory.  `layer_metrics` turns the spans and counters of one op into
the per-layer metrics listed in METRIC_UNITS.
"""

import contextlib
import statistics
import sys
import time
import weakref
from collections import defaultdict

import numpy as np

LAYERS = ("bpf", "opmat", "dosys", "detsolve", "stochsolve", "oracles")
ROOT = "cli.main"
FORCING_CHECK = "stochsolve.StochasticForcing"

# metric -> (mode, span names).  "self": span time minus child spans;
# "total": inclusive time of spans not nested in a span of the same name.
SPAN_METRICS = {
    "bpf.project_bivariate_s": ("self", ("bpf.project_bivariate",)),
    "bpf.white_noise_covariance_s": ("self", ("bpf.white_noise_covariance",)),
    "stochsolve.forcing_check_s": ("self", (FORCING_CHECK,)),
    "stochsolve.expected_sandwich_s": ("self", ("stochsolve.expected_sandwich",)),
    "stochsolve.expected_operator_s": ("self", ("stochsolve.expected_operator",)),
    "stochsolve.propagate_self_s": ("self", ("stochsolve.propagate_moments",)),
    "stochsolve.variance_series_s": ("total", ("stochsolve.variance_series",)),
    "dosys.assemble_s": ("total", ("dosys.assemble_system_operator",)),
    "dosys.term_operator_s": ("total", ("dosys.term_operator",)),
    "opmat.invert_s": ("total", ("opmat.invert_lower_toeplitz",)),
    "detsolve.solve_ivp_shifted_self_s": ("self", ("detsolve.solve_ivp_shifted",)),
    "oracles.mc_moments_s": ("total", ("oracles.mc_moments",)),
    "cli.self_s": ("self", (ROOT,)),
}
CALL_METRICS = {
    "dosys.assemble_calls": "dosys.assemble_system_operator",
    "opmat.invert_calls": "opmat.invert_lower_toeplitz",
}

METRIC_UNITS = dict.fromkeys(SPAN_METRICS, "s")
METRIC_UNITS.update(dict.fromkeys(CALL_METRICS, "count"))
METRIC_UNITS.update({
    "oracles.verify_s": "s",
    "stochsolve.cubature_nodes": "count",
    "stochsolve.dense_bytes": "bytes",
    "cli.bytes_written": "bytes",
    "trace.coverage": "fraction",
    "trace.op_s": "s",
    "trace.overhead_s": "s",
    "check.mc_z_max": "sigma",
})


def _dense_arrays(obj):
    """2-D arrays returned by a layer: bare, as .coeffs, or as .covariance."""
    if isinstance(obj, np.ndarray):
        if obj.ndim == 2:
            yield obj
        return
    for attr in ("coeffs", "covariance"):
        sub = getattr(obj, attr, None)
        if sub is not None:
            yield from _dense_arrays(sub)


class Tracer:
    """Records spans and counters for ops run while it is installed."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)  # (op, counter) -> value
        self.op = None
        self._stack = []
        self._seen = {}  # id -> weakref of 2-D arrays already counted

    def _record(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.op)

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            result = self._record(name, fn, args, kwargs)
            self._count(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _count(self, name, args, result):
        if name == "stochsolve.expected_operator":
            self.counts[self.op, "stochsolve.cubature_nodes"] += len(args[2])
        for a in _dense_arrays(result):
            ref = self._seen.get(id(a))
            if ref is None or ref() is not a:
                self._seen[id(a)] = weakref.ref(a)
                self.counts[self.op, "stochsolve.dense_bytes"] += a.nbytes

    def run_op(self, op, fn, *args):
        """Run fn(*args) as op `op` under a root span."""
        self.op = op
        try:
            return self._record(ROOT, fn, args, {})
        finally:
            self.op = None

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer function and rebind it wherever it is bound."""
        from dorder import stochsolve
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"dorder.{layer}"]
            for fname in mod.__all__:
                obj = getattr(mod, fname)
                if callable(obj) and not isinstance(obj, type) \
                        and getattr(obj, "__module__", None) == mod.__name__:
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{fname}", obj))
        patched = []
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == "dorder" or mname.startswith("dorder.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    patched.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        cls = stochsolve.StochasticForcing
        check = cls.__post_init__
        cls.__post_init__ = self._wrap(FORCING_CHECK, check)
        try:
            yield
        finally:
            cls.__post_init__ = check
            for mod, attr, val in patched:
                setattr(mod, attr, val)
            self._seen.clear()


def unwrapped_bindings():
    """(module, attr) pairs in dorder modules still bound to a traced original.

    Call inside `Tracer.installed()`; an empty list means no call can
    bypass its span.
    """
    wrapped = {}
    for layer in LAYERS:
        mod = sys.modules[f"dorder.{layer}"]
        for fname in mod.__all__:
            inner = getattr(getattr(mod, fname), "__wrapped__", None)
            if inner is not None:
                wrapped[id(inner)] = inner
    return [(mname, attr) for mname, mod in list(sys.modules.items())
            if mod is not None and (mname == "dorder" or mname.startswith("dorder."))
            for attr, val in vars(mod).items()
            if wrapped.get(id(val)) is val]


def layer_metrics(tracer, op):
    """Per-layer metrics of one traced op (all but trace.op_s/overhead/check)."""
    own = [i for i, s in enumerate(tracer.spans) if s[4] == op]
    pos = {g: k for k, g in enumerate(own)}  # tracer index -> index in `spans`
    spans = [tracer.spans[g] for g in own]
    parent = [pos.get(s[3]) for s in spans]
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, p in enumerate(parent):
        if p is not None:
            child[p] += dur[i]

    def ancestors(i):
        p = parent[i]
        while p is not None:
            yield p
            p = parent[p]

    out = {}
    for metric, (mode, names) in SPAN_METRICS.items():
        total = 0.0
        for i, s in enumerate(spans):
            if s[0] not in names:
                continue
            if mode == "self":
                total += dur[i] - child[i]
            elif not any(spans[a][0] in names for a in ancestors(i)):
                total += dur[i]
        out[metric] = total
    calls = defaultdict(int)
    for s in spans:
        calls[s[0]] += 1
    for metric, name in CALL_METRICS.items():
        out[metric] = calls[name]
    # reference calls: outermost oracle spans other than mc_moments
    out["oracles.verify_s"] = sum(
        dur[i] for i, s in enumerate(spans)
        if s[0].startswith("oracles.") and s[0] != "oracles.mc_moments"
        and not any(spans[a][0].startswith("oracles.") for a in ancestors(i)))
    for key in ("stochsolve.cubature_nodes", "stochsolve.dense_bytes"):
        out[key] = tracer.counts.get((op, key), 0)
    roots = [i for i, s in enumerate(spans) if parent[i] is None and s[0] == ROOT]
    root_dur = sum(dur[i] for i in roots)
    layer_time = sum(dur[i] for i, p in enumerate(parent) if p in roots)
    out["trace.coverage"] = layer_time / root_dur if root_dur > 0 else 0.0
    return out


def median_metrics(per_op):
    """Median over ops of each metric in a list of per-op metric dicts."""
    return {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
