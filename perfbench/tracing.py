"""Span recorder and module-boundary wrappers for the traced benchmark run.

The program is not edited: ``install`` replaces qcsched's public functions,
wherever a ``qcsched`` module binds them, with wrappers that record one span
per call (name, start, end, parent span, run id) plus the counts named in
``metrics``. ``restore`` puts every original binding back. Spans stay in
memory until ``Recorder.write`` dumps them as JSON lines at the end of a run.

A call made from inside a span of the same name records nothing new (for
example ``sample_gain_blocks`` calling ``sample_gains``): a layer's ``calls``
count entries into the layer from outside it.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from qcsched import powerrate

# (module, attribute, span name) for every wrapped free function
FUNCTIONS = [
    ("qcsched.channel", "sample_gains", "channel"),
    ("qcsched.channel", "sample_gain_blocks", "channel"),
    ("qcsched.quantizer", "quantize", "quantizer.quantize"),
    ("qcsched.quantizer", "column_space", "quantizer.column_space"),
    ("qcsched.special", "exp1", "special"),
    ("qcsched.special", "exp1_scaled", "special"),
    ("qcsched.allocator", "build_tables", "allocator.build_tables"),
    ("qcsched.allocator", "smooth_weights", "allocator.smooth_weights"),
    ("qcsched.allocator", "find_tie_instances", "allocator.ties"),
    ("qcsched.allocator", "solve_tie_lp", "allocator.ties"),
    ("qcsched.simplex", "solve_lp", "simplex"),
    ("qcsched.dual", "exact_dual", None),          # named by its mode
    ("qcsched.dual", "block_allocation", "dual.block"),
    ("qcsched.solver", "run_offline_smooth", "solver"),
    ("qcsched.solver", "run_offline_nonsmooth", "solver"),
    ("qcsched.solver", "run_online", "solver"),
    ("qcsched.analysis", "sweep_regions", "analysis"),
    ("qcsched.analysis", "compare_schemes", "analysis"),
    ("qcsched.analysis", "mc_primal", "analysis.mc_primal"),
]

# public methods of the power-rate families, wrapped on every class that
# defines them
METHODS = ("linear_coeff", "power_of_rate", "rate_of_power", "marginal_power",
           "marginal_at_zero", "inv_marginal_power", "is_outage")
FAMILIES = (powerrate.PowerRate, powerrate.OutageCapacity,
            powerrate.MaxInstBer, powerrate.MaxAvgBer,
            powerrate.ErgodicCapacity)


class Recorder:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.run_id = 0
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.runs: list[int] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        # id(grid) -> (grid, distinct channels, K); holding the grid keeps
        # its id from being reused by a later grid
        self.channel_classes: dict[int, tuple] = {}

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def inside(self, prefix: str) -> bool:
        return any(self.names[i].startswith(prefix) for i in self.stack)

    def call(self, name, fn, args, kwargs, after):
        if self.stack and self.names[self.stack[-1]] == name:
            return fn(*args, **kwargs)
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.runs.append(self.run_id)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter()
            self.stack.pop()
        if after is not None:
            after(self, args, kwargs, result)
        return result

    def self_times(self) -> np.ndarray:
        """Span duration minus the time its child spans cover."""
        dur = np.array(self.ends) - np.array(self.starts)
        own = dur.copy()
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "name": name, "start": self.starts[i] - self.t0,
                    "end": self.ends[i] - self.t0,
                    "parent": self.parents[i], "run": self.runs[i]}) + "\n")


# --- per-boundary counters -------------------------------------------------

def _arg(args, kwargs, pos, key, default=None):
    return args[pos] if len(args) > pos else kwargs.get(key, default)


def _count_blocks(rec, args, kwargs, result):
    rec.add("channel.blocks", 1 if result.ndim == 2 else result.shape[0])


def _count_columns(rec, args, kwargs, result):
    rec.add("quantizer.columns", result[1].size)


def _distinct_channels(grid) -> int:
    M, K = grid.num_users, grid.num_channels
    keys = np.concatenate([grid.mean_gain[:, :, None], grid.thresholds],
                          axis=2).transpose(1, 0, 2).reshape(K, -1)
    return len({row.tobytes() for row in keys})


def _count_tables(rec, args, kwargs, result):
    rec.add("allocator.cells_built", result.rate.size)
    grid = _arg(args, kwargs, 1, "grid")
    if id(grid) not in rec.channel_classes:
        rec.channel_classes[id(grid)] = (grid, _distinct_channels(grid),
                                         grid.num_channels)


def _count_cells_read(rec, args, kwargs, result):
    rec.add("allocator.cells_read", np.size(_arg(args, kwargs, 2, "qcsi")))


def _count_ties(rec, args, kwargs, result):
    rec.add("allocator.tie_instances", len(result[0]))


def _count_lp(rec, args, kwargs, result):
    rec.add("simplex.lp_vars", len(_arg(args, kwargs, 0, "c")))


def _count_smooth_solve(rec, args, kwargs, result):
    traj = result[1]
    iters = int(traj.iters[-1]) + 1 if len(traj.iters) else 0
    rec.add("solver.solves")
    rec.add("solver.iterations", iters)
    rec.add("solver.converged", int(traj.converged))
    if rec.inside("analysis"):
        rec.add("analysis.smooth_attempts")
        rec.add("analysis.attempt_iters", iters)
        rec.add("analysis.useful_iters", iters if traj.converged else 0)


AFTER = {
    "sample_gains": _count_blocks, "sample_gain_blocks": _count_blocks,
    "column_space": _count_columns, "build_tables": _count_tables,
    "block_allocation": _count_cells_read, "find_tie_instances": _count_ties,
    "solve_lp": _count_lp, "run_offline_smooth": _count_smooth_solve,
}


def _wrapper(rec, name, fn, after):
    if name is None:                      # exact_dual: span per mode
        def wrapped(*args, **kwargs):
            mode = _arg(args, kwargs, 3, "mode", "smooth")
            span = "dual.exact_smooth" if mode == "smooth" else "dual.exact_hard"
            return rec.call(span, fn, args, kwargs, after)
    else:
        def wrapped(*args, **kwargs):
            return rec.call(name, fn, args, kwargs, after)
    wrapped.bench_wrapper = True
    return wrapped


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "qcsched" or n.startswith("qcsched."))]


def install(rec: Recorder) -> list:
    """Wrap every boundary; returns the undo list for ``restore``."""
    undo = []
    modules = _package_modules()
    for mod_name, attr, span in FUNCTIONS:
        original = getattr(sys.modules[mod_name], attr)
        wrapped = _wrapper(rec, span, original, AFTER.get(attr))
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapped)
    for cls in FAMILIES:
        for meth in METHODS:
            if meth in vars(cls):
                original = vars(cls)[meth]
                undo.append((cls, meth, original))
                setattr(cls, meth, _wrapper(rec, "powerrate", original, None))
    return undo


def restore(undo: list) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


def wrapped_bindings() -> list:
    """Bindings in qcsched that still point at a wrapper (empty once restored)."""
    owners = _package_modules() + list(FAMILIES)
    return [f"{getattr(o, '__name__', o)}.{key}" for o in owners
            for key, val in vars(o).items()
            if getattr(val, "bench_wrapper", False)]


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def metrics(rec: Recorder, overhead_s: float):
    """Per-layer metrics {name: (value, unit)}, keyed as in BENCHMARK.json's
    ``per_layer``, and the base count of every ratio among them."""
    own = rec.self_times()
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i, name in enumerate(rec.names):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + float(own[i])
    c = rec.counts
    out = {}

    def layer(span, key=None):
        key = key or span
        out[f"{key}.calls"] = (calls.get(span, 0), "count")
        out[f"{key}.self_s"] = (self_s.get(span, 0.0), "s")

    layer("channel")
    out["channel.blocks"] = (c.get("channel.blocks", 0), "count")
    layer("quantizer.quantize")
    layer("quantizer.column_space")
    out["quantizer.columns"] = (c.get("quantizer.columns", 0), "count")
    layer("powerrate")
    layer("special")
    layer("allocator.build_tables")
    out["allocator.cells_built"] = (c.get("allocator.cells_built", 0), "count")
    out["allocator.cells_read_ratio"] = (
        _ratio(c.get("allocator.cells_read", 0), c.get("allocator.cells_built", 0)),
        "ratio")
    layer("allocator.smooth_weights")
    layer("allocator.ties")
    out["allocator.tie_instances"] = (c.get("allocator.tie_instances", 0), "count")
    layer("simplex")
    out["simplex.lp_vars"] = (c.get("simplex.lp_vars", 0), "count")
    layer("dual.exact_smooth")
    layer("dual.exact_hard")
    layer("dual.block")
    classes = rec.channel_classes.values()
    out["dual.distinct_channel_ratio"] = (
        _ratio(sum(d for _, d, _ in classes), sum(k for _, _, k in classes)),
        "ratio")
    out["solver.solves"] = (c.get("solver.solves", 0), "count")
    out["solver.iterations"] = (c.get("solver.iterations", 0), "count")
    out["solver.converged_ratio"] = (
        _ratio(c.get("solver.converged", 0), c.get("solver.solves", 0)), "ratio")
    out["solver.self_s"] = (self_s.get("solver", 0.0), "s")
    out["analysis.smooth_attempts"] = (c.get("analysis.smooth_attempts", 0), "count")
    out["analysis.useful_iter_ratio"] = (
        _ratio(c.get("analysis.useful_iters", 0), c.get("analysis.attempt_iters", 0)),
        "ratio")
    out["analysis.mc_primal.self_s"] = (self_s.get("analysis.mc_primal", 0.0), "s")
    out["analysis.self_s"] = (
        self_s.get("analysis", 0.0) + self_s.get("analysis.mc_primal", 0.0), "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    bases = {
        "allocator.cells_read_ratio": c.get("allocator.cells_built", 0),
        "solver.converged_ratio": c.get("solver.solves", 0),
        "analysis.useful_iter_ratio": c.get("analysis.attempt_iters", 0),
        "dual.distinct_channel_ratio": sum(k for _, _, k in classes),
    }
    return out, bases
