"""Spans around the public functions of every qnskit module.

`install` wraps each public function defined in a layer module and rebinds
every name that refers to it across the package, including names other
modules imported (such as `qnskit.cli.build_quantum`), so calls made inside
the package are seen too.  Nothing under `src/` is edited: the wrappers live
in this process only and `restore` puts the originals back.

A span is (operation, name, start, end, parent index).  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

#: Environment variable that carries the spawn time to a traced CLI child.
SPAWN_TIME_VAR = "PERFBENCH_SPAWN_TIME"

#: The package's modules, one layer each.
LAYERS = ("cli", "io", "stochastic", "correlations", "linalg", "algebra",
          "symmetry", "games", "graphs", "theta")

#: Inclusive-time metrics: metric name -> span names it covers.  A span
#: nested inside another span of the same metric is not counted twice.
TIMED = {
    "io.load_s": ("io.load",),
    "io.detect_payload_s": ("io.detect_payload",),
    "io.correlation_to_json_s": ("io.correlation_to_json",),
    "io.dump_json_s": ("io.dump_json",),
    "stochastic.tensor_s": ("stochastic.tensor",),
    "stochastic.commuting_product_s": ("stochastic.commuting_product",),
    "stochastic.channel_choi_s": ("stochastic.channel_choi",),
    "stochastic.verify_s": ("stochastic.verify",),
    "correlations.build_quantum_s": ("correlations.build_quantum",),
    "correlations.build_commuting_s": ("correlations.build_commuting",),
    "correlations.build_local_s": ("correlations.build_local",),
    "correlations.qns_report_s": ("correlations.qns_report",),
    "correlations.rebuild_from_witness_s": ("correlations.rebuild_from_witness",),
    "correlations.reduce_s": ("correlations.reduce_cqns", "correlations.reduce_ns"),
    "correlations.compose_correlations_s": ("correlations.compose_correlations",),
    "linalg.psd_defect_s": ("linalg.psd_defect",),
    "algebra.tracial_choi_s": ("algebra.tracial_choi",),
    "algebra.tracial_states_s": ("algebra.tracial_states",),
    "symmetry.fair_residual_s": ("symmetry.fair_residual",),
    "games.colouring_game_s": ("games.colouring_game",),
    "games.perfect_strategy_check_s": ("games.perfect_strategy_check",),
    "graphs.kd2_colouring_s": ("graphs.kd2_colouring",),
    "theta.solve_theta_s": ("theta.solve_theta",),
}

def _load_hook(counters, args, kwargs, result):
    path = args[0] if args else kwargs.get("path_or_obj")
    if isinstance(path, (str, os.PathLike)) and path != "-":
        counters["io.bytes_in"] += os.path.getsize(path)


def _dump_hook(counters, args, kwargs, result):
    counters["io.bytes_out"] += len(result.encode("utf-8"))


def _tensor_hook(counters, args, kwargs, result):
    # bytes of the complex128 kron(E, F) intermediate, computed from dims
    counters["stochastic.kron_bytes"] += 16 * result.mat.shape[0] ** 2


def _theta_hook(counters, args, kwargs, result):
    n = args[0] if args else kwargs["n"]
    edges = args[1] if len(args) > 1 else kwargs["edges"]
    m = 1 + len({tuple(sorted((int(i), int(j)))) for i, j in edges})
    counters["theta.iterations"] += result.iterations
    counters["theta.constraints"] += m
    # the Schur complement is assembled from m^2 inner products of n x n
    # matrices once per iteration
    counters["theta.schur_ops"] += m * m * n * n * result.iterations


#: Counters kept beside the spans, summed over a run.
HOOKS = {"io.load": _load_hook, "io.dump_json": _dump_hook,
         "stochastic.tensor": _tensor_hook, "theta.solve_theta": _theta_hook}


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans: list = []
        self.counters = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []
        self._restore: list = []

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (self.op, name, start, end, parent)
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer and rebind all references."""
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"qnskit.{layer}")
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) \
                        and obj.__module__ == mod.__name__:
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "qnskit" or name.startswith("qnskit."))]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])

    def restore(self) -> None:
        for mod, attr, obj in self._restore:
            setattr(mod, attr, obj)
        self._restore.clear()

    def export(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


def self_times(spans) -> dict:
    """Per-layer self time: each span minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = dict.fromkeys(LAYERS, 0.0)
    for (_, name, start, end, _), covered in zip(spans, child):
        out[name.split(".", 1)[0]] += (end - start) - covered
    return out


def inclusive_times(spans) -> dict:
    """TIMED metrics: outermost spans of each metric's function set."""
    metric_of = {name: metric for metric, names in TIMED.items() for name in names}
    out = dict.fromkeys(TIMED, 0.0)
    for _, name, start, end, parent in spans:
        metric = metric_of.get(name)
        if metric is None:
            continue
        p = parent
        while p >= 0 and metric_of.get(spans[p][1]) != metric:
            p = spans[p][4]
        if p < 0:
            out[metric] += end - start
    return out


def per_layer_metrics(spans, counters: dict, ops: int, startup_s: float) -> dict:
    """Per-operation layer figures of a traced run, name -> (value, unit)."""
    ops = max(ops, 1)
    out = {"cli.startup_s": (startup_s / ops, "s")}
    for metric, seconds in inclusive_times(spans).items():
        out[metric] = (seconds / ops, "s")
    out["linalg.psd_defect_calls"] = (
        sum(1 for s in spans if s[1] == "linalg.psd_defect") / ops, "count")
    out["io.bytes_in"] = (counters.get("io.bytes_in", 0.0) / ops, "B")
    out["io.bytes_out"] = (counters.get("io.bytes_out", 0.0) / ops, "B")
    out["stochastic.kron_bytes"] = (counters.get("stochastic.kron_bytes", 0.0) / ops, "B")
    iters = counters.get("theta.iterations", 0.0)
    solves = sum(1 for s in spans if s[1] == "theta.solve_theta")
    out["theta.iterations"] = (iters / max(solves, 1), "count")
    out["theta.constraints"] = (counters.get("theta.constraints", 0.0) / max(solves, 1), "count")
    out["theta.s_per_iteration"] = (
        out["theta.solve_theta_s"][0] * ops / iters if iters else 0.0, "s")
    out["theta.schur_ops"] = (counters.get("theta.schur_ops", 0.0) / max(solves, 1), "count")
    for layer, seconds in self_times(spans).items():
        out[f"{layer}.self_s"] = (seconds / ops, "s")
    out["trace.spans"] = (len(spans) / ops, "count")
    return out


def self_time_table(spans, ops: int) -> str:
    """Text table of per-layer self time per operation, largest first."""
    selfs = self_times(spans)
    total = sum(selfs.values()) or 1.0
    ops = max(ops, 1)
    lines = [f"{'layer':<14}{'self ms/op':>12}{'share':>8}"]
    for layer, seconds in sorted(selfs.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<14}{1e3 * seconds / ops:>12.3f}{100 * seconds / total:>7.1f}%")
    return "\n".join(lines)
