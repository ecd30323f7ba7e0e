"""Span tracing from outside the program.

``Tracer.install`` replaces each traced public function of ``followsim``,
in every ``followsim`` module namespace that refers to it, with a wrapper
that records a span (name, start, end, parent) in flat in-memory arrays.
``uninstall`` puts the originals back. A layer's self time is its spans'
duration minus the time covered by their child spans, so time spent in an
untraced helper shows in its traced caller. A traced function that the
program stops calling reports zero calls; its time then shows in its
caller's self time.
"""
from __future__ import annotations

import os
import sys
import time
from array import array

import numpy as np

# (span name, module, attribute); "Class.method" attributes wrap the method
LAYERS = (
    ("world.step_bicycle", "world", "step_bicycle"),
    ("world.lateral_deviation", "world", "lateral_deviation"),
    ("world.leader_pose", "world", "leader_pose"),
    ("sensor.observe", "sensor", "observe"),
    ("pid.pid_step", "pid", "pid_step"),
    ("fuzzy.fuzzy_step", "fuzzy", "fuzzy_step"),
    ("fuzzy.scale_output", "fuzzy", "scale_output"),
    ("actuation.update", "actuation", "ChannelController.update"),
    ("simulate.run_scenario", "simulate", "run_scenario"),
    ("scenario.load_scenario", "scenario", "load_scenario"),
    ("metrics.trace_metrics", "metrics", "trace_metrics"),
    ("metrics.objective_value", "metrics", "objective_value"),
    ("metrics.compare", "metrics", "compare"),
    ("traceio.write_trace_csv", "traceio", "write_trace_csv"),
    ("svgplot.write_plot_svg", "svgplot", "write_plot_svg"),
    ("report.write_report", "report", "write_report"),
    ("tune.run_grid_search", "tune", "run_grid_search"),
    ("cli", "cli", "cmd_run"),
    ("cli", "cli", "cmd_compare"),
    ("cli", "cli", "cmd_tune"),
    ("cli", "cli", "cmd_sweep"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in LAYERS))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# span name -> (count name, count of one call from (args, kwargs, result))
COUNTERS = {
    "world.lateral_deviation": ("points", lambda a, k, r: len(_arg(a, k, 1, "leader_track"))),
    "sensor.observe": ("hits", lambda a, k, r: r is not None),
    "simulate.run_scenario": ("records", lambda a, k, r: len(r.records)),
    "traceio.write_trace_csv": ("bytes", lambda a, k, r: os.path.getsize(_arg(a, k, 1, "path"))),
    "svgplot.write_plot_svg": ("bytes", lambda a, k, r: os.path.getsize(_arg(a, k, 2, "path"))),
    "tune.run_grid_search": ("candidates", lambda a, k, r: len(r)),
}


def followsim_modules() -> list:
    return [m for key, m in sys.modules.items() if key.split(".")[0] == "followsim"]


def replace_everywhere(original, wrapper, namespaces) -> list:
    """Point every name bound to ``original`` in ``namespaces`` at ``wrapper``;
    returns (namespace, name, original) triples for undoing it."""
    patched = []
    for ns in namespaces:
        for key, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, key, wrapper)
                patched.append((ns, key, original))
    return patched


class Tracer:
    def __init__(self) -> None:
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.counts = {name: 0 for name in COUNTERS}
        self._stack = [-1]
        self._patched = []  # (namespace, attribute, original)

    def clear(self) -> None:
        for arr in (self.names, self.parents, self.starts, self.ends):
            del arr[:]
        for name in self.counts:
            self.counts[name] = 0

    def _wrap(self, span_id: int, name: str, fn):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(span_id)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        if name not in COUNTERS:
            return traced
        counter = COUNTERS[name][1]
        counts = self.counts

        def counted(*args, **kwargs):
            result = traced(*args, **kwargs)
            counts[name] += counter(args, kwargs, result)
            return result

        return counted

    def install(self) -> None:
        modules = followsim_modules()
        for name, module, attr in LAYERS:
            owner = sys.modules[f"followsim.{module}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                cls = vars(owner)[cls_name]
                original, namespaces = vars(cls)[attr], [cls]
            else:
                original, namespaces = vars(owner)[attr], modules
            wrapper = self._wrap(SPAN_NAMES.index(name), name, original)
            self._patched += replace_everywhere(original, wrapper, namespaces)

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patched):
            setattr(ns, key, original)
        self._patched.clear()

    def layer_totals(self) -> tuple[dict[str, dict[str, float]], float]:
        """Per span name: calls, self seconds and inclusive seconds; and the
        total duration of root spans, which the self times add up to."""
        names = np.frombuffer(self.names, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        dur = (np.frombuffer(self.ends, dtype=np.int64)
               - np.frombuffer(self.starts, dtype=np.int64)).astype(np.float64)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
        k = len(SPAN_NAMES)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=dur - child, minlength=k) / 1e9
        incl_s = np.bincount(names, weights=dur, minlength=k) / 1e9
        layers = {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "incl_s": float(incl_s[i])}
            for i, name in enumerate(SPAN_NAMES)
        }
        return layers, float(dur[~nested].sum()) / 1e9

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("span,name,parent,start_ns,end_ns\n")
            for i, (n, p, s, e) in enumerate(zip(self.names, self.parents, self.starts, self.ends)):
                f.write(f"{i},{SPAN_NAMES[n]},{p},{s},{e}\n")
