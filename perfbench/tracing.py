"""Spans and counters at tpcsim's layer boundaries, for the traced run.

Each layer is one tpcsim module.  install() replaces every public function
of those modules, at every module binding that refers to it (for example
tpcsim.accuracy.simulate and tpcsim.cli.sample_output as well as
tpcsim.discrete.simulate), with a wrapper that records a span: id, parent
span, op id, name, start and end.  Counters are computed from the arguments
and return value at the same boundary.  Spans stay in memory until dump().

A layer's self time is the sum over its spans of the span's duration minus
the time covered by its child spans.  own() records the benchmark's own
code (input generation, output checks) as spans of the layer "bench", so
the traced wall time splits into layer self times, the benchmark's own time
and an unaccounted rest: tpcsim code outside the wrapped functions, the
glue between tpcsim calls in a workload's run(), and the wrappers' own
bookkeeping.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("circuit", "modulation", "analytic", "spectrum", "discrete", "accuracy", "equalization", "laplace", "cli")


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _size(result) -> int:
    samples = getattr(result, "samples", result)
    return int(np.size(samples))


def _mode(args, kwargs, i) -> str:
    mode = _arg(args, kwargs, i, "mode")
    return "dcm" if mode is not None and mode.value == "dcm" else "ccm"


def _cli_counts(args, kwargs, rc):
    argv = list(_arg(args, kwargs, 0, "argv") or [])
    if rc != 0 or not argv or argv[0] not in ("run", "preset") or "--out" not in argv:
        return {}
    out = Path(argv[argv.index("--out") + 1])
    written = sum(e.stat().st_size for e in os.scandir(out) if e.is_file())
    return {"scenarios": 1, "bytes_written": written}


# (layer.function) -> (counted only on entry into the layer?, counter).
# Entry-only counters avoid counting twice when a layer's functions call each
# other (analytic.sample_output -> output_voltage -> data_component).
COUNTERS = {
    "modulation.sample_switching": (True, lambda a, k, r: {"samples": _size(r)}),
    "spectrum.ripple_spectrum": (True, lambda a, k, r: {"freq_symbols": _size(r.values) * _arg(a, k, 2, "pat").K}),
    "spectrum.v1_spectrum": (True, lambda a, k, r: {"freq_symbols": _size(r) * _arg(a, k, 0, "pat").K}),
    "discrete.simulate": (True, lambda a, k, r: {f"{_mode(a, k, 5)}_steps": _size(r[0])}),
    "discrete.step": (True, lambda a, k, r: {f"{_mode(a, k, 4)}_steps": 1}),
    "accuracy.sweep": (True, lambda a, k, r: {"reports": len(r)}),
    "equalization.brute_force_detect": (
        True,
        lambda a, k, r: {
            "frames": 1,
            "candidate_samples": (1 << _arg(a, k, 5, "K")) * _arg(a, k, 5, "K") * _arg(a, k, 4, "J"),
        },
    ),
    "laplace.partial_fractions": (False, lambda a, k, r: {"terms": len(r)}),
    "laplace.simulate_generalized": (True, lambda a, k, r: {"samples": _size(r)}),
    "cli.main": (True, lambda a, k, r: _cli_counts(a, k, r)),
}
# every analytic function returns samples; count them where analytic is entered
ANALYTIC_ENTRY = (True, lambda a, k, r: {"samples": _size(r)})

# (metric, count it is divided by, time taken, scale)
#   layer:     time inside the layer under the counted spans
#   inclusive: wall time of the counted spans, callees included
#   self:      the layer's whole self time
RATES = (
    ("analytic.ns_per_sample", "analytic.samples", "layer", 1e9),
    ("spectrum.ns_per_freq_symbol", "spectrum.freq_symbols", "layer", 1e9),
    ("modulation.ns_per_sample", "modulation.samples", "layer", 1e9),
    ("discrete.ccm_ns_per_step", "discrete.ccm_steps", "layer", 1e9),
    ("discrete.dcm_ns_per_step", "discrete.dcm_steps", "layer", 1e9),
    ("accuracy.s_per_report", "accuracy.reports", "inclusive", 1.0),
    ("equalization.ns_per_candidate_sample", "equalization.candidate_samples", "layer", 1e9),
    ("laplace.ns_per_sample", "laplace.samples", "layer", 1e9),
    ("cli.self_ms_per_scenario", "cli.scenarios", "self", 1e3),
)
COUNTS = (
    "analytic.samples",
    "spectrum.freq_symbols",
    "modulation.samples",
    "discrete.ccm_steps",
    "discrete.dcm_steps",
    "accuracy.reports",
    "equalization.frames",
    "equalization.candidate_samples",
    "laplace.terms",
    "laplace.samples",
    "cli.scenarios",
    "cli.bytes_written",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end)
        self.op_id = -1
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._counts: dict[int, dict] = {}  # span id -> counts taken there
        self._patches: list[tuple] = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"tpcsim.{layer}")
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and not name.startswith("_") and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(layer, name, fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "tpcsim" and not mod_name.startswith("tpcsim."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._patches):
            setattr(mod, name, fn)
        self._patches.clear()

    def _wrap(self, layer: str, name: str, fn):
        qual = f"{layer}.{name}"
        entry_only, counter = COUNTERS.get(qual, ANALYTIC_ENTRY if layer == "analytic" else (True, None))
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, parent_layer = stack[-1] if stack else (None, None)
            sid = self._next_id
            self._next_id += 1
            stack.append((sid, layer))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, self.op_id, qual, start, end))
            if counter is not None and (parent_layer != layer or not entry_only):
                self._counts[sid] = counter(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def own(self, name: str):
        """A span of the benchmark's own code, named bench.<name>."""
        stack = self._stack
        parent = stack[-1][0] if stack else None
        sid = self._next_id
        self._next_id += 1
        stack.append((sid, "bench"))
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, self.op_id, f"bench.{name}", start, end))

    def metrics(self, wall: float) -> dict:
        """Per-layer calls, self time, share of `wall`, counts and rates; the
        benchmark's own time and what neither accounts for of `wall`."""
        by_id = {s[0]: s for s in self.spans}
        layer_of = {sid: s[3].split(".", 1)[0] for sid, s in by_id.items()}
        child_time = defaultdict(float)
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_time = {sid: s[5] - s[4] - child_time[sid] for sid, s in by_id.items()}
        # time inside the span's own layer, down to the first call into another layer
        layer_time = dict(self_time)
        for sid in sorted(by_id, reverse=True):
            parent = by_id[sid][1]
            if parent is not None and layer_of[parent] == layer_of[sid]:
                layer_time[parent] += layer_time[sid]

        out = {}
        calls = defaultdict(int)
        selfs = defaultdict(float)
        for sid in by_id:
            calls[layer_of[sid]] += 1
            selfs[layer_of[sid]] += self_time[sid]
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = selfs[layer]
            out[f"{layer}.share"] = selfs[layer] / wall
        counts = defaultdict(float)
        timed = defaultdict(lambda: {"layer": 0.0, "inclusive": 0.0})
        for sid, taken in self._counts.items():
            layer = layer_of[sid]
            for key, value in taken.items():
                metric = f"{layer}.{key}"
                counts[metric] += value
                timed[metric]["layer"] += layer_time[sid]
                timed[metric]["inclusive"] += by_id[sid][5] - by_id[sid][4]
        for name in COUNTS:
            out[name] = counts[name]
        for name, base, kind, scale in RATES:
            spent = selfs[name.split(".", 1)[0]] if kind == "self" else timed[base][kind]
            out[name] = scale * spent / counts[base] if counts[base] else 0.0
        accounted = sum(selfs[layer] for layer in LAYERS) + selfs["bench"]
        out["bench.self_s"] = selfs["bench"]
        out["bench.share"] = selfs["bench"] / wall
        out["trace.spans"] = len(self.spans)
        out["trace.wall_s"] = wall
        out["trace.unaccounted_s"] = wall - accounted
        out["trace.accounted_share"] = accounted / wall
        return out

    def dump(self, path: Path, t0: float) -> None:
        """Write spans as JSON lines, times in seconds from t0."""
        with open(path, "w") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(
                    json.dumps({"id": sid, "parent": parent, "op": op, "name": name, "start": start - t0, "end": end - t0})
                    + "\n"
                )
