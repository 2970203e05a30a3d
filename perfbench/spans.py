"""Span recording around robuq's public functions, used only by traced runs.

``Tracer.install`` replaces each listed function with a recorder in its
defining module and in every ``robuq`` module that imported it by name, and
wraps ``ToyModel.loss_and_grads`` on the class; ``uninstall`` restores the
originals. A span is ``[name, start, end, parent, phase, attrs]``: ``parent``
is the index of the span that was open when it started (-1 for none) and
``phase`` is ``"setup"``, ``"probe"`` or the index of the measured pass.
Spans stay in memory until ``dump`` writes them out.

A span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time

SETUP = "setup"
PROBE = "probe"

# module -> public functions recorded as "<module>.<function>" spans
FUNCTIONS = {
    "hadamard": ("transform_tokens", "fold_into_weights"),
    "quant": ("quantize_tokens", "ternarize", "uniform_gauss_codebook", "lloyd_max"),
    "lowrank": ("truncated_svd", "init_layer", "forward", "save_layer", "load_layer"),
    "tensorio": ("save_matrix", "load_matrix"),
    "deploy": ("pack_ternary", "unpack_ternary"),
    "profiler": ("profile_sensitivity",),
    "allocator": ("dp_allocate",),
    "gaussanalysis": ("normality",),
}
METHODS = (("profiler", "ToyModel", "loss_and_grads"),)

# Spans of the probe phase count only for these names: the probe measures
# transform quality and its other calls are not part of any workload.
PROBE_NAMES = ("gaussanalysis.normality",)

# name -> (unit, better); the order is the order of the printed result
PER_LAYER = {
    "hadamard.transform_tokens.calls": ("count", "lower"),
    "hadamard.transform_tokens.self_s": ("s", "lower"),
    "hadamard.transform_tokens.melem_per_s": ("Melem/s", "higher"),
    "hadamard.fold_into_weights.calls": ("count", "lower"),
    "hadamard.fold_into_weights.self_s": ("s", "lower"),
    "quant.quantize_tokens.calls": ("count", "lower"),
    "quant.quantize_tokens.self_s": ("s", "lower"),
    "quant.ternarize.calls": ("count", "lower"),
    "quant.ternarize.self_s": ("s", "lower"),
    "quant.codebook.self_s": ("s", "lower"),
    "quant.act_rel_mse": ("1", "lower"),
    "gaussanalysis.normality.ks": ("1", "lower"),
    "gaussanalysis.normality.self_s": ("s", "lower"),
    "lowrank.truncated_svd.calls": ("count", "lower"),
    "lowrank.truncated_svd.self_s.flat": ("s", "lower"),
    "lowrank.truncated_svd.self_s.decay": ("s", "lower"),
    "lowrank.init_layer.self_s": ("s", "lower"),
    "lowrank.forward.self_s": ("s", "lower"),
    "lowrank.forward.gflop_per_s": ("GFLOP/s", "higher"),
    "lowrank.save_layer.self_s": ("s", "lower"),
    "lowrank.load_layer.self_s": ("s", "lower"),
    "tensorio.save_matrix.self_s": ("s", "lower"),
    "tensorio.load_matrix.self_s": ("s", "lower"),
    "tensorio.bytes_written": ("bytes", "lower"),
    "deploy.pack_ternary.self_s": ("s", "lower"),
    "deploy.unpack_ternary.self_s": ("s", "lower"),
    "deploy.packed_bytes": ("bytes", "lower"),
    "profiler.loss_and_grads.calls": ("count", "lower"),
    "profiler.loss_and_grads.self_s": ("s", "lower"),
    "profiler.profile_sensitivity.self_s": ("s", "lower"),
    "allocator.dp_allocate.calls": ("count", "lower"),
    "allocator.dp_allocate.self_s": ("s", "lower"),
    "allocator.dp_allocate.states": ("count", "lower"),
    "allocator.budget_overrun": ("bits", "lower"),
    "trace.overhead_frac": ("1", "lower"),
}


# -- attributes measured from a call's arguments and result -----------------

def _elements(args, kwargs, out):
    return {"elements": int(args[0].size)}


def _forward_flops(args, kwargs, out):
    layer, x = args[0], args[1]
    tokens = x.shape[0]
    dense = 2 * tokens * layer.in_dim * layer.out_dim
    branch = 2 * tokens * layer.branch.rank * (layer.in_dim + layer.out_dim)
    return {"flops": dense + branch}


def _file_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[1])}


def _packed_bytes(args, kwargs, out):
    return {"bytes": len(out.data)}


def _dp_states(args, kwargs, out):
    problem = args[0]
    optimized = sum(1 for layer in problem.table.layers if layer.fixed_bits is None)
    budget_units = int(problem.beta * problem.target_avg_bits)
    return {"states": optimized * (budget_units + 1),
            "overrun": out.achieved_avg_bits - problem.target_avg_bits}


MEASURES = {
    "hadamard.transform_tokens": _elements,
    "lowrank.forward": _forward_flops,
    "tensorio.save_matrix": _file_bytes,
    "deploy.pack_ternary": _packed_bytes,
    "allocator.dp_allocate": _dp_states,
}


class Tracer:
    """Records spans while installed; the workload sets ``tag`` and ``phase``."""

    def __init__(self):
        self.spans: list[list] = []
        self.phase: object = SETUP
        self.tag: str | None = None  # spectrum of the weight being converted
        self._stack: list[int] = []
        self._paused = False
        self._patches: list[tuple[object, str, object, object]] = []

    def _wrap(self, name, fn):
        measure = MEASURES.get(name)
        spans, stack = self.spans, self._stack

        def recorder(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.phase, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            attrs = measure(args, kwargs, out) if measure else {}
            if name == "lowrank.truncated_svd":
                attrs = {"spectrum": self.tag}
            span[5] = attrs or None
            return out

        recorder.__wrapped__ = fn
        return recorder

    def install(self) -> None:
        if self._patches:
            return
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "robuq" or key.startswith("robuq."))]
        for module_name, names in FUNCTIONS.items():
            home = sys.modules[f"robuq.{module_name}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                recorder = self._wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    if getattr(module, fn_name, None) is original:
                        self._patches.append((module, fn_name, original, recorder))
        for module_name, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"robuq.{module_name}"], cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original,
                                  self._wrap(f"{module_name}.{meth}", original)))
        for owner, attr, _, recorder in self._patches:
            setattr(owner, attr, recorder)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (output checks) are not recorded."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def dump(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**header, "fields": ["name", "start", "end", "parent", "phase", "attrs"],
                       "spans": self.spans}, fh)


class NullTracer:
    """Stands in for ``Tracer`` in untraced runs."""

    phase = SETUP
    tag = None

    @contextlib.contextmanager
    def paused(self):
        yield


def layer_stats(spans: list[list], passes: set) -> dict[str, dict]:
    """Calls, self time and summed attributes per span name.

    Counts spans of the set-up phase and of the measured passes in
    ``passes``; probe spans count only for ``PROBE_NAMES``.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    stats: dict[str, dict] = {}
    for i, (name, start, end, _, phase, attrs) in enumerate(spans):
        if phase == PROBE:
            if name not in PROBE_NAMES:
                continue
        elif phase != SETUP and phase not in passes:
            continue
        entry = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "by_tag": {}, "attrs": {}})
        self_s = (end - start) - child_time[i]
        entry["calls"] += 1
        entry["self_s"] += self_s
        for key, value in (attrs or {}).items():
            if key == "spectrum":
                entry["by_tag"][value] = entry["by_tag"].get(value, 0.0) + self_s
            elif key == "overrun":
                entry["attrs"][key] = max(entry["attrs"].get(key, value), value)
            else:
                entry["attrs"][key] = entry["attrs"].get(key, 0) + value
    return stats


def per_layer_metrics(stats: dict[str, dict], quality: dict[str, float],
                      overhead_frac: float) -> dict[str, float]:
    """The ``PER_LAYER`` metrics from ``layer_stats`` output plus the
    workload's transform-quality probe and the measured tracing overhead.
    A function the workload never calls reads 0."""
    empty = {"calls": 0, "self_s": 0.0, "by_tag": {}, "attrs": {}}

    def get(name):
        return stats.get(name, empty)

    def rate(amount, seconds, scale):
        return amount / seconds / scale if seconds > 0 else 0.0

    out: dict[str, float] = {}
    for fn in ("hadamard.transform_tokens", "hadamard.fold_into_weights",
               "quant.quantize_tokens", "quant.ternarize", "lowrank.truncated_svd",
               "profiler.loss_and_grads", "allocator.dp_allocate"):
        out[f"{fn}.calls"] = get(fn)["calls"]
    for fn in ("hadamard.transform_tokens", "hadamard.fold_into_weights",
               "quant.quantize_tokens", "quant.ternarize", "gaussanalysis.normality",
               "lowrank.init_layer", "lowrank.forward", "lowrank.save_layer",
               "lowrank.load_layer", "tensorio.save_matrix", "tensorio.load_matrix",
               "deploy.pack_ternary", "deploy.unpack_ternary", "profiler.loss_and_grads",
               "profiler.profile_sensitivity", "allocator.dp_allocate"):
        out[f"{fn}.self_s"] = get(fn)["self_s"]
    tt = get("hadamard.transform_tokens")
    out["hadamard.transform_tokens.melem_per_s"] = rate(
        tt["attrs"].get("elements", 0), tt["self_s"], 1e6)
    fw = get("lowrank.forward")
    out["lowrank.forward.gflop_per_s"] = rate(fw["attrs"].get("flops", 0), fw["self_s"], 1e9)
    out["quant.codebook.self_s"] = (get("quant.uniform_gauss_codebook")["self_s"]
                                    + get("quant.lloyd_max")["self_s"])
    svd = get("lowrank.truncated_svd")["by_tag"]
    out["lowrank.truncated_svd.self_s.flat"] = svd.get("flat", 0.0)
    out["lowrank.truncated_svd.self_s.decay"] = svd.get("decay", 0.0)
    out["tensorio.bytes_written"] = get("tensorio.save_matrix")["attrs"].get("bytes", 0)
    out["deploy.packed_bytes"] = get("deploy.pack_ternary")["attrs"].get("bytes", 0)
    dp = get("allocator.dp_allocate")["attrs"]
    out["allocator.dp_allocate.states"] = dp.get("states", 0)
    out["allocator.budget_overrun"] = dp.get("overrun", 0.0)
    out["quant.act_rel_mse"] = quality.get("act_rel_mse", 0.0)
    out["gaussanalysis.normality.ks"] = quality.get("ks", 0.0)
    out["trace.overhead_frac"] = overhead_frac
    return {name: out[name] for name in PER_LAYER}
