"""Per-layer spans recorded around oscidec's public functions.

`Tracer.install()` wraps each function named in LAYERS in every `oscidec.*`
module namespace that holds it (and the named methods on their classes), so
calls through `from .x import f` copies are caught as well.  Each call
records a span (layer, start, end, parent).  Spans stay in memory until the
scenario ends; self times are span durations minus the time their child
spans cover.  A name that no longer exists is listed in `absent` and its
metrics read 0, so deleting a function leaves the benchmark running.
"""
from __future__ import annotations

import os
import sys
import threading
import time
from collections import defaultdict
from functools import wraps

# layer -> names wrapped.  "Class.method" wraps a method on its class.
LAYERS: dict[str, tuple[str, ...]] = {
    "config.parse": ("parse_config",),
    "models.build": ("build_caldeira_leggett", "build_two_mode",
                     "discretize_ohmic_bath"),
    "phase_space.gaussian_state": ("GaussianState.__post_init__",),
    "phase_space.reduce_state": ("reduce_state",),
    "decomposition.transform": ("cm_relative_transform", "transform_hamiltonian",
                                "transform_state", "many_mode_constants",
                                "two_mode_constants"),
    "decomposition.normal_modes": ("normal_mode_transform",),
    "dynamics.propagator": ("propagator",),
    "dynamics.evolve_branches": ("evolve_branches_from", "evolve_branches"),
    "metrics.decoherence_function": ("decoherence_function",),
    "metrics.parallel_compare": ("parallel_compare", "build_report"),
    "fock.build_operators": ("build_operators", "two_mode_hamiltonian"),
    "fock.diagonalize": ("diagonalize",),
    "fock.evolve_pure": ("Evolver.evolve_pure",),
    "fock.moments": ("moments",),
    "fock.negativity": ("cm_relative_log_negativity",),
    "fock.crosscheck": ("gaussian_crosscheck",),
    "master.evolve_master": ("evolve_master",),
    "master.coherence_profile": ("coherence_profile",),
    "kernels.rk4_steps": ("rk4_steps",),
    "reporting.write": ("write_manifest", "write_csv", "write_matrix",
                        "write_decoherence", "write_comparison",
                        "write_crosscheck", "write_moments"),
}
ROOT = "cli"

# Layers whose call counts are reported as metrics.
COUNTED = ("phase_space.gaussian_state", "phase_space.reduce_state",
           "dynamics.propagator", "fock.evolve_pure", "fock.moments",
           "kernels.rk4_steps")


def _rk4_steps(args, kwargs, result):
    n = kwargs["n_steps"] if "n_steps" in kwargs else args[6]
    return {"kernels.rk4_steps.steps": int(n)}


def _master_halvings(args, kwargs, result):
    return {"master.halvings": int(result.halvings)}


def _fock_rows(args, kwargs, result):
    return {"fock.rows": len(result.rows),
            "fock.trusted_rows": sum(bool(r.trusted) for r in result.rows)}


# Counts read off a wrapped call's arguments or result.
EXTRAS = {"rk4_steps": _rk4_steps, "evolve_master": _master_halvings,
          "gaussian_crosscheck": _fock_rows}
EXTRA_COUNTS = ("kernels.rk4_steps.steps", "master.halvings", "fock.rows",
                "fock.trusted_rows")


def metric_units() -> dict[str, str]:
    """Every per-scenario layer metric and its unit, in report order."""
    units = {f"{layer}.s": "s" for layer in LAYERS}
    units["cli.self.s"] = "s"
    units.update({f"{layer}.calls": "count" for layer in COUNTED})
    units.update({name: "count" for name in EXTRA_COUNTS})
    units["reporting.bytes"] = "bytes"
    return units


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []       # [layer, start, end, parent]
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, layer: str, fn, extra=None):
        spans, counts, stack_of = self.spans, self.counts, self._stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            idx = len(spans)
            spans.append([layer, time.perf_counter(), 0.0,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if extra is not None:
                for key, value in extra(args, kwargs, result).items():
                    counts[key] += value
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "oscidec"
                                         or name.startswith("oscidec."))]
        self.absent = [name for layer, names in LAYERS.items() for name in names
                       if not self._wrap(layer, name, modules)]

    def _wrap(self, layer: str, name: str, modules) -> bool:
        if "." in name:
            cls_name, attr = name.split(".", 1)
            classes = {id(c): c for m in modules
                       for c in [vars(m).get(cls_name)]
                       if isinstance(c, type) and attr in vars(c)}
            for cls in classes.values():
                self._set(cls, attr, self.span(layer, vars(cls)[attr]))
            return bool(classes)
        wrapped = {}
        for m in modules:
            fn = vars(m).get(name)
            if fn is None or isinstance(fn, type) or not callable(fn):
                continue
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self.span(layer, fn, EXTRAS.get(name))
            self._set(m, name, wrapped[id(fn)])
        return bool(wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def scenario_metrics(self, out_dir: str) -> dict[str, float]:
        """Per-layer self seconds and counts of the spans recorded since the
        last reset, plus the bytes the scenario wrote to out_dir."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        metrics = {name: 0 for name in metric_units()}
        for i, (layer, start, end, parent) in enumerate(self.spans):
            key = "cli.self.s" if layer == ROOT else f"{layer}.s"
            metrics[key] += end - start - child[i]
            if layer in COUNTED:
                metrics[f"{layer}.calls"] += 1
        metrics.update(self.counts)
        metrics["reporting.bytes"] = sum(
            os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))
        return metrics
