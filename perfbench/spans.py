"""Span tracing of proxsweep's layers from outside the package.

The tracer replaces each traced public function with a wrapper in every
proxsweep module that binds it: integrator, diagnostics and cli import
project_point, run and the others by name at import time, so patching only
the defining module would miss their calls.  Each call becomes a span with
its caller (the enclosing span on the same thread) and its thread.  Self
time is computed per thread: a span's duration minus the time of its
children on the same thread, so work in the CLI's sweep pool is never
subtracted from a span on another thread.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    caller: str
    thread: int
    start: float
    end: float = 0.0
    child_s: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


def _run_h(result, args, kwargs):
    return {"h": args[4] if len(args) > 4 else kwargs["h"]}


# "<module>.<function>" -> function of (result, args, kwargs) giving the
# counts recorded on the span, or None.  Time in functions not listed here
# counts as self time of the nearest traced caller.
TARGETS = {
    "geometry.active_set": None,
    "geometry.velocity_polyhedron": None,
    "geometry.good_direction": None,
    "projection.project_point": lambda r, a, k: {"iters": r.iterations,
                                                 "moved": r.distance > 0.0,
                                                 "stalled": not r.converged},
    "projection.project_velocity": lambda r, a, k: {"iters": r.iterations},
    "integrator.step": None,
    "integrator.extract_multipliers": lambda r, a, k: {"out_of_cone": not r.in_cone},
    "integrator.run": _run_h,
    "diagnostics.max_intergrid_gap": None,
    "diagnostics.verify_impact_law": lambda r, a, k: {"events": len(r)},
    "diagnostics.velocity_bound_ok": None,
    "diagnostics.interpolant_sup_error": None,
    "diagnostics.convergence_study": None,
    "diagnostics.diagnose": None,
    "cli.write_csv": None,
    "cli.write_json": None,
}


class Tracer:
    """Context manager: installs the wrappers on entry, restores on exit."""

    def __init__(self, package):
        self._modules = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                                     for m in ("geometry", "projection", "integrator",
                                               "diagnostics", "scenarios", "cli")]
        self._defining = {m.__name__.rsplit(".", 1)[-1]: m for m in self._modules[1:]}
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self.spans: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, annotate):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span = Span(name, parent.name if parent else "", threading.get_ident(),
                        time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
                self.spans.append(span)
            if annotate is not None:
                span.info = annotate(result, args, kwargs)
            return result

        return wrapper

    def __enter__(self):
        for name, annotate in TARGETS.items():
            mod_name, fn_name = name.split(".")
            original = getattr(self._defining[mod_name], fn_name)
            wrapper = self._wrap(name, original, annotate)
            for mod in self._modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False


def layer_metrics(spans: list[Span], main_thread: int) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def self_s(group):
        return float(sum(s.self_s for s in group))

    def total(group, key):
        return float(sum(s.info.get(key, 0) for s in group))

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, float] = {}
    points = by_name["projection.project_point"]
    for path, caller in (("step", "integrator.step"),
                         ("intergrid", "diagnostics.max_intergrid_gap")):
        group = [s for s in points if s.caller == caller]
        key = f"projection.project_point.{path}"
        out[f"{key}.calls"] = float(len(group))
        out[f"{key}.self_s"] = self_s(group)
        moved = ratio(total(group, "moved"), len(group))
        if path == "step":
            out[f"{key}.newton_iters"] = total(group, "iters")
            out[f"{key}.moved_ratio"] = moved
            out[f"{key}.stalled"] = total(group, "stalled")
        else:
            out[f"{key}.useful_ratio"] = moved

    velocity = by_name["projection.project_velocity"]
    out["projection.project_velocity.calls"] = float(len(velocity))
    out["projection.project_velocity.self_s"] = self_s(velocity)
    out["projection.project_velocity.iters"] = total(velocity, "iters")

    extract = by_name["integrator.extract_multipliers"]
    out["integrator.extract_multipliers.calls"] = float(len(extract))
    out["integrator.extract_multipliers.self_s"] = self_s(extract)
    out["integrator.extract_multipliers.out_of_cone"] = total(extract, "out_of_cone")
    out["integrator.step.calls"] = float(len(by_name["integrator.step"]))
    out["integrator.step.self_s"] = self_s(by_name["integrator.step"])
    runs = by_name["integrator.run"]
    out["integrator.run.calls"] = float(len(runs))
    out["integrator.run.calls_per_h"] = ratio(len(runs), len({s.info["h"] for s in runs}))

    for fn in ("convergence_study", "diagnose", "max_intergrid_gap", "verify_impact_law",
               "interpolant_sup_error", "velocity_bound_ok"):
        out[f"diagnostics.{fn}.self_s"] = self_s(by_name[f"diagnostics.{fn}"])
    out["diagnostics.verify_impact_law.events"] = total(
        by_name["diagnostics.verify_impact_law"], "events")

    out["geometry.good_direction.self_s"] = self_s(by_name["geometry.good_direction"])
    out["geometry.active_set.calls"] = float(len(by_name["geometry.active_set"]))
    out["geometry.velocity_polyhedron.calls"] = float(len(by_name["geometry.velocity_polyhedron"]))

    out["cli.write_csv.self_s"] = self_s(by_name["cli.write_csv"])
    out["cli.write_json.self_s"] = self_s(by_name["cli.write_json"])
    out["cli.sweep.threads"] = float(len({s.thread for s in spans if s.thread != main_thread}))
    out["trace.busy_s"] = self_s(spans)
    return out


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
