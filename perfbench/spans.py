"""Spans recorded from outside the rotorwkb package.

The tracer replaces public callables at the place where the caller
looks them up (a module global or a class attribute) with a wrapper
that records one span per call: name, start, end, parent span and
thread.  Each thread keeps its own parent stack, so the members of a
threaded epsilon sweep nest under their own run() spans.  Spans stay in
memory until the operation ends; layer_metrics() reduces them.

The package's source is not modified; restore() puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time

# (module of the lookup, attribute, span name).  Span names carry the
# layer of the callee, so a layer is named after the module that
# implements it.  Each callable is wrapped where its caller finds it.
TRACE_POINTS = (
    ("rotorwkb.cli", "load_config", "config.load_config"),
    ("rotorwkb.cli", "apply_overrides", "config.apply_overrides"),
    ("rotorwkb.cli", "run", "runner.run"),
    ("rotorwkb.cli", "epsilon_sweep", "runner.epsilon_sweep"),
    ("rotorwkb.runner", "run", "runner.run"),
    ("rotorwkb.runner", "build_wavefield", "runner.build_wavefield"),
    ("rotorwkb.runner", "build_wkb_state", "runner.build_wkb_state"),
    ("rotorwkb.runner", "build_hydro_state", "runner.build_hydro_state"),
    ("rotorwkb.runner", "build_ray_bundle", "runner.build_ray_bundle"),
    ("rotorwkb.runner", "evolve_nls", "nls.evolve_nls"),
    ("rotorwkb.runner", "evolve_wkb", "hydro.evolve_wkb"),
    ("rotorwkb.runner", "evolve_hydro", "hydro.evolve_hydro"),
    ("rotorwkb.runner", "record_from_wavefield", "observables.record_from_wavefield"),
    ("rotorwkb.runner", "record_from_wkb", "observables.record_from_wkb"),
    ("rotorwkb.runner", "record_from_hydro", "observables.record_from_hydro"),
    ("rotorwkb.runner", "save_field", "snapshots.save_field"),
    ("rotorwkb.runner", "integrate_rays", "rays.integrate_rays"),
    ("rotorwkb.observables", "spectral_gradient", "core.spectral_gradient"),
    ("rotorwkb.hydro", "d1", "hydro.d1"),
    ("rotorwkb.hydro", "d2", "hydro.d2"),
    ("rotorwkb.hydro", "drift_fields", "hydro.drift_fields"),
    ("rotorwkb.rays", "integrate_ray", "rays.integrate_ray"),
    ("rotorwkb.rays", "eval_phase_general", "rays.eval_phase_general"),
    ("rotorwkb.nls:SplitStepPlan", "step", "nls.SplitStepPlan.step"),
)

HYDRO_EVOLVE = ("hydro.evolve_wkb", "hydro.evolve_hydro")
RECORD = ("observables.record_from_wavefield", "observables.record_from_wkb",
          "observables.record_from_hydro")


def _record_time(args, kwargs, result):
    return {"t": float(result.t)}


def _evolve_stride(args, kwargs, result):
    return {"stride": int(kwargs.get("observer_stride", 1))}


def _saved_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _batched_steps(args, kwargs, result):
    return {"steps": [len(traj.dense_times) - 1 for traj in result]}


# what a span keeps of its call, by span name
ATTRS = {name: _record_time for name in RECORD}
ATTRS.update({name: _evolve_stride for name in HYDRO_EVOLVE})
ATTRS["snapshots.save_field"] = _saved_bytes
ATTRS["rays.integrate_rays"] = _batched_steps


class Tracer:
    """In-memory spans with a per-thread parent stack."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str):
        original = getattr(owner, attr)
        attrs_of = ATTRS.get(name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = {"id": next(tracer._ids),
                    "parent": stack[-1]["id"] if stack else None,
                    "name": name, "thread": threading.get_ident(),
                    "start": time.perf_counter(), "end": None}
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if attrs_of is not None:
                span.update(attrs_of(args, kwargs, result))
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def install(self):
        for where, attr, name in TRACE_POINTS:
            module_name, _, class_name = where.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            self.wrap(owner, attr, name)

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


# ---------- reduction to per-layer metrics ----------

def _dur(span) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its direct children cover.

    Children run on the parent's thread inside its interval (the stack
    is per thread), so their durations never overlap.
    """
    own = {s["id"]: _dur(s) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= _dur(s)
    return own


def _steps_from_records(evolve, children) -> int:
    """Solver steps of one evolve span, from the spacing of the record
    times the program produced (0 when it recorded fewer than two)."""
    times = sorted(c["t"] for c in children if c["name"] in RECORD)
    if len(times) < 2:
        return 0
    h = (times[1] - times[0]) / evolve["stride"]
    return round((times[-1] - times[0]) / h)


def layer_metrics(spans: list[dict], wall_s: float, main_thread: int) -> dict[str, float]:
    """Per-layer numbers of one traced operation."""
    own = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    children: dict[int, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def named(*names):
        return [s for n in names for s in by_name.get(n, [])]

    def total(*names):
        return sum(_dur(s) for s in named(*names))

    def mean_ms(*names):
        found = named(*names)
        return 1e3 * total(*names) / len(found) if found else 0.0

    def own_total(*names):
        return sum(own[s["id"]] for s in named(*names))

    m: dict[str, float] = {}
    m["config.load_s"] = total("config.load_config", "config.apply_overrides")
    m["runner.build_s"] = total("runner.build_wavefield", "runner.build_wkb_state",
                                "runner.build_hydro_state", "runner.build_ray_bundle")
    m["runner.self_s"] = own_total("runner.run")

    # sweep: members are the run() calls made by the sweep's workers
    sweeps = named("runner.epsilon_sweep")
    members = named("runner.run") if sweeps else []
    m["runner.sweep.member_s"] = sum(_dur(s) for s in members)
    m["runner.sweep.ref_s"] = sum(_dur(c) for s in sweeps
                                  for c in children.get(s["id"], [])
                                  if c["name"] == "hydro.evolve_wkb")
    if members:
        workers = len({s["thread"] for s in members})
        span = max(s["end"] for s in members) - min(s["start"] for s in members)
        m["runner.sweep.parallel_eff"] = m["runner.sweep.member_s"] / (workers * span)
    else:
        m["runner.sweep.parallel_eff"] = 0.0

    m["nls.step.calls"] = len(named("nls.SplitStepPlan.step"))
    m["nls.step.ms"] = mean_ms("nls.SplitStepPlan.step")
    m["nls.evolve.self_s"] = own_total("nls.evolve_nls")

    records = named(*RECORD)
    m["observables.record.calls"] = len(records)
    m["observables.record.ms"] = mean_ms(*RECORD)
    record_ids = {s["id"] for s in records}
    grads = sum(1 for s in named("core.spectral_gradient") if s["parent"] in record_ids)
    m["core.spectral_gradient.calls_per_record"] = grads / len(records) if records else 0.0
    m["core.spectral_gradient.ms"] = mean_ms("core.spectral_gradient")

    # per-step hydro numbers over the evolve spans whose records fix a step count
    steps = 0
    march_s = 0.0
    counts = {"hydro.d1": 0, "hydro.d2": 0, "hydro.drift_fields": 0}
    for ev in named(*HYDRO_EVOLVE):
        kids = children.get(ev["id"], [])
        n = _steps_from_records(ev, kids)
        if n == 0:
            continue
        steps += n
        march_s += _dur(ev) - sum(_dur(c) for c in kids
                                  if c["name"] in RECORD or c["name"] == "snapshots.save_field")
        for c in kids:
            if c["name"] in counts:
                counts[c["name"]] += 1
    m["hydro.evolve.self_s"] = own_total(*HYDRO_EVOLVE)
    m["hydro.rk4_step.ms"] = 1e3 * march_s / steps if steps else 0.0
    m["hydro.d1.calls_per_step"] = counts["hydro.d1"] / steps if steps else 0.0
    m["hydro.d2.calls_per_step"] = counts["hydro.d2"] / steps if steps else 0.0
    m["hydro.stencil.ms"] = mean_ms("hydro.d1", "hydro.d2")
    m["hydro.drift_fields.calls_per_step"] = (counts["hydro.drift_fields"] / steps
                                              if steps else 0.0)

    saves = named("snapshots.save_field")
    m["snapshots.save.calls"] = len(saves)
    m["snapshots.save.bytes"] = sum(s["bytes"] for s in saves)
    m["snapshots.save.ms"] = mean_ms("snapshots.save_field")

    bundles = named("rays.integrate_rays")
    ray_steps = sum(sum(s["steps"]) for s in bundles)
    batched = sum(max(s["steps"]) for s in bundles)
    m["rays.integrate.ray_steps"] = ray_steps
    m["rays.integrate.us_per_step"] = (1e6 * total("rays.integrate_rays") / batched
                                       if batched else 0.0)
    shots = named("rays.eval_phase_general")
    landings = sum(1 for s in shots for c in children.get(s["id"], [])
                   if c["name"] == "rays.integrate_ray")
    m["rays.shoot.ms_per_target"] = mean_ms("rays.eval_phase_general")
    m["rays.shoot.landings_per_target"] = landings / len(shots) if shots else 0.0

    # what no span covers on the main thread: import, argument parsing, output
    roots = sum(_dur(s) for s in spans if s["parent"] is None and s["thread"] == main_thread)
    m["trace.other_frac"] = (wall_s - roots) / wall_s
    return m
