"""In-memory span tracing of ringcover's public functions, patched from outside.

Nothing inside the package is instrumented. `Tracing` replaces every public
function of the traced modules with a wrapper that records a span (name,
start, end, parent span, request id), at every site that holds the function:
its own module and every module that imported it by name (`region_integral`
in `agents` and `sim`, `subregion_cost` in `search`, `run_scenario` in `cli`,
...). A few methods that carry the hot path or the exports are wrapped on
their classes. `remove` restores every original.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types

import numpy as np

TRACED_MODULES = ("geometry", "partition", "agents", "sim", "search", "cli")

# (module, class, method, span name). MomentTable.__init__ is the table build.
TRACED_METHODS = (
    ("geometry", "MomentTable", "__init__", "geometry.moment_table.build"),
    ("geometry", "MomentTable", "slice_moments", "geometry.slice_moments"),
    ("sim", "TrajectoryLog", "to_dict", "sim.TrajectoryLog.to_dict"),
    ("sim", "TrajectoryLog", "from_dict", "sim.TrajectoryLog.from_dict"),
)

# Percentiles tried for the tail, highest first; one is reported only when at
# least ten samples lie beyond it.
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0)
TAIL_MIN_BEYOND = 10


class Tracer:
    """Span columns kept in memory; a stack of open spans gives the parent."""

    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.requests = []
        self.request = 0
        self._open = []

    def call(self, name, fn, args, kwargs):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.requests.append(self.request)
        self.ends.append(0.0)
        self._open.append(index)
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[index] = time.perf_counter()
            self._open.pop()

    def __len__(self):
        return len(self.names)


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return traced


def _is_public_function(module, attr: str, obj) -> bool:
    if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
        return False
    # lru_cache wrappers (moment_table, radial_moment_extrema) count as functions.
    return isinstance(obj, types.FunctionType) or hasattr(obj, "cache_clear")


class Tracing:
    """Installs span wrappers on ringcover while active; `remove` undoes them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo = []

    def install(self):
        package = importlib.import_module("ringcover")
        wrappers = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"ringcover.{short}")
            for attr, obj in vars(module).items():
                if _is_public_function(module, attr, obj):
                    wrappers[id(obj)] = _wrap(self.tracer, f"{short}.{attr}", obj)
        holders = [m for name, m in sorted(sys.modules.items())
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for module in holders:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._set(module, attr, wrappers[id(obj)])
        for short, cls_name, method, span in TRACED_METHODS:
            cls = getattr(importlib.import_module(f"ringcover.{short}"), cls_name, None)
            raw = vars(cls).get(method) if cls is not None else None
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                self._set(cls, method, classmethod(_wrap(self.tracer, span, raw.__func__)))
            else:
                self._set(cls, method, _wrap(self.tracer, span, raw))

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()


def layers(tracer: Tracer) -> dict:
    """Span name -> (durations, self times) of every call, as arrays.

    Self time is a span's duration minus the durations of its direct child
    spans.
    """
    if not len(tracer):
        return {}
    names = np.array(tracer.names)
    parents = np.array(tracer.parents)
    durations = np.array(tracer.ends) - np.array(tracer.starts)
    child = np.zeros(durations.size)
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], durations[has_parent])
    self_times = durations - child
    out = {}
    for name in np.unique(names):
        mask = names == name
        out[str(name)] = (durations[mask], self_times[mask])
    return out


def parent_names(tracer: Tracer, name: str) -> list:
    """Names of the parent spans of every span called `name` ('' for roots)."""
    return [tracer.names[p] if p >= 0 else ""
            for n, p in zip(tracer.names, tracer.parents) if n == name]


def percentiles(samples: np.ndarray):
    """(p50, tail value, tail label) per the ten-samples-beyond rule.

    With fewer than 20 samples no percentile above the median has ten
    samples beyond it, so the tail is the maximum.
    """
    if samples.size == 0:
        return 0.0, 0.0, "none"
    p50 = float(np.percentile(samples, 50))
    for q in TAIL_LADDER:
        if samples.size * (1.0 - q / 100.0) >= TAIL_MIN_BEYOND:
            return p50, float(np.percentile(samples, q)), f"p{q:g}"
    return p50, float(np.max(samples)), "max"


def spans_payload(tracer: Tracer, first: int, last: int) -> dict:
    """Spans [first, last) as columns, names interned, times relative to the first."""
    table = sorted(set(tracer.names[first:last]))
    index = {name: i for i, name in enumerate(table)}
    t0 = tracer.starts[first] if last > first else 0.0
    return {
        "names": table,
        "name": [index[n] for n in tracer.names[first:last]],
        "parent": [p - first if p >= first else -1 for p in tracer.parents[first:last]],
        "request": tracer.requests[first:last],
        "start_us": [round((t - t0) * 1e6, 3) for t in tracer.starts[first:last]],
        "end_us": [round((t - t0) * 1e6, 3) for t in tracer.ends[first:last]],
    }
