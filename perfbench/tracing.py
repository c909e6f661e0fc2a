"""In-memory spans around calls into qstatwork's layers.

While a ``Tracer`` is active, each public layer function named in
``LAYERS`` is replaced, in every qstatwork module that holds a reference
to it, by a wrapper that records one span named ``<module>.<function>``.
Calls between layers (``run_sweep`` into ``run_cycle``, ``enhancement``
into ``compute_amplitudes``) therefore give nested spans.  ``run_cycle``
spans carry the schedule kind: ``dynamics.run_cycle.smooth`` or
``dynamics.run_cycle.impulse``.  Nothing under ``src/`` changes; leaving
the tracer restores every original function.
"""

from __future__ import annotations

import inspect
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from qstatwork import dynamics
from qstatwork.protocols import Impulse, Statistics

LAYERS = {
    "dynamics": ("run_cycle", "adiabaticity_witness"),
    "analytics": ("enhancement", "general_work", "compute_amplitudes",
                  "enhancement_region", "moment_f", "verify_inequalities"),
    "fermi": ("f_N", "fermi_outcoupled_work"),
    "sweeps": ("run_sweep",),
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None     # enclosing span in the same thread
    thread: int = 0
    counts: dict = field(default_factory=dict)
    error: str | None = None


def _run_cycle_counts(args, result) -> dict:
    diag = result.diagnostics
    counts = {
        "unitarity_residual": diag["unitarity_residual"],
        "trace_drift": diag["trace_drift"],
        "leakage": diag["leakage"],
    }
    if "n_steps_per_half" in diag:
        params = args["params"]
        stats = Statistics(args.get("statistics") or params.statistics)
        # the same block decomposition run_cycle propagates
        config = args.get("config") or dynamics.PropagatorConfig()
        sectors = len(dynamics._build_sectors(params, stats, config))
        counts["sector_steps"] = 2 * diag["n_steps_per_half"] * sectors
    return counts


def _moment_f_counts(args, result) -> dict:
    N, x = int(args["N"]), np.asarray(args["x"], dtype=float)
    band = (x > 0) & ((N + 1) * x <= 8.0) if N >= 8 else np.zeros(x.shape, bool)
    return {"points": int(x.size), "band_points": int(band.sum())}


def _run_sweep_counts(args, result) -> dict:
    return {"cells": result["n_cells"], "cells_failed": result["n_failed"]}


_COUNTS = {
    "dynamics.run_cycle": _run_cycle_counts,
    "analytics.moment_f": _moment_f_counts,
    "sweeps.run_sweep": _run_sweep_counts,
}


class Tracer:
    """Context manager that records a span around every layer call."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._saved = []

    def __enter__(self):
        wrappers = {}
        for mod, names in LAYERS.items():
            module = sys.modules[f"qstatwork.{mod}"]
            for fname in names:
                fn = getattr(module, fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{mod}.{fname}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "qstatwork" and not modname.startswith("qstatwork."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()
        return False

    def _wrap(self, qualname, fn):
        signature = inspect.signature(fn)
        count = _COUNTS.get(qualname)
        local = self._local
        spans = self.spans

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments if count else None
            name = qualname
            if qualname == "dynamics.run_cycle":
                name += ".impulse" if isinstance(bound["schedule"], Impulse) else ".smooth"
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(name, 0.0, parent=stack[-1] if stack else None,
                        thread=threading.get_ident())
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count:
                span.counts = count(bound, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def summarize(spans) -> dict:
    """Busy seconds, calls and summed counts per span name."""
    out = {}
    for s in spans:
        agg = out.setdefault(s.name, {"busy_s": 0.0, "calls": 0, "counts": {}, "max": {}})
        agg["busy_s"] += s.end - s.start
        agg["calls"] += 1
        for key, val in s.counts.items():
            agg["counts"][key] = agg["counts"].get(key, 0) + val
            agg["max"][key] = max(agg["max"].get(key, val), val)
    return out


def covered_s(spans) -> float:
    """Length of the union of the root spans' intervals."""
    intervals = sorted((s.start, s.end) for s in spans if s.parent is None)
    total, cur_start, cur_end = 0.0, None, None
    for a, b in intervals:
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time_s(span, spans) -> float:
    """Duration of ``span`` minus that of its direct children."""
    return (span.end - span.start) - sum(
        s.end - s.start for s in spans if s.parent is span)


def to_records(spans, origin: float) -> list:
    """JSON-ready spans: times in seconds from ``origin``, parents by index."""
    index = {id(s): i for i, s in enumerate(spans)}
    return [{
        "name": s.name,
        "start_s": s.start - origin,
        "end_s": s.end - origin,
        "parent": index.get(id(s.parent)),
        "thread": s.thread,
        **({"counts": s.counts} if s.counts else {}),
        **({"error": s.error} if s.error else {}),
    } for s in spans]
