"""Span tracer for querymind's layers, installed from outside the package.

``install`` wraps every public function and every public method of a public
class in the modules named by ``LAYERS``. Each call becomes a span on a
per-thread stack, so spans nest per thread; a span's self time is its
duration minus the durations of the spans it directly encloses. Spans are
aggregated in memory by name (calls, total time, self time) and written out
once, by ``Tracer.dump``, when the command ends.

Besides times, a few counts are computed from argument shapes at the layer
boundary:

* ``_kernels.feedback_ids``: (query, code) pairs scored.
* ``_kernels.max_bucket_sizes``: table cells counted, and the peak of the
  allocations made during the largest call so far (tracemalloc runs only
  during such a call; peak temporaries grow with the cells counted, and
  tracing every call would dominate the sweep's traced time).
* ``codespace.CodeSpace.fid_table``: a call that reached the scoring kernel
  is a table build; its time and the table's size in bytes are recorded.
"""
from __future__ import annotations

import enum
import functools
import importlib
import inspect
import json
import sys
import threading
import time
import tracemalloc

LAYERS = ("codespace", "_kernels", "strategies", "engine", "nonadaptive", "cli")

FEEDBACK_IDS = "_kernels.feedback_ids"
MAX_BUCKET_SIZES = "_kernels.max_bucket_sizes"
FID_TABLE = "codespace.CodeSpace.fid_table"


class _Frame:
    __slots__ = ("child_s", "built")

    def __init__(self) -> None:
        self.child_s = 0.0
        self.built = False


class Tracer:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {
            "feedback_ids.pairs": 0,
            "max_bucket_sizes.cells": 0,
            "max_bucket_sizes.peak_alloc_bytes": 0,
            "fid_table.build_s": 0.0,
            "fid_table.bytes": 0,
        }
        self._malloc_users = 0
        self._largest_cells = -1

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _malloc_enter(self) -> None:
        with self._lock:
            if self._malloc_users == 0:
                tracemalloc.start()
            self._malloc_users += 1

    def _malloc_exit(self) -> None:
        with self._lock:
            peak = tracemalloc.get_traced_memory()[1]
            key = "max_bucket_sizes.peak_alloc_bytes"
            self.counts[key] = max(self.counts[key], peak)
            self._malloc_users -= 1
            if self._malloc_users == 0:
                tracemalloc.stop()

    def wrap(self, name: str, fn):
        """Return fn wrapped in a span called name."""

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = self._stack()
            if name == FEEDBACK_IDS:
                for outer in stack:
                    outer.built = True
                with self._lock:
                    self.counts["feedback_ids.pairs"] += (
                        args[0].shape[0] * args[1].shape[0]
                    )
            elif name == MAX_BUCKET_SIZES:
                with self._lock:
                    self.counts["max_bucket_sizes.cells"] += args[0].size
                    traced_alloc = args[0].size > self._largest_cells
                    self._largest_cells = max(self._largest_cells, args[0].size)
                if traced_alloc:
                    self._malloc_enter()
            frame = _Frame()
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1].child_s += dur
                with self._lock:
                    agg = self.spans.setdefault(name, [0, 0.0, 0.0])
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - frame.child_s
                if name == MAX_BUCKET_SIZES and traced_alloc:
                    self._malloc_exit()
            if name == FID_TABLE and frame.built:
                with self._lock:
                    self.counts["fid_table.build_s"] += dur
                    self.counts["fid_table.bytes"] = max(
                        self.counts["fid_table.bytes"], int(result.nbytes)
                    )
            return result

        return span

    def dump(self, path: str) -> None:
        payload = {
            "spans": {
                name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.spans.items())
            },
            "counts": self.counts,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True)


def _is_traced_class(cls: type, module_name: str) -> bool:
    return (
        cls.__module__ == module_name
        and not cls.__name__.startswith("_")
        and not issubclass(cls, (enum.Enum, BaseException))
    )


def install(tracer: Tracer) -> None:
    """Wrap the layers' public functions and methods in tracer spans.

    A function imported by name into another module (``from .strategies
    import filter_consistent``) is replaced there too, so every call site
    goes through the same span.
    """
    replaced = {}
    for short in LAYERS:
        module = importlib.import_module(f"querymind.{short}")
        names_of: dict = {}
        for attr, obj in vars(module).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                names_of.setdefault(obj, []).append(attr)
            elif inspect.isclass(obj) and _is_traced_class(obj, module.__name__):
                _wrap_methods(tracer, f"{short}.{obj.__name__}", obj)
        for fn, names in names_of.items():
            # aliases (feedback_ids = feedback_ids_numpy) share one span,
            # named by the shortest alias: the dispatching name
            name = min(names, key=lambda s: (len(s), s))
            replaced[fn] = tracer.wrap(f"{short}.{name}", fn)
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "querymind" and not mod_name.startswith("querymind."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(module, attr, replaced[obj])


def _wrap_methods(tracer: Tracer, prefix: str, cls: type) -> None:
    for attr, obj in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{prefix}.{attr}"
        if isinstance(obj, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, obj.__func__)))
        elif isinstance(obj, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(name, obj.__func__)))
        elif inspect.isfunction(obj):
            setattr(cls, attr, tracer.wrap(name, obj))
