"""Span tracing of gromovlab from outside the library.

``install`` replaces the public functions of each layer module (and the
public methods of the two certificate classes) with timing wrappers, in
every gromovlab namespace and module-level registry that holds them.
Each call becomes a span: name, unit id, parent span, start and end in
perf_counter nanoseconds.  Spans live in compact arrays until the run
ends; ``save`` writes them once.

A function captured before ``install`` (a closure, a default argument)
is not traced, so install before building oracles: ``polydisc_oracle``
and ``ball_oracle`` bind their kernel when they are built.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("cli", "core", "exact", "convex", "models", "witnesses", "verify")
CLASSES = {"convex": ("ModelDomain", "TangentHalfspaceCert")}

# per-span values read from the call's arguments
TAGS = {
    "cli.run_sample": lambda args, kw: kw["n"] if "n" in kw else args[1],
    "cli.run_sweep": lambda args, kw: len((args[0] if args else kw["config"]).grid),
    "core.estimate_delta": lambda args, kw: kw["n"] if "n" in kw else args[2],
    "witnesses.flat_witness": lambda args, kw: (args[0] if args else kw["domain"]).name,
}

ERROR_BUCKETS = {"OracleError": "exact.errors.OracleError",
                 "CertificateError": "convex.errors.CertificateError"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.unit = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.tags: dict[int, object] = {}
        self.errors: dict[str, int] = {}
        self.unit_labels: list[str] = []
        self._stack: list[int] = []
        self._unit = -1
        self._last_error: BaseException | None = None

    def begin_unit(self, label: str) -> None:
        """Later spans belong to a new unit of work with this label."""
        self._unit = len(self.unit_labels)
        self.unit_labels.append(label)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _count_error(self, exc: BaseException) -> None:
        # an exception passes through every enclosing span; count it once,
        # in the innermost one
        if exc is self._last_error:
            return
        self._last_error = exc
        bucket = ERROR_BUCKETS.get(type(exc).__name__, "errors.other")
        self.errors[bucket] = self.errors.get(bucket, 0) + 1

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        tag = TAGS.get(name)
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.unit.append(self._unit)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0)
            self.end.append(0)
            if tag is not None:
                self.tags[idx] = tag(args, kwargs)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as e:
                self._count_error(e)
                raise
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "unit": np.frombuffer(self.unit, dtype=np.int32),
            "parent": parent,
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - child,
        }

    def save(self, path: Path) -> None:
        a = self.arrays()
        np.savez(path, name=a["name"], unit=a["unit"], parent=a["parent"],
                 start=a["start"], end=a["end"], names=np.array(self.names),
                 unit_labels=np.array(self.unit_labels))


def _public_functions(mod):
    for attr, obj in vars(mod).items():
        if (not attr.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__):
            yield attr, obj


def install(tracer: Tracer) -> None:
    """Wrap every public function of the layer modules, everywhere it is
    referenced at module level."""
    mods = {layer: importlib.import_module(f"gromovlab.{layer}") for layer in LAYERS}
    replaced: dict[int, object] = {}
    for layer, mod in mods.items():
        for attr, fn in _public_functions(mod):
            replaced[id(fn)] = tracer.wrap(f"{layer}.{attr}", fn)
        for cls_name in CLASSES.get(layer, ()):
            cls = getattr(mod, cls_name)
            for attr, fn in list(vars(cls).items()):
                if not attr.startswith("_") and inspect.isfunction(fn):
                    setattr(cls, attr, tracer.wrap(f"{layer}.{cls_name}.{attr}", fn))

    # the axis oracle's kernel is a closure built per call: trace it as
    # exact.polydisc_axis
    exact = mods["exact"]
    build_axis = replaced[id(exact.polydisc_axis_oracle)]

    def polydisc_axis_oracle(n):
        oracle = build_axis(n)
        return dataclasses.replace(oracle, fn=tracer.wrap("exact.polydisc_axis", oracle.fn))

    replaced[id(exact.polydisc_axis_oracle)] = polydisc_axis_oracle

    package = [m for name, m in sys.modules.items()
               if name == "gromovlab" or name.startswith("gromovlab.")]
    for mod in package:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])
            elif isinstance(obj, dict):
                for k, v in obj.items():
                    if id(v) in replaced:
                        obj[k] = replaced[id(v)]
            elif isinstance(obj, tuple) and any(id(v) in replaced for v in obj):
                setattr(mod, attr, tuple(replaced.get(id(v), v) for v in obj))
