"""Outside-in tracing: spans around the public functions of every qbrackets layer.

The wrapper is installed at every module binding of a function, because the
modules import each other's names with ``from ... import``.  Every call is
counted; a span is opened only where a call crosses from one layer into
another, so calls inside a layer cost a counter increment and their time is
that layer's own.  Spans are aggregated in memory by call path within one
request (one CLI invocation), each path keeping a link to its parent, and a
layer's self time is its spans' time minus the time of their child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = (
    "arith",
    "series",
    "partitions",
    "brackets",
    "modforms",
    "zetaseries",
    "jacobi",
    "theorems",
    "cli",
)


class Tracer:
    """Counts calls and records cross-layer spans while installed."""

    def __init__(self, package: str = "qbrackets"):
        self.package = package
        self.calls: Counter[str] = Counter()
        # (request, call path) -> [calls, total seconds, seconds in child spans]
        self.spans: dict[tuple[int, tuple[str, ...]], list] = {}
        self.request = 0
        self._stack: list[list] = []  # open spans: [path, layer, start, child seconds]
        self._bound: list[tuple[object, str, object]] = []

    def install(self) -> int:
        """Wrap every public function at all its bindings; returns the binding count."""
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{self.package}.{layer}")
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(inspect.unwrap(obj))
                    and getattr(obj, "__module__", None) == module.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
        for module_name, module in list(sys.modules.items()):
            if module_name != self.package and not module_name.startswith(self.package + "."):
                continue
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])
                    self._bound.append((module, name, obj))
        return len(self._bound)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._bound):
            setattr(module, name, original)
        self._bound.clear()

    def _enter(self, qual: str, layer: str) -> None:
        stack = self._stack
        path = stack[-1][0] + (qual,) if stack else (qual,)
        stack.append([path, layer, perf_counter(), 0.0])

    def _leave(self) -> None:
        path, _, start, child = self._stack.pop()
        elapsed = perf_counter() - start
        node = self.spans.get((self.request, path))
        if node is None:
            node = self.spans[(self.request, path)] = [0, 0.0, 0.0]
        node[0] += 1
        node[1] += elapsed
        node[2] += child
        if self._stack:
            self._stack[-1][3] += elapsed

    def _iterate(self, qual: str, layer: str, iterator):
        """Each resumption of a generator from another layer is one span."""
        while True:
            self._enter(qual, layer)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._leave()
            yield item

    def _wrap(self, layer: str, name: str, fn):
        qual = f"{layer}.{name}"
        calls, stack = self.calls, self._stack
        if inspect.isgeneratorfunction(inspect.unwrap(fn)):

            def traced(*args, **kwargs):
                calls[qual] += 1
                iterator = fn(*args, **kwargs)
                if stack and stack[-1][1] == layer:
                    return iterator
                return self._iterate(qual, layer, iterator)

        else:

            def traced(*args, **kwargs):
                calls[qual] += 1
                if stack and stack[-1][1] == layer:
                    return fn(*args, **kwargs)
                self._enter(qual, layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._leave()

        return functools.wraps(fn)(traced)

    def self_seconds(self) -> dict[str, float]:
        """Per layer: time in its spans minus time in their child spans."""
        out = dict.fromkeys(LAYERS, 0.0)
        for (_, path), (_, total, child) in self.spans.items():
            out[path[-1].split(".", 1)[0]] += total - child
        return out

    def write(self, path, requests: list[tuple[str, ...]]) -> None:
        """Spans as JSON: one node per (request, call path), parents first."""
        ids: dict[tuple[int, tuple[str, ...]], int] = {}
        nodes = []
        for key in sorted(self.spans):
            request, call_path = key
            count, total, child = self.spans[key]
            ids[key] = len(nodes)
            nodes.append({
                "id": len(nodes),
                "parent": ids.get((request, call_path[:-1])),
                "request": request,
                "name": call_path[-1],
                "calls": count,
                "total_s": total,
                "self_s": total - child,
            })
        payload = {"requests": [list(argv) for argv in requests], "spans": nodes}
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=0)
