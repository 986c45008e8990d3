"""Spans around the calls into each cozero layer, recorded from outside it.

install() wraps every public function of each layer module in a timing
wrapper; activate(True) puts the wrapper in its place, in the defining
module and in every cozero module that imported it, so calls between
layers are seen wherever they are made; activate(False) puts the plain
function back.

Spans stay in memory until the run writes them out. A span's self time is
its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# the program's modules; errors holds exception types only and does no work
LAYERS = ("numbers", "quotient", "eigen", "spectrum", "fullgraph", "cli")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        # (name index, operation, parent span or -1, start, end, dim of the first argument)
        self.spans: list[tuple | None] = []
        self.operation = -1
        self._open: list[int] = []
        # (module, attribute, plain function, wrapper)
        self._bindings: list[tuple] = []

    def install(self, package: str) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == package or name.startswith(package + ".")]
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for importer in modules:
                    for attr, value in list(vars(importer).items()):
                        if value is fn:
                            self._bindings.append((importer, attr, fn, wrapper))

    def activate(self, on: bool) -> None:
        for module, attr, fn, wrapper in self._bindings:
            setattr(module, attr, wrapper if on else fn)

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                shape = getattr(args[0], "shape", None) if args else None
                spans[span] = (index, self.operation, parent, start, end,
                               shape[0] if shape else None)

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def summarize(trace: dict, scale: list[float]) -> dict[str, dict]:
    """Per function: calls, summed self time, summed duration and largest dim.

    A span's times are multiplied by scale[its operation]."""
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for _, _, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for i, (index, operation, _, start, end, dim) in enumerate(spans):
        row = out.setdefault(trace["names"][index],
                             {"calls": 0, "self_s": 0.0, "total_s": 0.0, "max_dim": 0})
        row["calls"] += 1
        row["self_s"] += (end - start - child[i]) * scale[operation]
        row["total_s"] += (end - start) * scale[operation]
        if dim is not None:
            row["max_dim"] = max(row["max_dim"], dim)
    return out
