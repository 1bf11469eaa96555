"""Layer attribution for the traced benchmark run.

``LayerProfiler`` is a ``sys.setprofile`` hook.  It keeps a stack of layers:
a call into a function defined in ``convdual/<module>.py`` pushes that
module, any other Python call (numpy, argparse, json) inherits the layer on
top, and C calls never change it.  The time between two events is charged to
the layer on top, so a layer's self time includes the numpy and builtin work
it does and excludes its calls into other layers.  Time spent inside the
hook itself is left out of every layer.

Call counts are kept per code object of the package, and the member count of
every ``family.sample`` result is summed, so counters repeat exactly on
identical inputs.

``Spans`` records per-request spans in memory for the trace file written at
exit.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter

LAYERS = ("series", "contour", "family", "duality", "specfile", "cli")
OUTSIDE = "outside"  # benchmark code and anything not called from the package


class LayerProfiler:
    def __init__(self, package_dir: str):
        self.package_dir = os.path.realpath(package_dir) + os.sep
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()  # (layer, qualified name) -> calls
        self.sampled_members = 0
        self._layer_of: dict = {}  # code object -> layer name, None outside the package
        self._stack = [OUTSIDE]
        self._last = 0

    def _layer(self, code):
        try:
            return self._layer_of[code]
        except KeyError:
            path = os.path.realpath(code.co_filename)
            layer = None
            if path.startswith(self.package_dir):
                layer = os.path.splitext(os.path.basename(path))[0]
            self._layer_of[code] = layer
            return layer

    def _hook(self, frame, event, arg):
        now = time.perf_counter_ns()
        stack = self._stack
        self.self_ns[stack[-1]] += now - self._last
        if event == "call":
            code = frame.f_code
            layer = self._layer(code)
            if layer is None:
                stack.append(stack[-1])
            else:
                stack.append(layer)
                self.calls[(layer, code.co_qualname)] += 1
        elif event == "return":
            if len(stack) > 1:
                stack.pop()
            code = frame.f_code
            if code.co_qualname == "sample" and self._layer(code) == "family" and isinstance(arg, list):
                self.sampled_members += len(arg)
        self._last = time.perf_counter_ns()

    def run(self, fn):
        """Call ``fn()`` with the hook installed; returns its result."""
        self._stack = [OUTSIDE]
        self._last = time.perf_counter_ns()
        sys.setprofile(self._hook)
        try:
            return fn()
        finally:
            sys.setprofile(None)
            self.self_ns[self._stack[-1]] += time.perf_counter_ns() - self._last

    def count(self, layer: str, *names: str) -> int:
        return sum(self.calls[(layer, n)] for n in names)


class Spans:
    """Per-request spans: (request id, name, parent name, start ns, end ns)."""

    def __init__(self):
        self.records: list[tuple] = []
        self._t0 = time.perf_counter_ns()

    def add(self, rid: int, name: str, parent, start_ns: int, end_ns: int) -> None:
        self.records.append((rid, name, parent, start_ns - self._t0, end_ns - self._t0))

    def write(self, path: str, extra: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = dict(extra)
        doc["spans"] = [
            {"request": rid, "name": name, "parent": parent, "start_ns": s, "end_ns": e}
            for rid, name, parent, s, e in self.records
        ]
        with open(path, "w") as fh:
            json.dump(doc, fh)
