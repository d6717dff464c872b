"""Span tracing of jcalc's layers, installed from outside the package.

Each layer is one module of ``src/jcalc``.  ``Tracer.install`` replaces
every public function of a layer at every module binding (``jcalc.X``,
``jcalc.sweep.X``, ...) and every public method or arithmetic operator
of the layer's classes with a wrapper that records a span: name, start,
end and parent.  Self time is a span's duration minus the time of its
child spans.  ``sympy.factor_list`` is traced where ``motive`` calls it.

Spans are kept in memory (up to ``SPAN_CAP``; later spans still count
towards the totals) and written out by ``write``.
"""

from __future__ import annotations

import inspect
import json
import sys
import types
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List

LAYERS = ("polynomial", "root_data", "kac_table", "jinvariant", "truncated_ring",
          "motive", "idempotent_lab", "sweep", "cli")
OPERATORS = {"__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__", "__call__"}
SPAN_CAP = 20_000


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.layer_of: List[str] = []
        self.calls: Dict[int, int] = defaultdict(int)
        self.self_s: Dict[int, float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(float)
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.dropped = 0
        self._stack: List[List] = []    # [span index or -1, child seconds]
        self._restore: List = []
        self._wrapped: Dict[int, Callable] = {}

    # -- spans ------------------------------------------------------------

    def name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def wrap(self, fn: Callable, name: str, layer: str, on_return=None) -> Callable:
        if id(fn) in self._wrapped:
            return self._wrapped[id(fn)]
        nid = self.name_id(name, layer)
        stack, calls, self_s = self._stack, self.calls, self.self_s

        def traced(*args, **kwargs):
            frame = [self._open(nid), 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                self._close(frame[0], t0, t1)
            if on_return is not None:
                on_return(result)
            return result

        traced.__wrapped__ = fn
        self._wrapped[id(fn)] = traced
        return traced

    def _open(self, nid: int) -> int:
        """Reserve a span slot at entry, so that children can name it."""
        if len(self.kind) >= SPAN_CAP:
            self.dropped += 1
            return -1
        self.kind.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        return len(self.kind) - 1

    def _close(self, idx: int, t0: float, t1: float) -> None:
        if idx >= 0:
            self.start[idx] = t0
            self.end[idx] = t1

    def root(self, fn: Callable) -> Callable:
        """A benchmark operation as a root span, so layer spans have a parent."""
        nid = self.name_id("op", "bench")

        def run():
            frame = [self._open(nid), 0.0]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                return fn()
            finally:
                self._stack.pop()
                self._close(frame[0], t0, perf_counter())

        return run

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import jcalc
        import sympy

        hooks = {
            "sweep.run_divisibility_sweep": self._count_sweep,
            "truncated_ring.subring_closure": self._count_closure,
        }
        mods = {layer: sys.modules["jcalc." + layer] for layer in LAYERS
                if "jcalc." + layer in sys.modules}
        owners = {m.__name__: layer for layer, m in mods.items()}
        for binding in [jcalc] + list(mods.values()):
            for attr, obj in list(vars(binding).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = owners.get(obj.__module__)
                if layer is None:
                    continue
                name = "%s.%s" % (layer, obj.__name__)
                self._set(binding, attr, self.wrap(obj, name, layer, hooks.get(name)))
        for layer, module in mods.items():
            for cls in list(vars(module).values()):
                if inspect.isclass(cls) and cls.__module__ == module.__name__:
                    self._wrap_class(cls, layer)
        motive = mods.get("motive")
        if motive is not None:
            proxy = types.ModuleType("sympy")
            proxy.__dict__.update(vars(sympy))
            proxy.factor_list = self.wrap(sympy.factor_list, "motive.factor", "sympy")
            self._set(motive, "sympy", proxy)

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, val in list(vars(cls).items()):
            public = not attr.startswith("_")
            if isinstance(val, (classmethod, staticmethod)) and public:
                name = "%s.%s.%s" % (layer, cls.__name__, attr)
                self._set(cls, attr, type(val)(self.wrap(val.__func__, name, layer)))
            elif inspect.isfunction(val) and (public or attr in OPERATORS):
                short = {"__mul__": "mul", "__rmul__": "mul"}.get(attr, attr)
                name = "%s.%s.%s" % (layer, cls.__name__, short)
                self._set(cls, attr, self.wrap(val, name, layer))

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _count_sweep(self, report) -> None:
        self.counters["sweep.cases"] += report.cases
        self.counters["sweep.divisions"] += report.divisions

    def _count_closure(self, basis) -> None:
        self.counters["truncated_ring.closure_dim"] += len(basis)

    # -- results ------------------------------------------------------------

    def totals(self, name: str):
        """(calls, self seconds) summed over spans of this exact name."""
        ids = [i for i, n in enumerate(self.names) if n == name]
        return sum(self.calls[i] for i in ids), sum(self.self_s[i] for i in ids)

    def layer_totals(self, layer: str):
        ids = [i for i, lay in enumerate(self.layer_of) if lay == layer]
        return sum(self.calls[i] for i in ids), sum(self.self_s[i] for i in ids)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "layers": self.layer_of,
                "dropped": self.dropped,
                "columns": ["name", "start", "end", "parent"],
                "spans": [[k, s, e, p] for k, s, e, p in
                          zip(self.kind, self.start, self.end, self.parent)],
            }, fh)
