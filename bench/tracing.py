"""Span tracing for the benchmark's traced run.

The tracer wraps every public function of the traced modules, and swaps
the wrapper in for each name that binds the function in any namespace of
the package.  Calls from one module into another therefore go through the
callee's wrapper, and each call records one span: name, start, end and the
span that was open when it began.  Nothing in the traced package changes
on disk, and ``uninstall`` restores every binding.

A layer is a module; its self time is the time of its spans minus the time
of their child spans.  Spans nest strictly (one thread, calls return in
order), so the part of a span covered by its children is the sum of their
durations.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List

import numpy as np

#: the modules of ``toroharm`` whose public functions are traced, one layer each
LAYERS = ("cli", "geometry", "special_functions", "harmonics", "appell",
          "monogenics", "quadrature", "expansion")


def _q_half_grid_points(counters, name, args, kwargs, result) -> None:
    t = args[2] if len(args) > 2 else kwargs["t"]
    counters[name + ".points"] += int(np.size(t))


#: extra counters recorded at a span's end, keyed by span name
HOOKS = {"special_functions.q_half_grid": _q_half_grid_points}


class Tracer:
    """Records spans in memory; see the module docstring."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self._stack: List[int] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self._undo: List[tuple] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A wrapper of ``fn`` that records one span named ``name`` per call.

        A result with an integer ``evaluations`` field (a quadrature result)
        adds to the counter ``<name>.evaluations``.
        """
        nid = self._intern(name)
        hook = HOOKS.get(name)
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            evaluations = getattr(result, "evaluations", None)
            if isinstance(evaluations, int):
                counters[name + ".evaluations"] += evaluations
            if hook is not None:
                hook(counters, name, args, kwargs, result)
            return result

        return traced

    def run(self, name: str, fn: Callable, *args):
        """Call ``fn(*args)`` inside a span named ``name``."""
        return self.wrap(name, fn)(*args)

    def install(self, package: str = "toroharm", layers: Iterable[str] = LAYERS) -> int:
        """Wrap the public functions of ``package.<layer>`` for each layer and
        rebind them in every loaded namespace of ``package``.  Returns the
        number of functions wrapped."""
        layers = set(layers)
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None and (name == package or name.startswith(package + "."))]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            if layer not in layers:
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    wrappers.setdefault(id(obj), (obj, self.wrap(f"{layer}.{attr}", obj)))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                found = wrappers.get(id(obj))
                if found is not None and found[0] is obj:
                    setattr(mod, attr, found[1])
                    self._undo.append((mod, attr, obj))
        return len(wrappers)

    def uninstall(self) -> None:
        """Restore every binding that ``install`` replaced."""
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        self._undo.clear()

    def layer_totals(self):
        """``(calls, self_s)`` per layer (the span name up to its first dot)."""
        duration = np.array(self.end) - np.array(self.start)
        parent = np.array(self.parent, dtype=np.int64)
        children = np.zeros_like(duration)
        inner = parent >= 0
        np.add.at(children, parent[inner], duration[inner])
        layer_of = [name.partition(".")[0] for name in self.names]
        calls: Counter = Counter()
        self_s: Dict[str, float] = defaultdict(float)
        for nid, own in zip(self.name_id, (duration - children).tolist()):
            calls[layer_of[nid]] += 1
            self_s[layer_of[nid]] += own
        return calls, dict(self_s)

    def name_calls(self) -> Counter:
        """Number of spans per span name."""
        return Counter(self.names[i] for i in self.name_id)

    def dump(self, path) -> None:
        """Write all spans as JSON: a name table and one
        ``[name_id, start, end, parent]`` row per span."""
        rows = [list(r) for r in zip(self.name_id, self.start, self.end, self.parent)]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "columns": ["name_id", "start", "end", "parent"],
                       "spans": rows}, fh)
