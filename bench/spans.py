"""Span tracing for the traced benchmark run, from outside the program.

`Tracer.install` replaces a function of the `concordia` package with a
wrapper that times each call.  It rebinds every reference the package holds
to the function: the defining module's attribute, the `from .x import y`
copies in other modules, and class attributes (including aliases such as
`__sub__ = __add__`).  Each call is one span whose parent is the innermost
open span.  Spans are aggregated in memory per (name, parent):

* calls and total seconds;
* self seconds, the span's duration minus the durations of its child spans;
* busy seconds per name, counting only spans with no open span of the same
  name above them, so a recursive layer is not counted twice.

A hook, `hook(tracer, args, kwargs, result)`, may record counts from a
call; it must not call traced functions.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

ROOT = "<root>"
PACKAGE = "concordia"
TABLE_ROWS = 40


class Tracer:
    def __init__(self):
        self.spans = {}                   # (name, parent) -> [calls, total_s, self_s]
        self.busy = defaultdict(float)    # name -> seconds
        self.counts = defaultdict(float)  # hook counters
        self.keys = defaultdict(set)      # hook key sets
        self._stack = [[ROOT, 0.0]]       # open spans: [name, child seconds]
        self._depth = defaultdict(int)
        self._patched = []                # (owner, attribute, original)

    def wrap(self, name, fn, hook=None):
        stack, depth, spans, busy = self._stack, self._depth, self.spans, self.busy

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                depth[name] -= 1
                parent[1] += elapsed
                rec = spans.get((name, parent[0]))
                if rec is None:
                    rec = spans[(name, parent[0])] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
                if not depth[name]:
                    busy[name] += elapsed
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self, name, module, path, hook=None):
        """Trace `module.path` (like `Poly2.__mul__`) under the given span name."""
        owner = sys.modules[module]
        for part in path.split("."):
            owner = getattr(owner, part)
        original = owner
        wrapper = self.wrap(name, original, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._rebind(mod, attr, wrapper, original)
                elif isinstance(value, type) and value.__module__ == mod_name:
                    for cattr, cvalue in list(vars(value).items()):
                        if cvalue is original:
                            self._rebind(value, cattr, wrapper, original)
        return wrapper

    def _rebind(self, owner, attr, wrapper, original):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- aggregates --------------------------------------------------------------

    def calls(self, name):
        return sum(rec[0] for (n, _), rec in self.spans.items() if n == name)

    def time_under(self, name, parent_not):
        """Seconds in spans of `name` whose parent is not `parent_not`."""
        return sum((rec[1] for (n, p), rec in self.spans.items()
                    if n == name and p != parent_not), 0.0)

    def self_seconds(self, module):
        return sum((rec[2] for (n, _), rec in self.spans.items()
                    if n.split(".", 1)[0] == module), 0.0)

    def table(self):
        """Hottest (name, parent) rows by total time, as printable lines."""
        rows = sorted(self.spans.items(), key=lambda kv: -kv[1][1])[:TABLE_ROWS]
        lines = [f"{'span':<36} {'parent':<36} {'calls':>9} {'total_s':>10} {'self_s':>10}"]
        for (name, parent), (calls, total, own) in rows:
            lines.append(f"{name:<36} {parent:<36} {calls:>9} {total:>10.4f} {own:>10.4f}")
        return lines
