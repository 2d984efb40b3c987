"""Outside-in tracer for the kmz layers.

It rebinds public functions on their modules (or classes) with timing
wrappers.  kmz code calls its layers through module attributes and module
globals, which Python looks up at call time, so calls made inside kmz are
intercepted as well, and no file under ``src/`` changes.

Calls outside ``solvers.solve``, and each ``solve`` call itself, are kept as
spans (id, name, start, end, parent).  Calls below ``solve`` are only
aggregated per name into count, total and self time, so the step loop keeps
its shape.  A group's time is the wall time during which at least one of its
members is on the call stack, so nested members are not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import time

SOLVE = "solvers.solve"


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[tuple] = []          # (id, name, start, end, parent id)
        self.stats: dict[str, list] = {}      # name -> [count, total_s, self_s]
        self.group_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self._active: dict[str, int] = {}
        self._stack: list[list] = []          # [child_s, span id] per open call
        self._solve_depth = 0
        self._undo: list[tuple] = []

    # -- installation ------------------------------------------------------

    def instrument(self, targets, groups, meters):
        """Wraps each (owner, attribute, name) target.

        `groups` maps a name to the group names it belongs to; `meters` maps
        a name to a function of the call's arguments that returns counter
        increments.  Rebinding is undone by `restore`.
        """
        for owner, attr, name in targets:
            original = inspect.getattr_static(owner, attr)
            self.stats[name] = [0, 0.0, 0.0]
            for g in groups.get(name, ()):
                self.group_s.setdefault(g, 0.0)
                self._active.setdefault(g, 0)
            wrapper = self._wrap(name, original, tuple(groups.get(name, ())),
                                 meters.get(name))
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, name, fn, groups, meter):
        clock, stack, stats, active = time.perf_counter, self._stack, self.stats, self._active
        group_s, counters, spans = self.group_s, self.counters, self.spans
        is_solve = name == SOLVE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = None
            if self._solve_depth == 0:
                span_id = len(spans)
                spans.append(None)           # reserve the id; filled on return
            if is_solve:
                self._solve_depth += 1
            if meter is not None:
                for key, inc in meter(*args, **kwargs).items():
                    counters[key] = counters.get(key, 0) + inc
            for g in groups:
                active[g] += 1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                st = stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
                for g in groups:
                    active[g] -= 1
                    if active[g] == 0:
                        group_s[g] += dur
                if is_solve:
                    self._solve_depth -= 1
                if span_id is not None:
                    parent = stack[-1][1] if stack else None
                    spans[span_id] = (span_id, name, start - self.t0, end - self.t0, parent)

        return traced

    def to_dict(self) -> dict:
        return {"spans": [dict(zip(("id", "name", "start_s", "end_s", "parent"), s))
                          for s in self.spans],
                "calls": {k: {"count": c, "total_s": t, "self_s": s}
                          for k, (c, t, s) in self.stats.items()},
                "groups_s": dict(self.group_s),
                "counters": dict(self.counters)}


def public_functions(module, prefix):
    """(module, attribute, name) for each public function the module defines."""
    return [(module, attr, f"{prefix}.{attr}")
            for attr, obj in sorted(vars(module).items())
            if not attr.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__]
