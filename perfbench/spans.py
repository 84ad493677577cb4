"""Spans recorded by the benchmark around its own calls into the program.

Nothing inside the package is instrumented: each span wraps one call the
benchmark makes into a public function (or the CLI).  Spans live in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import json
from statistics import median
from time import perf_counter


class NullTracer:
    """Untraced runs: call straight through."""

    def call(self, name, fn, *args):
        return fn(*args)

    def cycle(self):
        pass


class Tracer:
    """Spans as [name, parent, phase, cycle, start, end].

    ``parent`` is the index of the enclosing span (a "cycle" span around
    one traced cycle), ``cycle`` the identifier shared by the spans of one
    workload cycle (one request mix, one pass over the small stream, or one
    set-up), ``phase`` is "setup", "run" or "probe".
    """

    def __init__(self):
        self.spans: list[list] = []
        self.phase = "setup"
        self._cycle = 0
        self._stack: list[int] = []

    def cycle(self):
        self._cycle += 1

    def call(self, name, fn, *args):
        parent = self._stack[-1] if self._stack else None
        rec = [name, parent, self.phase, self._cycle, perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args)
        finally:
            rec[5] = perf_counter()
            self._stack.pop()

    def busy(self, phase: str, combine=median) -> dict[str, tuple[float, int]]:
        """Per span name: (``combine`` over cycles of the summed span time, cycles)."""
        per: dict[str, dict[int, float]] = {}
        for name, _, ph, cyc, start, end in self.spans:
            if ph == phase:
                cycles = per.setdefault(name, {})
                cycles[cyc] = cycles.get(cyc, 0.0) + (end - start)
        return {
            name: (combine(cycles.values()), len(cycles))
            for name, cycles in per.items()
        }

    def write(self, path) -> None:
        keys = ("name", "parent", "phase", "cycle", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
