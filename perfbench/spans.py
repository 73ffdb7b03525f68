"""In-memory spans around calls into the myobridge layers.

A span is (name id, start ns, end ns, tick id): the tick id groups every
span one control tick caused, so a tick's spans share an identifier.
Spans stay in memory and are written once, after the run.

An untraced Tracer hands back the callables it is given, so the glue runs
the same code either way and the untraced run pays nothing for tracing.
"""

from __future__ import annotations

import json
import time

import numpy as np


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int]] = []
        self.tick = -1

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """Return fn, timed as span `name` when tracing."""
        if not self.enabled:
            return fn
        nid = self._id(name)
        append = self.spans.append
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args):
            t0 = clock()
            out = fn(*args)
            append((nid, t0, clock(), tracer.tick))
            return out
        return traced

    def iterate(self, name: str, iterable):
        """Iterate, timing each step of the iterator as span `name`."""
        if not self.enabled:
            return iter(iterable)
        return self._timed_iter(self._id(name), iter(iterable))

    def _timed_iter(self, nid, it):
        append = self.spans.append
        clock = time.perf_counter_ns
        while True:
            t0 = clock()
            try:
                item = next(it)
            except StopIteration:
                return
            append((nid, t0, clock(), self.tick))
            yield item

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (call count, summed duration in seconds)."""
        if not self.spans:
            return {}
        arr = np.asarray(self.spans, dtype=np.int64)
        dur = arr[:, 2] - arr[:, 1]
        counts = np.bincount(arr[:, 0], minlength=len(self.names))
        sums = np.bincount(arr[:, 0], weights=dur, minlength=len(self.names))
        return {name: (int(counts[i]), float(sums[i]) / 1e9)
                for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Write the spans as JSON: a name table and one row per span."""
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start_ns", "end_ns", "tick"],
                       "spans": self.spans}, fh, separators=(",", ":"))
