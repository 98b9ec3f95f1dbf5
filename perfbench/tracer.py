"""Spans and counts recorded around the program's public functions.

Functions are wrapped where their callers look them up (a module global or
a class attribute), so nothing under src/ changes.  Every call becomes a
span (name, start, end, parent); per-name totals of calls, inclusive time,
self time and named counts are kept as the spans close.
"""

from __future__ import annotations

import functools
import time
from array import array


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []          # [span index, time covered by children]
        self.calls: dict = {}
        self.total: dict = {}
        self.child: dict = {}
        self.counts: dict = {}

    def _id(self, name: str) -> int:
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.total[name] = 0.0
            self.child[name] = 0.0
        return got

    def span(self, name: str, fn, args, kwargs):
        """Run fn(*args, **kwargs) as one span; returns its result."""
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        frame = [idx, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        self.start.append(t0)
        self.end.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.end[idx] = t1
            self._stack.pop()
            dur = t1 - t0
            self.calls[name] += 1
            self.total[name] += dur
            self.child[name] += frame[1]
            if self._stack:
                self._stack[-1][1] += dur

    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, owner, attr: str, name, measure=None) -> None:
        """Replace owner.attr by a traced version.

        name is a span name, or a function of the call's arguments giving
        one.  measure(name, args, result) may add counts after each call.
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(*args) if callable(name) else name
            out = tracer.span(span_name, fn, args, kwargs)
            if measure is not None:
                measure(span_name, args, out)
            return out

        setattr(owner, attr, traced)

    def summary(self) -> dict:
        """{name: {calls, ms, self_ms}} over every span recorded."""
        return {n: {"calls": self.calls[n],
                    "ms": self.total[n] * 1e3,
                    "self_ms": (self.total[n] - self.child[n]) * 1e3}
                for n in self.names}

    def write_spans(self, path) -> None:
        """One tab-separated line per span: index, parent, name, start and
        end in microseconds from the first span."""
        base = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("span\tparent\tname\tstart_us\tend_us\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name_id[i]]}\t"
                         f"{(self.start[i] - base) * 1e6:.1f}\t"
                         f"{(self.end[i] - base) * 1e6:.1f}\n")
