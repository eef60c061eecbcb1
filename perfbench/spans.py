"""Spans and counts recorded from outside the library.

A span is one call into a layer: name, start, end and the span that was open
when it started. A layer's self time is its span's duration minus the time
its child spans cover. Spans are kept in memory and summarised once, after
the run.

Some inner calls cannot be wrapped from outside (``certify`` reaches
``realize`` and ``realize`` reaches ``enumerate_cosets`` through names bound
at import time). For those the traced run times the inner call on its own
input and moves that time from the outer layer to the inner one with
``move``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        # one entry per span: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._moved: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        entry = [name, time.perf_counter(), None, parent]
        self.spans.append(entry)
        self._stack.append(idx)
        try:
            yield
        finally:
            entry[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def move(self, source: str, target: str, seconds: float) -> None:
        """Attribute ``seconds`` of ``source``'s self time to ``target``."""
        self._moved[source] -= seconds
        self._moved[target] += seconds

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        Works for module functions called through the module's globals and
        for methods looked up on their class; ``unwrap_all`` restores them.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def top_level_seconds(self, start: float, end: float) -> float:
        """Time inside [start, end] covered by spans that have no parent."""
        return sum(min(e, end) - max(s, start)
                   for _, s, e, parent in self.spans
                   if parent == -1 and e is not None and e > start and s < end)

    def self_times(self) -> dict[str, float]:
        child_time = [0.0] * len(self.spans)
        for _, s, e, parent in self.spans:
            if parent >= 0:
                child_time[parent] += e - s
        out: dict[str, float] = defaultdict(float)
        for (name, s, e, _), covered in zip(self.spans, child_time):
            out[name] += (e - s) - covered
        for name, seconds in self._moved.items():
            out[name] += seconds
        return dict(out)
