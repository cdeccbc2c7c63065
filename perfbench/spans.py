"""In-memory span recorder for the traced pass.

The tracer replaces public functions of the package at the module attributes
the program looks them up through, records one span per call (name, start,
end, parent span, case) and calls the original unchanged.  Leaving the
``with`` block puts every original back.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index of the enclosing span in Tracer.spans
    case: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.case = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, targets, name, observe=None):
        """Record span `name` around every `(module, attribute)` in targets.

        `observe(counts, result)` runs after each call to count the work
        the call did, outside the span.
        """
        for module, attr in targets:
            original = getattr(module, attr)
            setattr(module, attr, self._traced(original, name, observe))
            self._patched.append((module, attr, original))

    def _traced(self, original, name, observe):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.case)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
            if observe is not None:
                observe(self.counts, result)
            return result
        return traced

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time covered by child spans."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        out: dict[str, float] = {}
        for s, t in zip(self.spans, own):
            out[s.name] = out.get(s.name, 0.0) + t
        return out

    def dump(self, path):
        """Write the spans as JSON rows [name, start, end, parent, case]."""
        rows = [[s.name, s.start, s.end, s.parent, s.case] for s in self.spans]
        path.write_text(json.dumps(rows) + "\n")
