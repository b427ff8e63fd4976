"""Spans recorded by the benchmark around its own calls into each layer.

A span holds its name, start, end, parent span and op id.  Spans stay in
memory and are written out once, when the run ends.  The library itself is
not instrumented: a span covers exactly one call the benchmark makes.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; nested spans inherit the op id of their parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[tuple[int, int | None]] = []

    @contextmanager
    def span(self, name: str, op: int | None = None):
        parent, parent_op = self._open[-1] if self._open else (None, None)
        op = parent_op if op is None else op
        sid = len(self.spans)
        self.spans.append(Span(sid, name, 0.0, 0.0, parent, op))
        self._open.append((sid, op))
        start = time.perf_counter()
        try:
            yield self.spans[sid]
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[sid].start = start
            self.spans[sid].end = end

    def self_times(self) -> dict[int, float]:
        """Duration of each span minus the time its child spans cover."""
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        return {s.id: s.duration - covered[s.id] for s in self.spans}

    def module_self_s(self) -> dict[str, float]:
        """Self time summed per module, the part of a span name before its first dot."""
        out: dict[str, float] = defaultdict(float)
        selfs = self.self_times()
        for s in self.spans:
            out[s.name.split(".", 1)[0]] += selfs[s.id]
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


class NullTracer:
    """Stand-in used by untraced ops; records nothing."""

    _null = nullcontext()

    def span(self, name: str, op: int | None = None):
        return self._null
