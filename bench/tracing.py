"""Spans recorded by the benchmark's own code, around calls into the
program's public functions.  Nothing in ``src/`` is instrumented.

A span is ``{name, start, end, parent, request_id}``; spans are kept in
memory and written out once, when the traced run ends.  A span's self
time is its duration minus the part its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional

clock = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span, None at top level
    request_id: int


class Tracer:
    """In-memory span log for one generator thread.  Spans timed on
    other threads (service callbacks) are appended with :meth:`add`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, request_id: int = -1) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        record = Span(name, clock(), 0.0, parent, request_id)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = clock()
            self._open.pop()

    def add(self, name: str, start: float, end: float, request_id: int = -1) -> None:
        self.spans.append(Span(name, start, end, None, request_id))

    def seconds(self) -> Dict[str, float]:
        """Total duration per span name."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.end - span.start
        return totals

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name: duration minus child spans."""
        children: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] += span.end - span.start
        totals: Dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            totals[span.name] += (span.end - span.start) - children[index]
        return totals

    def durations(self, name: str) -> List[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "request_id": s.request_id,
            }
            for s in self.spans
        ]
        path.write_text(json.dumps(rows), encoding="utf-8")
