"""In-memory span recording around calls into weekfit's layers.

A span is (name, start, end, parent, op).  The layer of a span is the part
of its name before the first dot: ``dataio.load_csv`` belongs to
``dataio``, ``bench.op`` to the harness itself.  Spans are kept in a list
while the run lasts and written out once at the end.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: object

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Tracing off: every span is the same reusable no-op context."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


class Tracer:
    """Records nested spans; ``op`` tags every span started while it is set."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.op: object = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = Span(name, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            record.end = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]



def write_jsonl(path, tracers) -> None:
    """All spans of ``tracers`` as JSON lines, ids and parents renumbered to be unique."""
    offset = 0
    with open(path, "w") as handle:
        for tracer in tracers:
            for i, s in enumerate(tracer.spans):
                handle.write(json.dumps({
                    "id": offset + i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": None if s.parent is None else offset + s.parent, "op": s.op,
                }) + "\n")
            offset += len(tracer.spans)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for child in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def layer_table(spans: list[Span]) -> list[tuple[str, int, float, float, float]]:
    """Rows of (layer, span count, total s, self s, self share of all root spans)."""
    own = self_times(spans)
    workload = sum(s.duration for s in spans if s.parent is None) or 1.0
    rows: dict[str, list] = {}
    for s, self_s in zip(spans, own):
        row = rows.setdefault(s.layer, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s.duration
        row[2] += self_s
    return [
        (layer, count, total, self_s, self_s / workload)
        for layer, (count, total, self_s) in sorted(rows.items(), key=lambda kv: -kv[1][2])
    ]
