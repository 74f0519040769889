"""In-memory span recorder for the traced run.

Spans are recorded by the benchmark around its calls into anflat's public
functions, one span per layer boundary. Each span keeps its name, start,
end, the span it was opened inside and the op it belongs to, plus the
counters measured at that boundary. Nothing is written until the run ends.
"""
from __future__ import annotations

import time
from typing import Optional


class Span:
    """A timed block, used as a context manager; counters go in `counts`.

    Written as a plain class rather than with contextlib because the
    disperser replay opens ten thousand spans per op.
    """

    __slots__ = ("name", "op", "parent", "start", "end", "counts", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, op: str, counts: dict):
        self._tracer = tracer
        self.name = name
        self.op = op
        self.counts = counts
        self.parent: Optional[int] = None
        self.start = self.end = 0.0

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.parent = tracer._open[-1] if tracer._open else None
        tracer._open.append(len(tracer.spans))
        tracer.spans.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self._tracer._open.pop()

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def span(self, name: str, op: str, **counts) -> Span:
        return Span(self, name, op, counts)

    def to_json_list(self) -> list[dict]:
        return [
            {"id": i, "name": s.name, "op": s.op, "parent": s.parent,
             "start": s.start, "end": s.end, "counts": s.counts}
            for i, s in enumerate(self.spans)
        ]

    def per_op(self) -> dict[str, dict[str, float]]:
        """For each op id, seconds and counters summed per span name.

        A counter `c` of span `name` appears as `name:c`; `name:spans`
        counts the spans.
        """
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            row = out.setdefault(s.op, {})
            row[s.name] = row.get(s.name, 0.0) + s.seconds
            row[s.name + ":spans"] = row.get(s.name + ":spans", 0) + 1
            for key, value in s.counts.items():
                row[f"{s.name}:{key}"] = row.get(f"{s.name}:{key}", 0) + value
        return out


class _NullSpan:
    """What a span is when tracing is off: no clock reads, nothing kept."""

    __slots__ = ("counts",)

    def __init__(self, counts: dict):
        self.counts = counts

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


class NullTracer:
    """Stands in for Tracer when tracing is off: the same calls, nothing timed or kept."""

    def span(self, name: str, op: str, **counts) -> _NullSpan:
        return _NullSpan(counts)


NULL_TRACER = NullTracer()
