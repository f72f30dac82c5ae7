"""In-memory spans and counts recorded around the library's public calls.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span (``None`` at the top) and ``op`` identifies the benchmark
operation the span belongs to, so spans of one operation can be grouped.
Nothing is written while the benchmark runs; :meth:`Tracer.export` hands the
records back at the end.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from statistics import median


class Tracer:
    """Records nested spans and named counts, per benchmark operation."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: list[dict] = []
        self._stack: list[int] = []
        self._op = 0

    @property
    def op(self) -> int:
        """The current operation's identifier."""
        return self._op

    def new_op(self) -> int:
        """Start a new operation; later spans and counts belong to it."""
        self._op += 1
        return self._op

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self._op,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts.append({"name": name, "value": value, "op": self._op})

    def self_times(self) -> dict[int, dict[str, float]]:
        """``{op: {span name: self seconds}}``, children's time subtracted.

        Several spans of one name in one operation add up.
        """
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                child_time[record["parent"]] += record["end"] - record["start"]
        per_op: dict[int, dict[str, float]] = {}
        for index, record in enumerate(self.spans):
            own = record["end"] - record["start"] - child_time[index]
            names = per_op.setdefault(record["op"], {})
            names[record["name"]] = names.get(record["name"], 0.0) + own
        return per_op

    def median_self_time(self, name: str) -> float | None:
        """Median over the operations that entered *name* of its self time."""
        values = [
            names[name] for names in self.self_times().values() if name in names
        ]
        return median(values) if values else None

    def median_count(self, name: str) -> float | None:
        values = [record["value"] for record in self.counts if record["name"] == name]
        return median(values) if values else None

    def export(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}
