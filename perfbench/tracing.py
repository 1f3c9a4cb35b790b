"""In-memory spans around the benchmark's own calls into the library.

A span is (name, start, end, parent): ``parent`` is the index of the
enclosing span in the same list, or -1. Spans are kept in memory while a
pass runs and written out once the run ends, so tracing adds no I/O to the
timed work. ``NullTracer`` has the same interface and records nothing; the
untraced passes that give the end-to-end numbers run through it.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()


class NullTracer:
    _no_span = nullcontext()

    def span(self, name: str) -> nullcontext:
        return self._no_span


def total_s(spans: list[list], name: str, parent: str | None = None) -> float:
    """Summed duration of the spans called ``name`` whose enclosing span is
    called ``parent`` (any parent when None). Library calls carry no spans
    of their own, so a span's duration is also its self time."""
    return sum(
        end - start
        for n, start, end, p in spans
        if n == name and (parent is None or (p >= 0 and spans[p][0] == parent))
    )


def library_s(spans: list[list]) -> float:
    """Time inside library calls: spans named ``<layer>.<function>`` rather
    than the benchmark's own ``bench.*`` spans."""
    return sum(end - start for n, start, end, _ in spans if not n.startswith("bench."))


def write_spans(path, traced: list[tuple[str, list[list]]], workload: str) -> None:
    """One JSON object per line: name, start, end, parent, workload, run_id.
    ``traced`` pairs each traced pass's run id with its spans."""
    with open(path, "w", encoding="utf-8") as fh:
        for run_id, spans in traced:
            for name, start, end, parent in spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "workload": workload, "run_id": run_id,
                }) + "\n")
