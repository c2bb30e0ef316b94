"""In-memory spans and counters recorded around calls into the library.

A span is (name, start, end, parent index, run id); spans of one traced
operation share a run id.  Self time is a span's duration minus the time
its direct children cover.  Nothing is written until ``dump``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run_id = 0
        self._open: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def new_run(self) -> int:
        self.run_id += 1
        return self.run_id

    def durations(self, name: str, runs: set[int]) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[4] in runs]

    def totals_by_run(self) -> dict[str, dict[int, float]]:
        """Summed span duration per name and run id."""
        out: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        for name, start, end, _, run_id in self.spans:
            out[name][run_id] += end - start
        return out

    def self_times(self) -> dict[str, float]:
        """Total self time per span name over the whole trace."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child_time[i]
        return dict(out)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append([self.name, 0.0, 0.0, t._open[-1] if t._open else -1, t.run_id])
        t._open.append(self.index)
        t.spans[self.index][1] = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t.spans[self.index][2] = perf_counter()
        t._open.pop()
