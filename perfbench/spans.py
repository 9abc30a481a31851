"""In-memory spans and counters recorded from the benchmark's side of each call.

A span has an id, a name, a start and end (seconds since the tracer was
created), the id of the span that was open when it began (its parent), and
the operation it belongs to.  Spans stay in memory until `write` dumps them
as JSON lines at the end of a run.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self._t0 = perf_counter()

    @contextmanager
    def span(self, name: str, op: int | None = None):
        parent = self._open[-1] if self._open else None
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": parent["id"] if parent else None,
            "op": parent["op"] if op is None and parent else op,
            "start": perf_counter() - self._t0,
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = perf_counter() - self._t0
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def median(self, name: str) -> float:
        """Median duration of the spans named `name`, 0.0 if none was recorded."""
        d = self.durations(name)
        return statistics.median(d) if d else 0.0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")


@contextmanager
def maybe_span(tracer: Tracer | None, name: str, op: int | None = None):
    if tracer is None:
        yield None
    else:
        with tracer.span(name, op) as rec:
            yield rec


class CountingRanker:
    """Wraps a ranker callable and counts memo hits, observed from outside.

    A call is a hit when its (terms, k) key was seen before and the ranker
    returned the very same object as last time, which is what a memoizing
    ranker does and a recomputing one cannot.
    """

    def __init__(self, ranker):
        self._ranker = ranker
        self._last: dict = {}
        self.calls = 0
        self.hits = 0

    def __call__(self, terms: list[str], k: int):
        key = (tuple(terms), k)
        result = self._ranker(terms, k)
        self.calls += 1
        if self._last.get(key) is result:
            self.hits += 1
        self._last[key] = result
        return result


def hit_rate(rankers: list[CountingRanker]) -> float:
    calls = sum(r.calls for r in rankers)
    return sum(r.hits for r in rankers) / calls if calls else 0.0

