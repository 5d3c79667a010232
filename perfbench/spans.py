"""In-memory span recorder and the summary statistics the benchmark reports.

A span is one timed call at a layer boundary: a name, a start and an end
(``time.perf_counter`` seconds), the span that caused it and the request
it belongs to.  Spans are kept in memory and written out once, when the
run ends.  A layer's *self time* is its span's duration minus the part
of that interval its child spans cover.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

#: A tail is reported at the highest percentile with at least this many
#: samples beyond it.
TAIL_BEYOND = 10


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None


class Recorder:
    """Collects spans from any number of threads; one parent stack each."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current(self) -> int | None:
        """Id of the innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, request: str | None = None) -> int | None:
        """Record a span whose times were measured elsewhere."""
        if not self.enabled:
            return None
        with self._lock:
            sid = len(self.spans)
            self.spans.append(Span(sid, name, start, end, parent, request))
        return sid

    @contextmanager
    def span(self, name: str, request: str | None = None):
        """Time the body as a child of this thread's open span."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = self.spans[parent].request
        sid = self.add(name, time.perf_counter(), 0.0, parent, request)
        stack.append(sid)
        try:
            yield sid
        finally:
            stack.pop()
            self.spans[sid].end = time.perf_counter()

    def self_times(self) -> dict[int, float]:
        """Self time of every span, by span id."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        return {
            s.id: self_time(s.start, s.end, [(c.start, c.end) for c in children.get(s.id, [])])
            for s in self.spans
        }

    def by_name(self) -> dict[str, list[float]]:
        """Self times grouped by span name, in recording order."""
        selfs = self.self_times()
        out: dict[str, list[float]] = {}
        for s in self.spans:
            out.setdefault(s.name, []).append(selfs[s.id])
        return out

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line, with its self time."""
        selfs = self.self_times()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({**asdict(s), "self": selfs[s.id]}) + "\n")


def self_time(start: float, end: float, children: list[tuple[float, float]]) -> float:
    """``end - start`` minus the union of ``children`` clipped to it."""
    covered = 0.0
    reach = start
    for c_start, c_end in sorted(children):
        c_start, c_end = max(c_start, reach), min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            reach = c_end
    return (end - start) - covered


def tail(values: list[float]) -> tuple[float, float]:
    """The tail value and its percentile.

    The tail is the nearest-rank percentile with exactly ``TAIL_BEYOND``
    samples above it.  With at most ``2 * TAIL_BEYOND`` samples that
    percentile would sit at or below the median, so the median is
    reported instead, as percentile 50.
    """
    n = len(values)
    rank = n - TAIL_BEYOND  # 1-based rank of the tail sample
    if 2 * rank <= n:
        return statistics.median(values), 50.0
    return sorted(values)[rank - 1], 100.0 * rank / n


def summarize(values: list[float]) -> dict[str, float]:
    """Median, tail and sample count of a list of timings."""
    value, pct = tail(values)
    return {"p50": statistics.median(values), "tail": value, "tail_pct": pct, "n": len(values)}


def balanced_median(groups: dict[str, list[float]]) -> float:
    """Mean of each group's median.

    A workload that mixes two kinds of request has a bimodal latency; the
    pooled median then jumps between the modes with the number of each
    kind a run happens to complete.  Weighting the kinds equally does not.
    """
    return statistics.fmean(statistics.median(v) for v in groups.values())
