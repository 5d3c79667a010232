"""Export traces to the Chrome trace-event format (Perfetto / about:tracing).

Turns a trace (plus, optionally, its analysis) into the JSON array the
Chrome tracing UI and Perfetto load: one timeline row per thread with

* complete events (``X``) for critical sections, named after their lock;
* instant events for barrier arrivals and condition signals;
* a dedicated "critical path" row showing which thread the path runs
  through at every instant (the paper's Fig. 1 picture, interactive).

Times are exported in microseconds (the format's unit); virtual-time
traces use 1 virtual time unit = 1 ms so sub-unit critical sections
remain visible.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.core.analyzer import AnalysisResult
from repro.core.model import WaitKind
from repro.trace.trace import Trace

__all__ = ["to_chrome_trace", "write_chrome_trace"]

#: Microseconds per trace time unit (1 unit -> 1 ms keeps zooming sane).
_SCALE_US = 1000.0


def to_chrome_trace(
    trace: Trace, analysis: AnalysisResult | None = None
) -> list[dict[str, Any]]:
    """Build the trace-event list (JSON-serializable)."""
    if analysis is None:
        from repro.core.analyzer import analyze

        analysis = analyze(trace)
    events: list[dict[str, Any]] = []
    pid = 1

    for tid in trace.thread_ids:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": trace.thread_name(tid)},
            }
        )

    t0 = trace.start_time

    def us(t: float) -> float:
        return (t - t0) * _SCALE_US

    for tid, tl in analysis.timelines.items():
        for obj, holds in tl.holds.items():
            name = trace.object_name(obj)
            for h in holds:
                events.append(
                    {
                        "name": name,
                        "cat": "critical-section",
                        "ph": "X",
                        "pid": pid,
                        "tid": tid,
                        "ts": us(h.start),
                        "dur": max(0.0, (h.end - h.start) * _SCALE_US),
                        "args": {"contended": h.contended},
                    }
                )
        for w in tl.waits:
            events.append(
                {
                    "name": f"wait:{_wait_label(trace, w)}",
                    "cat": "blocked",
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "ts": us(w.start),
                    "dur": max(0.0, w.duration * _SCALE_US),
                    "args": {"waker": trace.thread_name(w.waker_tid)},
                }
            )

    # The critical path as its own row (tid -1): one slice per piece,
    # named after the thread the path runs through.
    for p in analysis.critical_path.pieces:
        if p.duration <= 0:
            continue
        events.append(
            {
                "name": f"on {trace.thread_name(p.tid)}",
                "cat": "critical-path",
                "ph": "X",
                "pid": pid,
                "tid": 10_000,
                "ts": us(p.start),
                "dur": p.duration * _SCALE_US,
            }
        )
    events.append(
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": 10_000,
            "args": {"name": "CRITICAL PATH"},
        }
    )
    return events


def _wait_label(trace: Trace, w) -> str:
    if w.kind == WaitKind.JOIN:
        return f"join {trace.thread_name(w.obj)}"
    return trace.object_name(w.obj)


def write_chrome_trace(
    trace: Trace, path: str | Path, analysis: AnalysisResult | None = None
) -> Path:
    """Write the Chrome trace JSON to ``path`` (open it in Perfetto)."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(trace, analysis), fh)
    return path
