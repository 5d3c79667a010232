"""ASCII execution timelines (paper Figs. 1 and 7).

One row per thread, one character per time bucket:

* a letter — thread holds the lock assigned that letter (legend below
  the chart); uppercase marks buckets lying on the critical path;
* ``=`` — executing outside critical sections (``#`` when on the
  critical path);
* ``.`` — blocked;
* space — before the thread started / after it exited.

The critical-path overlay makes the paper's core visual argument
directly readable: a heavily idle lock (lots of ``.``) may be entirely
off the path, while the path runs straight through uncontended critical
sections.
"""

from __future__ import annotations

import string

from repro.core.analyzer import AnalysisResult, analyze
from repro.trace.trace import Trace

__all__ = ["render_timeline"]


def render_timeline(
    trace: Trace,
    analysis: AnalysisResult | None = None,
    width: int = 100,
    show_cp: bool = True,
) -> str:
    """Render the execution as an ASCII Gantt chart with CP overlay."""
    if analysis is None:
        analysis = analyze(trace)
    duration = trace.duration
    if duration <= 0 or width < 2:
        return "(empty trace)"
    t0 = trace.start_time
    dt = duration / width

    # Assign letters to locks in CP-importance order.
    letters = string.ascii_lowercase
    locks_ranked = [m for m in analysis.report.top_locks() if m.total_invocations > 0]
    letter_of = {m.obj: letters[i % len(letters)] for i, m in enumerate(locks_ranked)}

    cp_by_tid = analysis.critical_path.pieces_by_thread()

    lines = []
    name_w = max((len(tl.name) for tl in analysis.timelines.values()), default=2)
    for tid in sorted(analysis.timelines):
        tl = analysis.timelines[tid]
        row = []
        pieces = cp_by_tid.get(tid, [])
        for k in range(width):
            b0 = t0 + k * dt
            b1 = b0 + dt
            mid0, mid1 = max(b0, tl.start), min(b1, tl.end)
            if mid1 <= mid0 and not (tl.start == tl.end == b0):
                row.append(" ")
                continue
            ch = _classify(tl, letter_of, b0, b1)
            if show_cp and any(p.start < b1 and p.end > b0 and p.duration > 0 for p in pieces):
                ch = ch.upper() if ch.isalpha() else ("#" if ch == "=" else ch)
            row.append(ch)
        lines.append(f"{tl.name.rjust(name_w)} |{''.join(row)}|")

    legend = "  ".join(
        f"{letter_of[m.obj]}={m.name}" for m in locks_ranked if m.obj in letter_of
    )
    header = (
        f"time 0 .. {duration:.4g} ({dt:.4g}/char); "
        "UPPERCASE/# = on critical path, . = blocked"
    )
    out = [header] + lines
    if legend:
        out.append("locks: " + legend)
    return "\n".join(out)


def _classify(tl, letter_of: dict[int, str], b0: float, b1: float) -> str:
    """Dominant state of thread ``tl`` within bucket [b0, b1)."""
    hold_best = 0.0
    hold_letter = ""
    for obj, holds in tl.holds.items():
        for h in holds:
            ov = min(h.end, b1) - max(h.start, b0)
            if ov > hold_best:
                hold_best = ov
                hold_letter = letter_of.get(obj, "?")
    wait_time = 0.0
    for w in tl.waits:
        ov = min(w.end, b1) - max(w.start, b0)
        if ov > 0:
            wait_time += ov
    span = min(tl.end, b1) - max(tl.start, b0)
    if hold_best > 0 and hold_best >= wait_time:
        return hold_letter
    if wait_time > span / 2:
        return "."
    return "="
