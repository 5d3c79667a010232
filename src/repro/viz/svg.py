"""Standalone SVG timeline rendering (paper Figs. 1 & 7 as vector art).

No dependencies: emits a self-contained SVG with one lane per thread,
colored critical-section boxes (legend included), hatched blocked
intervals, and a red overlay marking the critical path — the publication
view of :func:`repro.viz.timeline.render_timeline`.
"""

from __future__ import annotations

from pathlib import Path
from xml.sax.saxutils import escape

from repro.core.analyzer import AnalysisResult, analyze
from repro.trace.trace import Trace

__all__ = ["render_svg", "write_svg"]

# Color-blind-safe categorical palette (Okabe-Ito).
_PALETTE = [
    "#0072B2", "#E69F00", "#009E73", "#CC79A7",
    "#56B4E9", "#D55E00", "#F0E442", "#999999",
]
_CP_COLOR = "#D32F2F"

_LANE_H = 26
_LANE_GAP = 8
_MARGIN_L = 110
_MARGIN_T = 30
_LEGEND_H = 26


def render_svg(
    trace: Trace,
    analysis: AnalysisResult | None = None,
    width: int = 900,
) -> str:
    """Render the execution as an SVG string."""
    if analysis is None:
        analysis = analyze(trace)
    duration = trace.duration
    if duration <= 0:
        return '<svg xmlns="http://www.w3.org/2000/svg" width="10" height="10"/>'
    t0 = trace.start_time
    plot_w = width - _MARGIN_L - 20
    scale = plot_w / duration

    def x(t: float) -> float:
        return _MARGIN_L + (t - t0) * scale

    tids = sorted(analysis.timelines)
    locks_ranked = [
        m for m in analysis.report.top_locks() if m.total_invocations > 0
    ]
    color_of = {
        m.obj: _PALETTE[i % len(_PALETTE)] for i, m in enumerate(locks_ranked)
    }

    height = (
        _MARGIN_T
        + len(tids) * (_LANE_H + _LANE_GAP)
        + _LANE_H  # critical-path lane
        + _LEGEND_H
        + 20
    )
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="sans-serif" font-size="11">',
        f'<text x="{_MARGIN_L}" y="16">execution 0 .. {duration:.4g} '
        f"(critical path in red)</text>",
    ]

    lane_y = {tid: _MARGIN_T + i * (_LANE_H + _LANE_GAP) for i, tid in enumerate(tids)}
    for tid in tids:
        tl = analysis.timelines[tid]
        y = lane_y[tid]
        parts.append(
            f'<text x="4" y="{y + _LANE_H * 0.65:.1f}">{escape(tl.name)}</text>'
        )
        # Lifetime baseline.
        parts.append(
            f'<rect x="{x(tl.start):.1f}" y="{y + _LANE_H * 0.4:.1f}" '
            f'width="{max(1.0, (tl.end - tl.start) * scale):.1f}" '
            f'height="{_LANE_H * 0.2:.1f}" fill="#E0E0E0"/>'
        )
        # Blocked intervals.
        for w in tl.waits:
            if w.duration <= 0:
                continue
            parts.append(
                f'<rect x="{x(w.start):.1f}" y="{y + _LANE_H * 0.3:.1f}" '
                f'width="{w.duration * scale:.1f}" height="{_LANE_H * 0.4:.1f}" '
                f'fill="#BDBDBD" opacity="0.7">'
                f"<title>blocked on {escape(trace.object_name(w.obj))}</title></rect>"
            )
        # Critical sections.
        for obj, holds in tl.holds.items():
            color = color_of.get(obj, "#777777")
            name = escape(trace.object_name(obj))
            for h in holds:
                parts.append(
                    f'<rect x="{x(h.start):.1f}" y="{y:.1f}" '
                    f'width="{max(1.0, h.duration * scale):.1f}" '
                    f'height="{_LANE_H * 0.8:.1f}" fill="{color}" rx="2">'
                    f"<title>{name} [{h.start:.4g}, {h.end:.4g}]</title></rect>"
                )

    # Critical-path lane + per-thread overlay.
    cp_y = _MARGIN_T + len(tids) * (_LANE_H + _LANE_GAP)
    parts.append(
        f'<text x="4" y="{cp_y + _LANE_H * 0.65:.1f}" fill="{_CP_COLOR}">'
        "critical path</text>"
    )
    for p in analysis.critical_path.pieces:
        if p.duration <= 0:
            continue
        parts.append(
            f'<rect x="{x(p.start):.1f}" y="{cp_y:.1f}" '
            f'width="{max(1.0, p.duration * scale):.1f}" '
            f'height="{_LANE_H * 0.5:.1f}" fill="{_CP_COLOR}">'
            f"<title>on {escape(trace.thread_name(p.tid))}</title></rect>"
        )
        y = lane_y.get(p.tid)
        if y is not None:
            parts.append(
                f'<rect x="{x(p.start):.1f}" y="{y - 3:.1f}" '
                f'width="{max(1.0, p.duration * scale):.1f}" height="2.5" '
                f'fill="{_CP_COLOR}"/>'
            )

    # Legend.
    lx = _MARGIN_L
    ly = cp_y + _LANE_H + 14
    for m in locks_ranked[: len(_PALETTE)]:
        color = color_of[m.obj]
        parts.append(f'<rect x="{lx}" y="{ly - 9}" width="10" height="10" fill="{color}"/>')
        label = escape(m.name)
        parts.append(f'<text x="{lx + 14}" y="{ly}">{label}</text>')
        lx += 14 + 7 * len(m.name) + 18
    parts.append("</svg>")
    return "".join(parts)


def write_svg(
    trace: Trace,
    path: str | Path,
    analysis: AnalysisResult | None = None,
    width: int = 900,
) -> Path:
    """Write the SVG rendering to ``path``."""
    path = Path(path)
    path.write_text(render_svg(trace, analysis, width), encoding="utf-8")
    return path
