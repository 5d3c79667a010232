"""Per-event reference analysis pipeline (oracle only).

This is the original event-at-a-time form of the analysis that
:func:`repro.core.analyzer.analyze` runs on numpy columns
(:mod:`repro.core.columnar`): a dict-driven waker pass, one
:class:`~repro.core.model.ThreadTimeline` per thread built from
``Event`` objects, the paper's backward walk (Fig. 2) over those
objects, and per-thread loops for the TYPE 1 / TYPE 2 metrics.  It is
far too slow for the default path — every stage touches one Python
object per event — but each stage reads straight off the paper's rules,
so the ``engine-equiv`` oracle invariant runs it next to the columnar
engine on every fuzzed trace and demands bit-identical output.

The data classes it produces (:class:`~repro.core.wakers.WakerTable`,
:class:`~repro.core.critical_path.CriticalPath`,
:class:`~repro.core.metrics.LockMetrics`, ...) are the public ones in
:mod:`repro.core`.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass

from repro.core.critical_path import CriticalPath, WalkSegment
from repro.core.metrics import LockMetrics, ThreadStats, _hold_cp_overlap
from repro.core.model import (
    CPPiece,
    HoldInterval,
    Junction,
    ThreadTimeline,
    Wait,
    WaitKind,
)
from repro.core.report import AnalysisReport
from repro.core.wakers import WakeInfo, WakerTable
from repro.errors import AnalysisError, WakerResolutionError
from repro.trace.events import Event, EventType
from repro.trace.trace import Trace

__all__ = [
    "ReferenceAnalysis",
    "backward_walk",
    "build_timelines",
    "compute_critical_path",
    "compute_metrics",
    "compute_thread_stats",
    "reference_analyze",
    "resolve_wakers",
]


@dataclass(frozen=True)
class ReferenceAnalysis:
    """Everything the reference pipeline computes for one trace."""

    critical_path: CriticalPath
    report: AnalysisReport
    timelines: dict[int, ThreadTimeline]
    wakers: WakerTable

    def render(self, n: int | None = 10) -> str:
        return self.report.render(n)


def reference_analyze(trace: Trace) -> ReferenceAnalysis:
    """Run the whole reference pipeline (no validation) on a trace."""
    wakers = resolve_wakers(trace)
    timelines = build_timelines(trace, wakers)
    cp = compute_critical_path(trace, timelines, wakers)
    report = AnalysisReport(
        name=str(trace.meta.get("name", "")),
        nthreads=len(timelines),
        duration=trace.duration,
        cp=cp,
        locks=compute_metrics(trace, timelines, cp),
        thread_stats=compute_thread_stats(timelines, cp),
    )
    return ReferenceAnalysis(
        critical_path=cp, report=report, timelines=timelines, wakers=wakers
    )


# ---------------------------------------------------------------------------
# Waker resolution (paper §IV.B; rules in :mod:`repro.core.wakers`).
# ---------------------------------------------------------------------------


def resolve_wakers(trace: Trace) -> WakerTable:
    """Resolve the waker of every wake event in one pass over the trace."""
    wakes: dict[int, WakeInfo] = {}
    creations: dict[int, WakeInfo] = {}
    last_release: dict[int, WakeInfo] = {}  # obj -> most recent RELEASE
    last_signal: dict[int, WakeInfo] = {}  # cond obj -> most recent SIGNAL/BROADCAST
    exits: dict[int, WakeInfo] = {}  # tid -> THREAD_EXIT
    last_event: dict[int, WakeInfo] = {}  # tid -> that thread's latest event

    # Pass 1: the cohort's final arrival per (barrier, generation).  Done
    # up front because hand-built traces may interleave a departure before
    # the cohort's last ARRIVE at equal timestamps.
    last_arrival: dict[tuple[int, int], WakeInfo] = {}
    for ev in trace:
        if ev.etype == EventType.BARRIER_ARRIVE:
            last_arrival[(ev.obj, ev.arg)] = WakeInfo(ev.tid, ev.time, ev.seq)

    for ev in trace:
        et = ev.etype
        here = WakeInfo(ev.tid, ev.time, ev.seq)
        if et == EventType.RELEASE:
            last_release[ev.obj] = WakeInfo(ev.tid, ev.time, ev.seq)
        elif et == EventType.OBTAIN:
            if ev.arg:  # contended acquisition: waker is the previous releaser
                rel = last_release.get(ev.obj)
                if rel is None:
                    raise WakerResolutionError(
                        f"seq {ev.seq}: contended OBTAIN on "
                        f"{trace.object_name(ev.obj)} with no preceding RELEASE"
                    )
                wakes[ev.seq] = rel
        elif et == EventType.BARRIER_DEPART:
            arr = last_arrival.get((ev.obj, ev.arg))
            if arr is None:
                raise WakerResolutionError(
                    f"seq {ev.seq}: BARRIER_DEPART on {trace.object_name(ev.obj)} "
                    f"generation {ev.arg} with no arrivals"
                )
            wakes[ev.seq] = arr
        elif et in (EventType.COND_SIGNAL, EventType.COND_BROADCAST):
            last_signal[ev.obj] = WakeInfo(ev.tid, ev.time, ev.seq)
        elif et == EventType.COND_WAKE:
            sig = last_signal.get(ev.obj)
            if sig is None or sig.waker_tid != ev.arg:
                # Hand-built traces may omit the COND_SIGNAL event; fall
                # back to the recorded signaller thread's latest event,
                # which is still causally before this wake.
                sig = last_event.get(ev.arg)
                if sig is None:
                    raise WakerResolutionError(
                        f"seq {ev.seq}: COND_WAKE signalled by T{ev.arg} "
                        "which has no prior events"
                    )
            wakes[ev.seq] = sig
        elif et == EventType.THREAD_EXIT:
            exits[ev.tid] = WakeInfo(ev.tid, ev.time, ev.seq)
        elif et == EventType.JOIN_END:
            target = exits.get(ev.arg)
            if target is None:
                raise WakerResolutionError(
                    f"seq {ev.seq}: JOIN_END on T{ev.arg} which has not exited"
                )
            wakes[ev.seq] = target
        elif et == EventType.THREAD_CREATE:
            creations[ev.arg] = here
        last_event[ev.tid] = here
    return WakerTable(wakes=wakes, creations=creations)


# ---------------------------------------------------------------------------
# Per-thread timelines: lifetime, blocked intervals, lock-hold intervals.
# ---------------------------------------------------------------------------


def build_timelines(
    trace: Trace, wakers: WakerTable | None = None
) -> dict[int, ThreadTimeline]:
    """Build every thread's timeline from a trace.

    ``wakers`` may be passed to reuse an existing resolution.
    """
    if wakers is None:
        wakers = resolve_wakers(trace)
    per_thread: dict[int, list[Event]] = defaultdict(list)
    for ev in trace:
        per_thread[ev.tid].append(ev)
    timelines: dict[int, ThreadTimeline] = {}
    for tid, events in sorted(per_thread.items()):
        timelines[tid] = _build_one(trace, tid, events, wakers)
    return timelines


def _build_one(
    trace: Trace, tid: int, events: list[Event], wakers: WakerTable
) -> ThreadTimeline:
    tl = ThreadTimeline(
        tid=tid,
        name=trace.thread_name(tid),
        start=events[0].time,
        end=events[-1].time,
    )
    creation = wakers.creations.get(tid)
    if creation is not None:
        tl.creator_tid = creation.waker_tid
        tl.create_time = creation.waker_time
        tl.create_seq = creation.waker_seq

    pending_acquire: dict[int, float] = {}  # obj -> ACQUIRE time
    open_holds: dict[int, list[tuple[float, bool, float]]] = defaultdict(list)
    pending_barrier: dict[tuple[int, int], float] = {}  # (obj, gen) -> arrive time
    pending_cond: dict[int, float] = {}  # cond obj -> block time
    pending_join: dict[int, float] = {}  # target tid -> begin time

    def add_wait(kind: WaitKind, obj: int, start: float, ev: Event) -> None:
        info = wakers.wakes.get(ev.seq)
        if info is None:
            raise AnalysisError(f"seq {ev.seq}: wake event without resolved waker")
        wait = Wait(
            tid=tid,
            kind=kind,
            obj=obj,
            start=start,
            end=ev.time,
            wake_seq=ev.seq,
            waker_tid=info.waker_tid,
            waker_time=info.waker_time,
            waker_seq=info.waker_seq,
        )
        # A wait that never actually delayed the thread must not redirect
        # the backward walk: the thread was the barrier's last arriver
        # (waker is itself), the dependency was satisfied in the past
        # (e.g. joining an already-exited thread), or — equal timestamps
        # are routine in virtual time — the handoff was instantaneous.
        if wait.duration == 0:
            return
        tl.waits.append(wait)

    for ev in events:
        et = ev.etype
        if et == EventType.ACQUIRE:
            pending_acquire[ev.obj] = ev.time
        elif et == EventType.OBTAIN:
            acquire_time = pending_acquire.pop(ev.obj, ev.time)
            if ev.arg:  # contended: this is a wake event
                add_wait(WaitKind.LOCK, ev.obj, acquire_time, ev)
            open_holds[ev.obj].append((ev.time, bool(ev.arg), acquire_time))
        elif et == EventType.RELEASE:
            stack = open_holds[ev.obj]
            if not stack:
                raise AnalysisError(
                    f"seq {ev.seq}: T{tid} RELEASE on "
                    f"{trace.object_name(ev.obj)} without OBTAIN"
                )
            obtain_time, contended, acquire_time = stack.pop()
            tl.holds.setdefault(ev.obj, []).append(
                HoldInterval(
                    tid=tid,
                    obj=ev.obj,
                    start=obtain_time,
                    end=ev.time,
                    contended=contended,
                    acquire_time=acquire_time,
                )
            )
        elif et == EventType.BARRIER_ARRIVE:
            pending_barrier[(ev.obj, ev.arg)] = ev.time
        elif et == EventType.BARRIER_DEPART:
            arrive = pending_barrier.pop((ev.obj, ev.arg), ev.time)
            add_wait(WaitKind.BARRIER, ev.obj, arrive, ev)
        elif et == EventType.COND_BLOCK:
            pending_cond[ev.obj] = ev.time
        elif et == EventType.COND_WAKE:
            block = pending_cond.pop(ev.obj, ev.time)
            add_wait(WaitKind.CONDITION, ev.obj, block, ev)
        elif et == EventType.JOIN_BEGIN:
            pending_join[ev.arg] = ev.time
        elif et == EventType.JOIN_END:
            begin = pending_join.pop(ev.arg, ev.time)
            add_wait(WaitKind.JOIN, ev.arg, begin, ev)

    # Unreleased holds extend to thread end (the validator flags these,
    # but the analyzer stays usable on truncated traces).
    for obj, stack in open_holds.items():
        for obtain_time, contended, acquire_time in stack:
            tl.holds.setdefault(obj, []).append(
                HoldInterval(
                    tid=tid,
                    obj=obj,
                    start=obtain_time,
                    end=tl.end,
                    contended=contended,
                    acquire_time=acquire_time,
                )
            )
    for hold_list in tl.holds.values():
        hold_list.sort(key=lambda h: (h.start, h.end))
    tl.waits.sort(key=lambda w: w.wake_seq)
    return tl


# ---------------------------------------------------------------------------
# The backward critical-path walk (paper Fig. 2).
# ---------------------------------------------------------------------------


def backward_walk(trace: Trace, timelines: dict[int, ThreadTimeline]) -> WalkSegment:
    """The paper's backward walk over a whole trace.

    Starts at the last event and, whenever the cursor follows a blocked
    interval, jumps to the waker; otherwise it keeps walking the same
    thread, back to a root thread's start.
    """
    # Pre-extract each thread's wake-seq array for bisection.
    wake_seqs: dict[int, list[int]] = {
        tid: [w.wake_seq for w in tl.waits] for tid, tl in timelines.items()
    }

    last = trace[len(trace) - 1]
    cur_tid, cur_time, cur_seq = last.tid, last.time, last.seq
    pieces: list[CPPiece] = []
    junctions: list[Junction] = []
    waits: list[Wait] = []

    # For traces produced by the simulator or the instrumentation layer a
    # waker's event always precedes the wake, so the cursor seq strictly
    # decreases and the walk visits at most one piece per wake event.  The
    # guard protects against hand-built traces that violate that ordering.
    max_steps = len(trace) + len(timelines) + 1

    while True:
        if len(pieces) > max_steps:
            raise AnalysisError(
                "backward walk did not terminate: trace has wake events "
                "recorded before their wakers"
            )
        tl = timelines[cur_tid]
        idx = bisect_right(wake_seqs[cur_tid], cur_seq) - 1
        if idx >= 0:
            w = tl.waits[idx]
            pieces.append(CPPiece(tid=cur_tid, start=w.end, end=cur_time))
            junctions.append(
                Junction(
                    time=w.end,
                    from_tid=w.waker_tid,
                    to_tid=cur_tid,
                    kind=w.kind,
                    obj=w.obj,
                )
            )
            waits.append(w)
            cur_tid, cur_time, cur_seq = w.waker_tid, w.waker_time, w.waker_seq
        else:
            pieces.append(CPPiece(tid=cur_tid, start=tl.start, end=cur_time))
            if tl.creator_tid is not None:
                junctions.append(
                    Junction(
                        time=tl.start,
                        from_tid=tl.creator_tid,
                        to_tid=cur_tid,
                        kind=None,
                        obj=-1,
                    )
                )
                cur_tid, cur_time, cur_seq = (
                    tl.creator_tid, tl.create_time, tl.create_seq
                )
            else:
                break

    pieces.reverse()
    junctions.reverse()
    waits.reverse()
    return WalkSegment(pieces=pieces, junctions=junctions, waits=waits)


def compute_critical_path(
    trace: Trace,
    timelines: dict[int, ThreadTimeline] | None = None,
    wakers: WakerTable | None = None,
) -> CriticalPath:
    """Run the backward walk and return the critical path.

    ``timelines`` may be passed to reuse a previous
    :func:`build_timelines` result.
    """
    if len(trace) == 0:
        return CriticalPath(pieces=[], junctions=[], waits=[], trace_duration=0.0)
    if timelines is None:
        timelines = build_timelines(trace, wakers)
    walk = backward_walk(trace, timelines)
    return CriticalPath(
        pieces=walk.pieces,
        junctions=walk.junctions,
        waits=walk.waits,
        trace_duration=trace.duration,
    )


# ---------------------------------------------------------------------------
# TYPE 1 / TYPE 2 metrics (definitions in :mod:`repro.core.metrics`).
# ---------------------------------------------------------------------------


def compute_metrics(
    trace: Trace,
    timelines: dict[int, ThreadTimeline],
    cp: CriticalPath,
) -> dict[int, LockMetrics]:
    """Compute :class:`LockMetrics` for every lock-like object in the trace."""
    nthreads = max(1, len(timelines))
    cp_length = cp.length
    pieces_by_thread = cp.pieces_by_thread()
    for plist in pieces_by_thread.values():
        plist.sort(key=lambda p: (p.start, p.end))

    out: dict[int, LockMetrics] = {}
    for info in trace.locks:
        obj = info.obj
        cp_hold = 0.0
        inv_on_cp = 0
        cont_on_cp = 0
        total_inv = 0
        cont_inv = 0
        total_wait = 0.0
        total_hold = 0.0
        wait_fracs = 0.0
        hold_fracs = 0.0
        for tid, tl in timelines.items():
            holds = tl.holds.get(obj, [])
            t_hold = sum(h.duration for h in holds)
            t_wait = sum(h.wait for h in holds)
            total_inv += len(holds)
            cont_inv += sum(1 for h in holds if h.contended)
            total_hold += t_hold
            total_wait += t_wait
            if tl.lifetime > 0:
                wait_fracs += t_wait / tl.lifetime
                hold_fracs += t_hold / tl.lifetime
            pieces = pieces_by_thread.get(tid)
            if pieces and holds:
                o, n, c = _hold_cp_overlap(holds, pieces)
                cp_hold += o
                inv_on_cp += n
                cont_on_cp += c
        avg_inv = total_inv / nthreads
        avg_hold_frac = hold_fracs / nthreads
        cp_frac = cp_hold / cp_length if cp_length > 0 else 0.0
        out[obj] = LockMetrics(
            obj=obj,
            name=info.display_name,
            kind=info.kind,
            cp_hold_time=cp_hold,
            cp_fraction=cp_frac,
            invocations_on_cp=inv_on_cp,
            contended_on_cp=cont_on_cp,
            invocation_increase=(inv_on_cp / avg_inv) if avg_inv > 0 else 0.0,
            size_increase=(cp_frac / avg_hold_frac) if avg_hold_frac > 0 else 0.0,
            cp_crossings=cp.junction_count(obj, WaitKind.LOCK),
            total_invocations=total_inv,
            contended_invocations=cont_inv,
            avg_invocations=avg_inv,
            total_wait_time=total_wait,
            avg_wait_fraction=wait_fracs / nthreads,
            total_hold_time=total_hold,
            avg_hold_fraction=avg_hold_frac,
        )
    return out


def compute_thread_stats(
    timelines: dict[int, ThreadTimeline], cp: CriticalPath
) -> list[ThreadStats]:
    """Per-thread breakdown: execution vs each kind of blocking, CP share."""
    cp_by_tid: dict[int, float] = {}
    for p in cp.pieces:
        cp_by_tid[p.tid] = cp_by_tid.get(p.tid, 0.0) + p.duration
    stats = []
    for tid, tl in sorted(timelines.items()):
        by_kind = tl.wait_time_by_kind()
        total_wait = sum(by_kind.values())
        stats.append(
            ThreadStats(
                tid=tid,
                name=tl.name,
                lifetime=tl.lifetime,
                exec_time=tl.lifetime - total_wait,
                lock_wait=by_kind.get(WaitKind.LOCK, 0.0),
                barrier_wait=by_kind.get(WaitKind.BARRIER, 0.0),
                cond_wait=by_kind.get(WaitKind.CONDITION, 0.0),
                join_wait=by_kind.get(WaitKind.JOIN, 0.0),
                cp_time=cp_by_tid.get(tid, 0.0),
            )
        )
    return stats
