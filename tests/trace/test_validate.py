"""Each class of trace malformation must be detected, and valid traces pass.

The validator runs on every default ``analyze``, so it also has a cost
contract: on a realistic trace it must stay columnar (no per-event
Python objects) and peak below the analysis it guards.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.analyzer import analyze
from repro.errors import TraceValidationError
from repro.trace.builder import TraceBuilder
from repro.trace.events import Event, EventType, ObjectKind
from repro.trace.trace import ObjectInfo, Trace
from repro.trace.validate import trace_problems, validate_trace
from repro.workloads import get_workload


def test_valid_micro_trace_passes(micro_trace):
    validate_trace(micro_trace)  # no exception


def test_valid_handoff_passes(handoff_trace):
    assert trace_problems(handoff_trace) == []


def _trace(events, objects=None):
    return Trace.from_events(events, objects=objects or {})


LOCK = {0: ObjectInfo(obj=0, kind=ObjectKind.MUTEX, name="L")}


def _lifecycle(tid, start, end, middle=()):
    return [
        Event(seq=0, time=start, tid=tid, etype=EventType.THREAD_START),
        *middle,
        Event(seq=10_000, time=end, tid=tid, etype=EventType.THREAD_EXIT),
    ]


class TestLifecycleChecks:
    def test_missing_start(self):
        t = _trace(
            [
                Event(seq=0, time=0.0, tid=0, etype=EventType.ACQUIRE, obj=0),
                Event(seq=1, time=0.0, tid=0, etype=EventType.OBTAIN, obj=0),
                Event(seq=2, time=1.0, tid=0, etype=EventType.RELEASE, obj=0),
                Event(seq=3, time=1.0, tid=0, etype=EventType.THREAD_EXIT),
            ],
            LOCK,
        )
        assert any("expected THREAD_START" in p for p in trace_problems(t))

    def test_missing_exit(self):
        t = _trace([Event(seq=0, time=0.0, tid=0, etype=EventType.THREAD_START)])
        assert any("expected THREAD_EXIT" in p for p in trace_problems(t))

    def test_phantom_created_thread(self):
        t = _trace(
            _lifecycle(
                0, 0.0, 1.0,
                middle=[Event(seq=1, time=0.5, tid=0, etype=EventType.THREAD_CREATE, arg=7)],
            )
        )
        assert any("T7" in p and "no events" in p for p in trace_problems(t))


class TestLockChecks:
    def test_obtain_without_acquire(self):
        t = _trace(
            _lifecycle(
                0, 0.0, 2.0,
                middle=[
                    Event(seq=1, time=0.5, tid=0, etype=EventType.OBTAIN, obj=0),
                    Event(seq=2, time=1.0, tid=0, etype=EventType.RELEASE, obj=0),
                ],
            ),
            LOCK,
        )
        assert any("OBTAIN without ACQUIRE" in p for p in trace_problems(t))

    def test_release_without_obtain(self):
        t = _trace(
            _lifecycle(
                0, 0.0, 2.0,
                middle=[Event(seq=1, time=0.5, tid=0, etype=EventType.RELEASE, obj=0)],
            ),
            LOCK,
        )
        assert any("RELEASE without OBTAIN" in p for p in trace_problems(t))

    def test_exit_while_holding(self):
        t = _trace(
            _lifecycle(
                0, 0.0, 2.0,
                middle=[
                    Event(seq=1, time=0.5, tid=0, etype=EventType.ACQUIRE, obj=0),
                    Event(seq=2, time=0.5, tid=0, etype=EventType.OBTAIN, obj=0),
                ],
            ),
            LOCK,
        )
        assert any("exited holding" in p for p in trace_problems(t))

    def test_mutex_exclusivity_violation(self):
        events = [
            Event(seq=0, time=0.0, tid=0, etype=EventType.THREAD_START),
            Event(seq=1, time=0.0, tid=1, etype=EventType.THREAD_START),
            Event(seq=2, time=0.1, tid=0, etype=EventType.ACQUIRE, obj=0),
            Event(seq=3, time=0.1, tid=0, etype=EventType.OBTAIN, obj=0),
            Event(seq=4, time=0.2, tid=1, etype=EventType.ACQUIRE, obj=0),
            Event(seq=5, time=0.2, tid=1, etype=EventType.OBTAIN, obj=0),  # still held!
            Event(seq=6, time=0.3, tid=0, etype=EventType.RELEASE, obj=0),
            Event(seq=7, time=0.3, tid=1, etype=EventType.RELEASE, obj=0),
            Event(seq=8, time=0.4, tid=0, etype=EventType.THREAD_EXIT),
            Event(seq=9, time=0.4, tid=1, etype=EventType.THREAD_EXIT),
        ]
        t = _trace(events, LOCK)
        assert any("while held by" in p for p in trace_problems(t))

    def test_lock_event_on_barrier_object(self):
        objects = {0: ObjectInfo(obj=0, kind=ObjectKind.BARRIER, name="B")}
        t = _trace(
            _lifecycle(
                0, 0.0, 2.0,
                middle=[
                    Event(seq=1, time=0.5, tid=0, etype=EventType.ACQUIRE, obj=0),
                    Event(seq=2, time=0.5, tid=0, etype=EventType.OBTAIN, obj=0),
                    Event(seq=3, time=1.0, tid=0, etype=EventType.RELEASE, obj=0),
                ],
            ),
            objects,
        )
        assert any("non-lock object" in p for p in trace_problems(t))


class TestBarrierChecks:
    def test_mismatched_cohort(self):
        b = TraceBuilder()
        bar = b.barrier_obj("B")
        t0 = b.thread()
        t1 = b.thread()
        t0.start(at=0.0)
        t1.start(at=0.0)
        t0.barrier(bar, arrive=1.0, depart=2.0)
        # t1 arrives but never departs:
        t1._emit(2.0, EventType.BARRIER_ARRIVE, obj=bar, arg=0)
        t0.exit(at=3.0)
        t1.exit(at=3.0)
        trace = b.build(validate=False)
        assert any("arrivals" in p and "departures" in p for p in trace_problems(trace))


class TestCondChecks:
    def test_wake_without_block(self):
        b = TraceBuilder()
        cv = b.condition("c")
        t0 = b.thread()
        t1 = b.thread()
        t0.start(at=0.0)
        t1.start(at=0.0)
        t0.cond_wake(cv, at=1.0, by=t1)
        t0.exit(at=2.0)
        t1.exit(at=2.0)
        trace = b.build(validate=False)
        assert any("COND_WAKE without COND_BLOCK" in p for p in trace_problems(trace))

    def test_unknown_signaller(self):
        b = TraceBuilder()
        cv = b.condition("c")
        t0 = b.thread()
        t0.start(at=0.0)
        t0.cond_block(cv, at=0.5)
        t0._emit(1.0, EventType.COND_WAKE, obj=cv, arg=42)  # no thread 42
        t0.exit(at=2.0)
        trace = b.build(validate=False)
        assert any("unknown signaller" in p for p in trace_problems(trace))


class TestJoinChecks:
    def test_join_end_before_target_exit(self):
        b = TraceBuilder()
        t0 = b.thread()
        t1 = b.thread()
        t0.start(at=0.0)
        t1.start(at=0.0)
        t0.join(t1, begin=1.0, end=2.0)
        t0.exit(at=3.0)
        t1.exit(at=5.0)  # exits after the join "completed"
        trace = b.build(validate=False)
        assert any("JOIN_END precedes" in p for p in trace_problems(trace))

    def test_join_never_exited(self):
        b = TraceBuilder()
        t0 = b.thread()
        t0.start(at=0.0)
        t0._emit(1.0, EventType.JOIN_BEGIN, arg=9)
        t0._emit(2.0, EventType.JOIN_END, arg=9)
        t0.exit(at=3.0)
        trace = b.build(validate=False)
        assert any("never exited" in p for p in trace_problems(trace))


def test_unknown_event_type_is_a_problem(micro_trace):
    """A corrupt type byte (a .clt record is not checked on read) is
    reported as a problem, not raised as a ValueError from EventType."""
    records = micro_trace.records.copy()
    records["etype"][3] = 99
    t = Trace(records=records, objects=dict(micro_trace.objects))
    seq = int(records["seq"][3])
    assert trace_problems(t) == [f"seq {seq}: unknown event type 99"]
    with pytest.raises(TraceValidationError):
        analyze(t)


def test_validation_error_lists_problems():
    t = _trace([Event(seq=0, time=0.0, tid=0, etype=EventType.THREAD_START)])
    with pytest.raises(TraceValidationError) as exc_info:
        validate_trace(t)
    assert exc_info.value.problems
    assert "invalid trace" in str(exc_info.value)


@pytest.fixture(scope="module")
def radiosity_41k():
    """~41k events of task queues, barriers and condition variables (the
    benchmark's 198k-event Radiosity shape, scaled to the test budget)."""
    trace = get_workload("radiosity")(total_tasks=400).run(nthreads=8, seed=0).trace
    assert len(trace) >= 40_000
    return trace


def _traced_peak(fn) -> int:
    fn()  # warm up imports and caches
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_validation_peaks_below_analysis(radiosity_41k):
    trace = radiosity_41k
    validate_peak = _traced_peak(lambda: trace_problems(trace))
    analyze_peak = _traced_peak(lambda: analyze(trace, validate=False))
    assert validate_peak <= analyze_peak, (validate_peak, analyze_peak)


def test_validation_builds_no_per_event_objects(radiosity_41k, monkeypatch):
    """Neither a valid trace nor one with problems may be walked event
    by event: row access and ``Event`` construction are booby-trapped,
    and tracemalloc charges nothing to the per-event modules."""
    trace = radiosity_41k
    rows = np.flatnonzero(trace.records["etype"] == int(EventType.RELEASE))
    broken = Trace(
        records=np.delete(trace.records, rows[::50]),
        objects=dict(trace.objects),
        threads=dict(trace.threads),
    )

    def per_event(*args, **kwargs):
        raise AssertionError("validator touched the trace event by event")

    monkeypatch.setattr(Trace, "__iter__", per_event)
    monkeypatch.setattr(Trace, "__getitem__", per_event)
    monkeypatch.setattr("repro.trace.schema.event_from_row", per_event)
    assert trace_problems(trace) == []
    assert len(trace_problems(broken)) >= len(rows[::50])

    per_event_files = ("trace/schema.py", "trace/events.py")
    tracemalloc.start()
    try:
        trace_problems(trace)
        trace_problems(broken)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    offenders = [
        stat
        for stat in snapshot.statistics("filename")
        if stat.traceback[0].filename.replace("\\", "/").endswith(per_event_files)
    ]
    assert not offenders, offenders
