"""Per-event reference trace validator (oracle only).

This is the original event-at-a-time form of
:func:`repro.trace.validate.trace_problems`: seven passes over
``Trace.__iter__``, one dict of counters per check.  It is far too slow
for the default analysis path (one ``Event`` per row per pass), but its
logic reads straight off the rules, so the ``validator-equiv`` oracle
invariant runs both validators on every fuzzed trace and on single-row
mutants of it and demands identical problem lists, order included.
"""

from __future__ import annotations

from collections import defaultdict

from repro.trace.events import NO_OBJECT, Event, EventType, ObjectKind
from repro.trace.trace import Trace

__all__ = ["reference_trace_problems"]


def reference_trace_problems(trace: Trace) -> list[str]:
    """Return a list of human-readable structural problems (empty if OK)."""
    problems: list[str] = []
    problems += _check_thread_lifecycles(trace)
    problems += _check_lock_protocol(trace)
    problems += _check_barriers(trace)
    problems += _check_condition_variables(trace)
    problems += _check_joins(trace)
    return problems


def _events_by_thread(trace: Trace) -> dict[int, list[Event]]:
    per: dict[int, list[Event]] = defaultdict(list)
    for ev in trace:
        per[ev.tid].append(ev)
    return per


def _check_thread_lifecycles(trace: Trace) -> list[str]:
    problems = []
    per = _events_by_thread(trace)
    created = {
        ev.arg for ev in trace if ev.etype == EventType.THREAD_CREATE
    }
    for tid, evs in sorted(per.items()):
        if evs[0].etype != EventType.THREAD_START:
            problems.append(f"T{tid}: first event is {evs[0].etype.name}, expected THREAD_START")
        if evs[-1].etype != EventType.THREAD_EXIT:
            problems.append(f"T{tid}: last event is {evs[-1].etype.name}, expected THREAD_EXIT")
        starts = sum(1 for ev in evs if ev.etype == EventType.THREAD_START)
        exits = sum(1 for ev in evs if ev.etype == EventType.THREAD_EXIT)
        if starts != 1:
            problems.append(f"T{tid}: {starts} THREAD_START events, expected 1")
        if exits != 1:
            problems.append(f"T{tid}: {exits} THREAD_EXIT events, expected 1")
    for child in sorted(created):
        if child not in per:
            problems.append(f"THREAD_CREATE names T{child} which emitted no events")
    return problems


def _check_lock_protocol(trace: Trace) -> list[str]:
    problems = []
    # Per (object, thread): pending ACQUIRE awaiting OBTAIN, held count.
    pending: dict[tuple[int, int], int] = defaultdict(int)
    held: dict[tuple[int, int], int] = defaultdict(int)
    owner: dict[int, int | None] = {}  # mutex exclusivity tracking
    for ev in trace:
        if ev.obj == NO_OBJECT or ev.etype not in (
            EventType.ACQUIRE,
            EventType.OBTAIN,
            EventType.RELEASE,
        ):
            continue
        info = trace.objects.get(ev.obj)
        kind = info.kind if info is not None else ObjectKind.MUTEX
        if not kind.is_lock_like:
            problems.append(
                f"seq {ev.seq}: {ev.etype.name} on non-lock object {trace.object_name(ev.obj)}"
            )
            continue
        key = (ev.obj, ev.tid)
        name = trace.object_name(ev.obj)
        if ev.etype == EventType.ACQUIRE:
            if pending[key]:
                problems.append(f"seq {ev.seq}: T{ev.tid} double-ACQUIRE on {name}")
            pending[key] += 1
        elif ev.etype == EventType.OBTAIN:
            if not pending[key]:
                problems.append(f"seq {ev.seq}: T{ev.tid} OBTAIN without ACQUIRE on {name}")
            else:
                pending[key] -= 1
            if kind == ObjectKind.MUTEX:
                prev = owner.get(ev.obj)
                if prev is not None:
                    problems.append(
                        f"seq {ev.seq}: T{ev.tid} OBTAIN on {name} while held by T{prev}"
                    )
                owner[ev.obj] = ev.tid
            held[key] += 1
        else:  # RELEASE
            if not held[key]:
                problems.append(f"seq {ev.seq}: T{ev.tid} RELEASE without OBTAIN on {name}")
            else:
                held[key] -= 1
            if kind == ObjectKind.MUTEX and owner.get(ev.obj) == ev.tid:
                owner[ev.obj] = None
    for (obj, tid), n in held.items():
        if n:
            problems.append(f"T{tid} exited holding {trace.object_name(obj)} ({n} levels)")
    for (obj, tid), n in pending.items():
        if n:
            problems.append(f"T{tid} exited with pending ACQUIRE on {trace.object_name(obj)}")
    return problems


def _check_barriers(trace: Trace) -> list[str]:
    problems = []
    arrivals: dict[tuple[int, int], list[int]] = defaultdict(list)
    departures: dict[tuple[int, int], list[int]] = defaultdict(list)
    for ev in trace:
        if ev.etype == EventType.BARRIER_ARRIVE:
            arrivals[(ev.obj, ev.arg)].append(ev.tid)
        elif ev.etype == EventType.BARRIER_DEPART:
            departures[(ev.obj, ev.arg)].append(ev.tid)
    for key in sorted(set(arrivals) | set(departures)):
        obj, gen = key
        a, d = sorted(arrivals.get(key, [])), sorted(departures.get(key, []))
        if a != d:
            problems.append(
                f"barrier {trace.object_name(obj)} generation {gen}: "
                f"arrivals {a} != departures {d}"
            )
    return problems


def _check_condition_variables(trace: Trace) -> list[str]:
    problems = []
    blocked: dict[tuple[int, int], int] = defaultdict(int)  # (cv, tid) -> pending blocks
    thread_ids = set(trace.thread_ids)
    for ev in trace:
        if ev.etype == EventType.COND_BLOCK:
            blocked[(ev.obj, ev.tid)] += 1
        elif ev.etype == EventType.COND_WAKE:
            key = (ev.obj, ev.tid)
            if not blocked[key]:
                problems.append(
                    f"seq {ev.seq}: T{ev.tid} COND_WAKE without COND_BLOCK on "
                    f"{trace.object_name(ev.obj)}"
                )
            else:
                blocked[key] -= 1
            if ev.arg not in thread_ids:
                problems.append(
                    f"seq {ev.seq}: COND_WAKE names unknown signaller T{ev.arg}"
                )
    for (obj, tid), n in blocked.items():
        if n:
            problems.append(
                f"T{tid} exited still blocked on condition {trace.object_name(obj)}"
            )
    return problems


def _check_joins(trace: Trace) -> list[str]:
    problems = []
    exit_seq: dict[int, int] = {}
    for ev in trace:
        if ev.etype == EventType.THREAD_EXIT:
            exit_seq[ev.tid] = ev.seq
    begun: dict[tuple[int, int], int] = defaultdict(int)
    for ev in trace:
        if ev.etype == EventType.JOIN_BEGIN:
            begun[(ev.tid, ev.arg)] += 1
        elif ev.etype == EventType.JOIN_END:
            key = (ev.tid, ev.arg)
            if not begun[key]:
                problems.append(f"seq {ev.seq}: T{ev.tid} JOIN_END without JOIN_BEGIN on T{ev.arg}")
            else:
                begun[key] -= 1
            target_exit = exit_seq.get(ev.arg)
            if target_exit is None:
                problems.append(f"seq {ev.seq}: T{ev.tid} joined T{ev.arg} which never exited")
            elif target_exit > ev.seq:
                problems.append(
                    f"seq {ev.seq}: T{ev.tid} JOIN_END precedes T{ev.arg} THREAD_EXIT"
                )
    return problems
