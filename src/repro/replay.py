"""Trace-driven replay: reconstruct and re-run a traced execution.

The what-if engine (:mod:`repro.core.whatif`) predicts speedups on the
event DAG with the observed lock-acquisition order frozen.  Replay goes
further: it rebuilds each thread's *program* (compute blocks between
synchronization operations) from the trace and re-executes it on the
simulator, letting contention re-resolve — so "shrink this lock's
critical sections by 2x" produces ground truth including handoff-order
changes, not an estimate.

Reconstruction rules (per thread, events in order):

* the gap before a non-wake event is a compute block (gaps that end a
  blocked interval — contended OBTAIN, BARRIER_DEPART, COND_WAKE,
  JOIN_END — are waiting and are *not* replayed as compute);
* ACQUIRE/RELEASE map back to the primitive operations (mutex, semaphore
  or rwlock by object kind; rwlock mode from the event ``arg``);
* COND_BLOCK maps to ``cond_wait`` (the mutex is identified from the
  atomically-following RELEASE) and the instrumentation's reacquire
  events are consumed;
* THREAD_CREATE/JOIN_BEGIN map to spawn/join with remapped handles.

Supported modification: scaling the execution time spent while holding a
chosen lock (``shrink_lock``/``factor``), the paper's optimization move.

Limitations: barrier party counts must be constant across generations;
condition-variable programs replay correctly only when the rebuilt
timing preserves signal/wait pairing (true for deterministic traces from
this simulator; hand-edited traces may deadlock in replay); and
simultaneous acquisitions whose original order was decided by
zero-duration scheduling (not by timestamps) may re-resolve their race,
since zero-length compute steps leave no trace events to replay.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any

from repro.core.columnar.timelines import object_structures
from repro.core.model import ThreadTimeline
from repro.core.wakers import WakerTable
from repro.errors import AnalysisError
from repro.sim.program import Program
from repro.trace.events import Event, EventType, ObjectKind
from repro.trace.trace import Trace

__all__ = ["ReplayProgram", "reconstruct"]

# Ops the reconstructor emits: (verb, payload...)
_COMPUTE = "compute"
_ACQUIRE = "acquire"
_RELEASE = "release"
_BARRIER = "barrier"
_COND_WAIT = "cond_wait"
_COND_SIGNAL = "cond_signal"
_COND_BROADCAST = "cond_broadcast"
_SPAWN = "spawn"
_JOIN = "join"


@dataclass
class _ThreadScript:
    tid: int
    name: str
    ops: list[tuple] = field(default_factory=list)
    root: bool = True


@dataclass
class ReplayProgram:
    """A reconstructed program, ready to run (possibly modified)."""

    trace: Trace
    scripts: dict[int, _ThreadScript]

    def build(
        self,
        shrink_lock: int | str | None = None,
        factor: float = 1.0,
        cores: int | None = None,
        seed: int = 0,
        protocol: Any = None,
        scheduler: Any = None,
        priorities: dict[int | str, int] | None = None,
        preserve_name: bool = False,
    ) -> Program:
        """Materialize a :class:`Program` from the scripts.

        ``shrink_lock``/``factor`` scale compute blocks executed while
        holding the given lock (0 removes them, 0.5 halves them).

        ``protocol``/``scheduler`` re-run the reconstruction under an
        alternative lock protocol or ready-queue policy (names or
        instances; ``protocol="recorded"`` builds the identity protocol
        from this trace, pinning grants to the recorded order).
        ``priorities`` maps original tids or thread names to base
        priorities for the priority-aware policies.  ``preserve_name``
        keeps the original trace name instead of the ``replay:`` prefix,
        so identity replays render byte-identical reports.
        """
        if factor < 0:
            raise AnalysisError(f"factor must be >= 0, got {factor}")
        shrink_obj = None
        if shrink_lock is not None:
            from repro.core.whatif import resolve_lock

            shrink_obj = resolve_lock(self.trace, shrink_lock)

        recorded = isinstance(protocol, str) and protocol == "recorded"
        orig_name = self.trace.meta.get("name", "")
        prog = Program(
            cores=cores,
            seed=seed,
            name=orig_name if preserve_name else f"replay:{orig_name}",
            protocol=None if recorded else protocol,
            scheduler=scheduler,
        )
        objects: dict[int, Any] = {}
        for obj, info in self.trace.objects.items():
            if info.kind == ObjectKind.MUTEX:
                objects[obj] = prog.mutex(info.name)
            elif info.kind == ObjectKind.SEMAPHORE:
                objects[obj] = prog.semaphore(_initial_sem_value(self.trace, obj), info.name)
            elif info.kind == ObjectKind.RWLOCK:
                objects[obj] = prog.rwlock(info.name)
            elif info.kind == ObjectKind.CONDITION:
                objects[obj] = prog.condition(info.name)
            elif info.kind == ObjectKind.BARRIER:
                objects[obj] = prog.barrier(
                    _barrier_parties(self.trace, obj), info.name
                )

        if recorded:
            from repro.sim.protocols import RecordedProtocol

            obj_map = {old: new.obj for old, new in objects.items()}
            prog.set_protocol(RecordedProtocol.from_trace(self.trace, obj_map))

        priorities = priorities or {}

        def prio_of(script: _ThreadScript) -> int:
            if script.tid in priorities:
                return priorities[script.tid]
            return priorities.get(script.name, 0)

        handles: dict[int, Any] = {}

        def body(env, script: _ThreadScript):
            env.replay_tid = script.tid  # lets the recorded protocol map grants
            held: set[int] = set()
            for op in script.ops:
                verb = op[0]
                if verb == _COMPUTE:
                    duration = op[1]
                    if shrink_obj is not None and shrink_obj in held:
                        duration *= factor
                    yield env.compute(duration)
                elif verb == _ACQUIRE:
                    obj, mode = op[1], op[2]
                    target = objects[obj]
                    kind = self.trace.objects[obj].kind
                    if kind == ObjectKind.MUTEX:
                        yield env.acquire(target)
                    elif kind == ObjectKind.SEMAPHORE:
                        yield env.sem_acquire(target)
                    else:  # rwlock
                        if mode:
                            yield env.rw_acquire_write(target)
                        else:
                            yield env.rw_acquire_read(target)
                    held.add(obj)
                elif verb == _RELEASE:
                    obj, mode = op[1], op[2]
                    target = objects[obj]
                    kind = self.trace.objects[obj].kind
                    if kind == ObjectKind.MUTEX:
                        yield env.release(target)
                    elif kind == ObjectKind.SEMAPHORE:
                        yield env.sem_release(target)
                    else:
                        if mode:
                            yield env.rw_release_write(target)
                        else:
                            yield env.rw_release_read(target)
                    held.discard(obj)
                elif verb == _BARRIER:
                    yield env.barrier_wait(objects[op[1]])
                elif verb == _COND_WAIT:
                    cv, mutex = op[1], op[2]
                    held.discard(mutex)
                    yield env.cond_wait(objects[cv], objects[mutex])
                    held.add(mutex)
                elif verb == _COND_SIGNAL:
                    yield env.cond_signal(objects[op[1]])
                elif verb == _COND_BROADCAST:
                    yield env.cond_broadcast(objects[op[1]])
                elif verb == _SPAWN:
                    child_tid = op[1]
                    child = self.scripts[child_tid]
                    handle = yield env.spawn(
                        body, child, name=child.name, priority=prio_of(child)
                    )
                    handles[child_tid] = handle
                elif verb == _JOIN:
                    yield env.join(handles[op[1]])

        for tid, script in sorted(self.scripts.items()):
            if script.root:
                prog.spawn(body, script, name=script.name, priority=prio_of(script))
        return prog

    def run(self, **kwargs) -> "Any":
        """Shortcut: build and execute."""
        return self.build(**kwargs).run()


def reconstruct(
    trace: Trace,
    timelines: dict[int, ThreadTimeline] | None = None,
    wakers: WakerTable | None = None,
) -> ReplayProgram:
    """Rebuild per-thread scripts from a trace (see module docstring).

    Pass the ``timelines`` and ``wakers`` of an existing analysis of
    ``trace`` to reuse them; otherwise both are built here, without
    validating the trace.
    """
    if timelines is None or wakers is None:
        timelines, wakers = object_structures(trace)
    wake_seqs: set[int] = {
        w.wake_seq for tl in timelines.values() for w in tl.waits
    }
    per_thread: dict[int, list[Event]] = defaultdict(list)
    for ev in trace:
        per_thread[ev.tid].append(ev)

    scripts: dict[int, _ThreadScript] = {}
    for tid, events in sorted(per_thread.items()):
        scripts[tid] = _reconstruct_thread(trace, tid, events, wake_seqs)
    for child_tid in wakers.creations:
        if child_tid in scripts:
            scripts[child_tid].root = False
    return ReplayProgram(trace=trace, scripts=scripts)


def _reconstruct_thread(
    trace: Trace, tid: int, events: list[Event], wake_seqs: set[int]
) -> _ThreadScript:
    script = _ThreadScript(tid=tid, name=trace.thread_name(tid))
    ops = script.ops
    prev_time: float | None = None
    skip_reacquire_obj: int | None = None  # mutex reacquired inside cond_wait

    def emit_gap(ev: Event, is_wait_end: bool) -> None:
        nonlocal prev_time
        if prev_time is not None and not is_wait_end:
            gap = ev.time - prev_time
            if gap > 0:
                ops.append((_COMPUTE, gap))
        prev_time = ev.time

    i = 0
    while i < len(events):
        ev = events[i]
        et = ev.etype
        kind = trace.objects[ev.obj].kind if ev.obj in trace.objects else None
        if et == EventType.THREAD_START:
            prev_time = ev.time
        elif et == EventType.ACQUIRE:
            if ev.obj == skip_reacquire_obj:
                skip_reacquire_obj = None
                # Swallow the matching OBTAIN too.
                if i + 1 < len(events) and events[i + 1].etype == EventType.OBTAIN:
                    i += 1
                    prev_time = events[i].time
            else:
                emit_gap(ev, is_wait_end=False)
                ops.append((_ACQUIRE, ev.obj, ev.arg))
        elif et == EventType.OBTAIN:
            # The wait (if any) is re-created by the simulator.
            prev_time = ev.time
        elif et == EventType.RELEASE:
            # A RELEASE immediately after COND_BLOCK was synthetic (the
            # cond_wait releases internally) — detected below, so a plain
            # RELEASE here is a real one.
            emit_gap(ev, is_wait_end=False)
            ops.append((_RELEASE, ev.obj, ev.arg))
        elif et == EventType.BARRIER_ARRIVE:
            emit_gap(ev, is_wait_end=False)
            ops.append((_BARRIER, ev.obj))
        elif et == EventType.BARRIER_DEPART:
            prev_time = ev.time
        elif et == EventType.COND_BLOCK:
            emit_gap(ev, is_wait_end=False)
            # The atomically-following RELEASE identifies the mutex.
            if i + 1 >= len(events) or events[i + 1].etype != EventType.RELEASE:
                raise AnalysisError(
                    f"seq {ev.seq}: COND_BLOCK not followed by the mutex RELEASE; "
                    "cannot reconstruct cond_wait"
                )
            mutex_obj = events[i + 1].obj
            ops.append((_COND_WAIT, ev.obj, mutex_obj))
            skip_reacquire_obj = mutex_obj
            i += 1  # consume the RELEASE
            prev_time = events[i].time
        elif et == EventType.COND_WAKE:
            prev_time = ev.time
        elif et == EventType.COND_SIGNAL:
            emit_gap(ev, is_wait_end=False)
            ops.append((_COND_SIGNAL, ev.obj))
        elif et == EventType.COND_BROADCAST:
            emit_gap(ev, is_wait_end=False)
            ops.append((_COND_BROADCAST, ev.obj))
        elif et == EventType.THREAD_CREATE:
            emit_gap(ev, is_wait_end=False)
            ops.append((_SPAWN, ev.arg))
        elif et == EventType.JOIN_BEGIN:
            emit_gap(ev, is_wait_end=False)
            ops.append((_JOIN, ev.arg))
        elif et == EventType.JOIN_END:
            prev_time = ev.time
        elif et == EventType.THREAD_EXIT:
            emit_gap(ev, is_wait_end=ev.seq in wake_seqs)
        i += 1
    return script


def _barrier_parties(trace: Trace, obj: int) -> int:
    """Cohort size of a barrier (must be constant across generations)."""
    sizes: dict[int, int] = defaultdict(int)
    for ev in trace:
        if ev.obj == obj and ev.etype == EventType.BARRIER_ARRIVE:
            sizes[ev.arg] += 1
    if not sizes:
        return 1
    distinct = set(sizes.values())
    if len(distinct) > 1:
        raise AnalysisError(
            f"barrier {trace.object_name(obj)} has varying cohort sizes "
            f"{sorted(distinct)}; replay is not supported"
        )
    return distinct.pop()


def _initial_sem_value(trace: Trace, obj: int) -> int:
    """Lower bound on a semaphore's initial value from its event history."""
    value = 0
    low = 0
    for ev in trace:
        if ev.obj != obj:
            continue
        if ev.etype == EventType.OBTAIN:
            value -= 1
            low = min(low, value)
        elif ev.etype == EventType.RELEASE:
            value += 1
    return -low
