"""Backward-walk critical path: paper examples and invariants."""

import pytest

from repro.check.refengine import compute_critical_path
from repro.core.model import WaitKind
from repro.trace.builder import TraceBuilder

from tests.conftest import make_micro_program


def test_handoff_path(handoff_trace):
    cp = compute_critical_path(handoff_trace)
    assert [(p.tid, p.start, p.end) for p in cp.pieces] == [
        (0, 0.0, 4.0),
        (1, 4.0, 6.0),
    ]
    assert cp.length == 6.0
    assert cp.coverage_error == 0.0
    (j,) = cp.junctions
    assert (j.from_tid, j.to_tid, j.kind) == (0, 1, WaitKind.LOCK)


def test_micro_benchmark_path():
    """The paper's Fig. 7 execution: the path snakes through the L2 chain."""
    trace = make_micro_program().run().trace
    cp = compute_critical_path(trace)
    assert cp.length == pytest.approx(12.0)
    assert cp.coverage_error == 0.0
    # Pieces: T0 [0,4.5] then T1..T3 [+2.5 each].
    expected = [(0, 0.0, 4.5), (1, 4.5, 7.0), (2, 7.0, 9.5), (3, 9.5, 12.0)]
    assert [(p.tid, p.start, p.end) for p in cp.pieces] == expected
    # Each crossing is an L2 handoff.
    assert all(j.kind == WaitKind.LOCK for j in cp.junctions)
    assert cp.junction_count(obj=1, kind=WaitKind.LOCK) == 3  # L2 is obj 1


def test_pieces_tile_execution(micro_trace):
    cp = compute_critical_path(micro_trace)
    assert cp.pieces[0].start == micro_trace.start_time
    assert cp.pieces[-1].end == micro_trace.end_time
    for a, b in zip(cp.pieces, cp.pieces[1:]):
        assert a.end == b.start


def test_barrier_path_goes_through_last_arriver():
    b = TraceBuilder()
    bar = b.barrier_obj("B")
    t0, t1 = b.thread("fast"), b.thread("slow")
    t0.start(at=0.0)
    t1.start(at=0.0)
    t0.barrier(bar, arrive=1.0, depart=3.0, gen=0)
    t1.barrier(bar, arrive=3.0, depart=3.0, gen=0)
    t0.exit(at=5.0)
    t1.exit(at=4.0)
    cp = compute_critical_path(b.build())
    # Path: slow thread until the barrier (it gated everyone), then fast
    # thread to its exit at 5.
    assert [(p.tid, p.start, p.end) for p in cp.pieces] == [
        (1, 0.0, 3.0),
        (0, 3.0, 5.0),
    ]
    assert cp.junctions[0].kind == WaitKind.BARRIER


def test_creation_junction():
    b = TraceBuilder()
    t0, t1 = b.thread("main"), b.thread("child")
    t0.start(at=0.0)
    t0.create(t1, at=1.0)
    t1.start(at=1.0)
    t0.exit(at=2.0)
    t1.exit(at=5.0)
    cp = compute_critical_path(b.build())
    assert [(p.tid, p.start, p.end) for p in cp.pieces] == [
        (0, 0.0, 1.0),
        (1, 1.0, 5.0),
    ]
    (j,) = cp.junctions
    assert j.kind is None and j.obj == -1


def test_join_junction():
    b = TraceBuilder()
    t0, t1 = b.thread("main"), b.thread("child")
    t0.start(at=0.0)
    t0.create(t1, at=0.0)
    t1.start(at=0.0)
    t1.exit(at=4.0)
    t0.join(t1, begin=1.0, end=4.0)
    t0.exit(at=5.0)
    cp = compute_critical_path(b.build())
    # A zero-length leading piece on main (start -> create at t=0) is fine.
    positive = [(p.tid, p.start, p.end) for p in cp.pieces if p.duration > 0]
    assert positive == [
        (1, 0.0, 4.0),
        (0, 4.0, 5.0),
    ]
    assert any(j.kind == WaitKind.JOIN for j in cp.junctions)


def test_empty_trace():
    from repro.trace.trace import Trace

    cp = compute_critical_path(Trace.from_events([]))
    assert cp.pieces == []
    assert cp.length == 0.0


def test_single_thread_path():
    b = TraceBuilder()
    lock = b.mutex("L")
    t = b.thread()
    t.start(at=0.0)
    t.critical_section(lock, acquire=1.0, obtain=1.0, release=2.0)
    t.exit(at=3.0)
    cp = compute_critical_path(b.build())
    assert [(p.tid, p.start, p.end) for p in cp.pieces] == [(0, 0.0, 3.0)]
    assert cp.junctions == []


def test_cond_junction_on_path():
    """A signal sent while not holding the mutex leaves the condition
    wait as the woken thread's last delay -> CONDITION junction."""
    from repro.sim import Program

    prog = Program()
    lock = prog.mutex("m")
    cv = prog.condition("cv")

    def waiter(env):
        yield env.acquire(lock)
        yield env.cond_wait(cv, lock)
        yield env.release(lock)
        yield env.compute(1.0)

    def signaller(env):
        yield env.compute(2.0)
        yield env.cond_signal(cv)  # mutex NOT held: reacquire is instant

    prog.spawn(waiter)
    prog.spawn(signaller)
    cp = compute_critical_path(prog.run().trace)
    assert any(j.kind == WaitKind.CONDITION for j in cp.junctions)
    assert cp.length == pytest.approx(3.0)


def test_simultaneous_zero_length_chain_terminates():
    """Chains of same-time handoffs must not loop (seq strictly decreases)."""
    b = TraceBuilder()
    lock = b.mutex("L")
    t0, t1, t2 = b.thread(), b.thread(), b.thread()
    for t in (t0, t1, t2):
        t.start(at=0.0)
    t0.critical_section(lock, acquire=0.0, obtain=0.0, release=1.0)
    t1.critical_section(lock, acquire=0.5, obtain=1.0, release=1.0)  # zero hold
    t2.critical_section(lock, acquire=0.5, obtain=1.0, release=1.0)  # zero hold
    t0.exit(at=1.0)
    t1.exit(at=1.0)
    t2.exit(at=1.0)
    cp = compute_critical_path(b.build(validate=False))
    assert cp.length == pytest.approx(1.0)
