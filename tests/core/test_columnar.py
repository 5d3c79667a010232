"""Columnar-engine guarantees beyond plain output equivalence.

The bit-identity of ``analyze`` and the per-event reference pipeline
(:mod:`repro.check.refengine`) is pinned by the golden-report tests and
the oracle's ``engine-equiv`` invariant.  This file covers the
remaining columnar contracts:

* the hot path really is columnar — analyzing a trace allocates no
  per-event Python objects (``Event``/``Wait``/``HoldInterval``);
* equal-timestamp pile-ups (the regime zero-duration waits live in)
  analyze identically under ``analyze`` and the reference, and neither
  emits a zero-duration ``Wait``;
* the vectorized ``observe_batch`` kernel reproduces per-event
  ``observe`` exactly, at every chunking.
"""

import tracemalloc

import numpy as np
import pytest

from repro.check.refengine import reference_analyze
from repro.core.analyzer import analyze
from repro.core.online import OnlineAnalyzer
from repro.workloads import SyntheticLocks

from tests.conftest import make_micro_program


def _synthetic_trace(ops=400, seed=3):
    return SyntheticLocks(ops_per_thread=ops, nlocks=4).run(
        nthreads=4, seed=seed
    ).trace


def _bench_trace():
    """benchmarks/bench_columnar.py's --quick trace (same generator and
    shape as the 216k-event full bench trace, scaled to test budget;
    the zero-allocation property below is size-independent, and the
    full trace is exercised by the CI bench-columnar job)."""
    return SyntheticLocks(ops_per_thread=800, nlocks=6, barrier_every=100).run(
        nthreads=6, seed=0
    ).trace


def test_columnar_path_builds_no_per_event_objects():
    """The columnar engine must never round-trip through Event/Wait/
    HoldInterval objects — that is the whole point of the numpy hot
    path.  tracemalloc attributes every allocation to the source file
    that made it; after a warm-up pass (imports, caches), a traced
    analyze+render must charge nothing to the per-event object
    modules."""
    trace = _bench_trace()
    per_event_files = ("trace/schema.py", "core/model.py", "check/refengine.py",
                      "core/wakers.py", "core/critical_path.py")

    analyze(trace, validate=False).render(10)  # warm up

    tracemalloc.start()
    try:
        analyze(trace, validate=False).render(10)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()

    offenders = [
        stat
        for stat in snapshot.statistics("filename")
        if any(stat.traceback[0].filename.replace("\\", "/").endswith(f)
               for f in per_event_files)
    ]
    assert not offenders, (
        "columnar analyze allocated in per-event modules: "
        + ", ".join(f"{s.traceback[0].filename} ({s.size}B)" for s in offenders)
    )


def test_object_engine_does_allocate_per_event_objects():
    """Sanity check that the probe above has teeth: the per-event
    reference pipeline *does* allocate in the per-event modules under
    identical tracing."""
    trace = _synthetic_trace(ops=100)
    reference_analyze(trace).render(10)  # warm up

    tracemalloc.start()
    try:
        reference_analyze(trace).render(10)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()

    hits = [
        stat
        for stat in snapshot.statistics("filename")
        if stat.traceback[0].filename.replace("\\", "/").endswith(
            ("core/model.py", "check/refengine.py"))
    ]
    assert hits, "reference pipeline unexpectedly allocation-free in model/refengine"


@pytest.mark.parametrize("seed", range(12))
def test_equal_timestamp_traces_agree_across_engines(seed):
    """Property test over fuzzed programs: the generator makes ~35% of
    computes zero-duration, deliberately manufacturing equal-timestamp
    acquire/obtain/release pile-ups.  ``analyze`` and the reference
    pipeline must render the same bytes and drop every zero-duration
    wait."""
    from repro.check.generator import generate_spec
    from repro.check.interp import run_spec

    trace = run_spec(generate_spec(seed)).trace
    results = {
        "columnar": analyze(trace, validate=False),
        "reference": reference_analyze(trace),
    }

    a, b = results.values()
    assert a.render(None) == b.render(None)
    assert a.critical_path.pieces == b.critical_path.pieces
    for name, res in results.items():
        for tl in res.timelines.values():
            assert all(w.duration > 0 for w in tl.waits), (
                f"zero-duration wait survived in the {name} pipeline"
            )


def _lock_rows(trace):
    from repro.core.online import _LOCK_VERBS

    return trace.records[np.isin(trace.records["etype"], _LOCK_VERBS)]


@pytest.mark.parametrize("chunk", [1, 7, 64, 10**9])
def test_observe_batch_chunked_matches_observe(chunk):
    """The vectorized batch kernel must be a drop-in for per-event
    observe at any chunk boundary — counters exact, accumulated floats
    to 1e-9, and the carried slot state identical so that chunks can be
    split anywhere."""
    trace = _synthetic_trace(ops=200, seed=5)

    ref = OnlineAnalyzer(trace)
    for ev in trace:
        ref.observe(ev)

    batched = OnlineAnalyzer(trace)
    records = trace.records
    for lo in range(0, len(records), chunk):
        batched.observe_batch(records[lo:lo + chunk])

    assert set(batched._locks) == set(ref._locks)
    for obj, want in ref._locks.items():
        got = batched._locks[obj]
        assert got.invocations == want.invocations
        assert got.contended == want.contended
        assert got.wait_time == pytest.approx(want.wait_time, abs=1e-9)
        assert got.hold_time == pytest.approx(want.hold_time, abs=1e-9)
        assert got.max_chain_time == pytest.approx(want.max_chain_time, abs=1e-9)
        assert got.chain_time == pytest.approx(want.chain_time, abs=1e-9)
        # Slot state must carry across arbitrary chunk boundaries.
        assert got._pending_acquire == want._pending_acquire
        assert got._obtain_time == want._obtain_time
        assert got._last_release == want._last_release


def test_observe_batch_micro_matches_offline():
    trace = make_micro_program().run().trace
    offline = analyze(trace)
    online = OnlineAnalyzer(trace)
    online.observe_batch(trace.records)
    for obj, m in offline.report.locks.items():
        ls = online.stats(obj)
        assert ls.invocations == m.total_invocations
        assert ls.hold_time == pytest.approx(
            sum(tl.hold_time(obj) for tl in offline.timelines.values()), abs=1e-9
        )
