"""Forward event DAG: longest path, backtracking, re-weighting."""

import pytest

from repro.check.refengine import compute_critical_path
from repro.core.dag import build_event_graph
from repro.trace.events import EventType
from repro.workloads import MicroBenchmark, SyntheticLocks

from tests.conftest import make_micro_program


@pytest.fixture(scope="module")
def micro_graph():
    trace = make_micro_program().run().trace
    return build_event_graph(trace)


def test_completion_equals_duration(micro_graph):
    assert micro_graph.completion_time() == pytest.approx(12.0)


def test_matches_backward_walk(micro_graph):
    cp = compute_critical_path(micro_graph.trace)
    assert micro_graph.completion_time() == pytest.approx(cp.length)


def test_critical_events_form_a_path(micro_graph):
    path = micro_graph.critical_events()
    records = micro_graph.trace.records
    times = [float(records["time"][p]) for p in path]
    assert times == sorted(times)
    assert records["etype"][path[-1]] == int(EventType.THREAD_EXIT)
    assert records["etype"][path[0]] == int(EventType.THREAD_START)


def test_shrink_l2_prediction(micro_graph):
    # Shrinking L2 CS 2.5 -> 1.5: hand-computed completion is 9.5.
    w = micro_graph.shrunk_weights(obj=1, factor=1.5 / 2.5)
    assert micro_graph.completion_time(w) == pytest.approx(9.5)


def test_shrink_l1_prediction(micro_graph):
    # Shrinking L1 CS 2.0 -> 1.0: hand-computed completion is 11.0.
    w = micro_graph.shrunk_weights(obj=0, factor=0.5)
    assert micro_graph.completion_time(w) == pytest.approx(11.0)


def test_eliminate_both_locks():
    trace = make_micro_program().run().trace
    g = build_event_graph(trace)
    w = g.shrunk_weights(obj=0, factor=0.0)
    # L1 gone: CS2 chain alone = 4*2.5 = 10.
    assert g.completion_time(w) == pytest.approx(10.0)


def test_negative_factor_rejected(micro_graph):
    with pytest.raises(ValueError, match="factor"):
        micro_graph.shrunk_weights(obj=0, factor=-0.5)


def test_agrees_on_barrier_workload():
    res = SyntheticLocks(barrier_every=10, ops_per_thread=30).run(nthreads=6, seed=3)
    g = build_event_graph(res.trace)
    assert g.completion_time() == pytest.approx(res.completion_time)


def test_agrees_on_spawn_join_program():
    from repro.sim import Program

    prog = Program()

    def child(env, d):
        yield env.compute(d)

    def parent(env):
        hs = []
        for d in (1.0, 4.0, 2.0):
            h = yield env.spawn(child, d)
            hs.append(h)
        yield from env.join_all(hs)

    prog.spawn(parent)
    res = prog.run()
    g = build_event_graph(res.trace)
    assert g.completion_time() == pytest.approx(res.completion_time) == 4.0


def test_to_networkx_roundtrip(micro_graph):
    g = micro_graph.to_networkx()
    assert g.number_of_nodes() == len(micro_graph.trace)
    assert g.number_of_edges() == len(micro_graph.edge_src)


def test_exec_spans_cover_compute():
    res = MicroBenchmark().run(nthreads=2, seed=0)
    g = build_event_graph(res.trace)
    total_span = sum(s.t1 - s.t0 for s in g.exec_spans)
    # Each thread executes 4.5 time units of critical sections.
    assert total_span == pytest.approx(9.0)


def test_completion_time_without_thread_exits():
    # Truncated capture: cut the trace before the first THREAD_EXIT.  The
    # fallback takes the max distance over all events instead of 0.0 (which
    # made what-if/forecast on partial traces report infinite speedup).
    from repro.trace.trace import Trace

    trace = make_micro_program().run().trace
    exits = trace.records["etype"] == int(EventType.THREAD_EXIT)
    cut = int(exits.nonzero()[0][0])
    sub = Trace(
        records=trace.records[:cut].copy(),
        objects=dict(trace.objects),
        threads=dict(trace.threads),
        meta=dict(trace.meta),
    )
    g = build_event_graph(sub)
    assert g.completion_time() > 0.0
    assert g.completion_time() == pytest.approx(sub.duration)
    # backtracking also anchors on the farthest event instead of bailing
    path = g.critical_events()
    assert path and g.trace.records["etype"][path[0]] == int(EventType.THREAD_START)


def test_sources_cached_once():
    import numpy as np

    g = build_event_graph(make_micro_program().run().trace)
    assert g.source_pos is not None  # precomputed by the builder
    first = g.sources
    assert g.sources is first  # no per-call rebuild
    # lazily computed for hand-built graphs too
    g.source_pos = None
    assert np.array_equal(g.sources, first)


def test_critical_events_tolerates_independent_dist():
    # Regression for exact-equality backtracking: a distance array that is
    # mathematically identical but rounded differently (here: recomputed
    # in ms and scaled back to seconds) drifts a few ulps from the
    # internal sweep on a many-edge trace.  Exact `==` comparison stopped
    # the walk mid-path; isclose recovers the full source-anchored path.
    import numpy as np

    trace = SyntheticLocks(ops_per_thread=120, nlocks=4).run(nthreads=4, seed=3).trace
    g = build_event_graph(trace)
    dist = g.longest_dist()
    scale = 1e-3
    rescaled = g.longest_dist(g.edge_w * scale) / scale
    finite = np.isfinite(dist)
    # the rescale round-trip must actually perturb values, or this test
    # would not exercise the tolerance at all
    assert np.any(dist[finite] != rescaled[finite])
    assert np.allclose(dist[finite], rescaled[finite], rtol=1e-9)

    path = g.critical_events(dist=rescaled)
    records = trace.records
    assert records["etype"][path[0]] == int(EventType.THREAD_START)
    assert records["etype"][path[-1]] == int(EventType.THREAD_EXIT)
    times = [float(records["time"][p]) for p in path]
    assert times == sorted(times)
