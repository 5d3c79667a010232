"""Protocol/scheduler what-if forecasts (ground-truth replay)."""

import pytest

from repro.core.analyzer import analyze
from repro.core.replay_whatif import (
    forecast_matrix,
    replay_identity,
    replay_whatif,
)
from repro.errors import AnalysisError, SimulationError
from repro.workloads import get_workload

from tests.conftest import make_micro_program


@pytest.fixture(scope="module")
def micro_trace():
    return make_micro_program().run().trace


@pytest.fixture(scope="module")
def ldap_trace():
    # The contended-rwlock golden config: reader preference re-ranks the
    # critical lock here (see tests/golden/test_golden_reports.py).
    wl = get_workload("openldap")(
        requests=150, nbuckets=2, write_prob=0.35,
        write_cost=0.12, lookup_cost=0.04,
    )
    return wl.run(nthreads=6, seed=1).trace


def test_identity_replay_reproduces_micro_exactly(micro_trace):
    result = replay_identity(micro_trace)
    assert result.completion_time == micro_trace.duration
    base = analyze(micro_trace).report
    replayed = analyze(result.trace, validate=False).report
    assert replayed.render(None) == base.render(None)


def test_fifo_forecast_is_a_noop_on_micro(micro_trace):
    fc = replay_whatif(micro_trace, protocol="fifo")
    assert fc.predicted_time == micro_trace.duration
    assert fc.predicted_speedup == 1.0
    assert not fc.reranked


def test_forecast_fields_and_render(micro_trace):
    fc = replay_whatif(micro_trace, protocol="pi")
    assert fc.protocol == "pi"
    assert fc.scheduler == "fifo"
    assert fc.baseline_time == micro_trace.duration
    assert fc.predicted_time > 0
    assert {d.name for d in fc.deltas} == {"L1", "L2"}
    text = fc.render()
    assert "protocol what-if" in text
    assert "pi" in text
    d = fc.to_dict()
    assert d["protocol"] == "pi"
    assert d["critical_lock"]["baseline"] in ("L1", "L2")
    assert len(d["locks"]) == 2


def test_reader_preference_reranks_ldap(ldap_trace):
    fc = replay_whatif(ldap_trace, protocol="reader-pref")
    assert fc.reranked
    assert fc.baseline_critical_lock == "entry_lock[0]"
    assert fc.predicted_critical_lock == "entry_lock[1]"
    assert fc.predicted_gain > 0.03  # measurably faster, not noise
    assert "(re-ranked)" in fc.render()


def test_priorities_keyed_by_tid_or_name(micro_trace):
    by_tid = replay_whatif(
        micro_trace, protocol="priority", priorities={1: 5}
    )
    names = dict(micro_trace.threads)
    name_of_1 = names[1]
    by_name = replay_whatif(
        micro_trace, protocol="priority", priorities={name_of_1: 5}
    )
    assert by_tid.predicted_time == by_name.predicted_time
    assert by_tid.params["priorities"] == {1: 5}


def test_rr_scheduler_with_quantum(micro_trace):
    fc = replay_whatif(micro_trace, scheduler="rr", quantum=0.5, cores=2)
    assert fc.scheduler == "rr"
    assert fc.params["quantum"] == 0.5
    assert fc.predicted_time > 0


def test_quantum_requires_rr(micro_trace):
    with pytest.raises(AnalysisError, match="quantum.*'rr'"):
        replay_whatif(micro_trace, scheduler="priority", quantum=0.5)


def test_recorded_protocol_takes_no_params(micro_trace):
    with pytest.raises(AnalysisError, match="recorded.*no parameters"):
        replay_whatif(micro_trace, protocol="recorded",
                      protocol_params={"x": 1})


def test_unknown_protocol_rejected(micro_trace):
    with pytest.raises(SimulationError, match="unknown lock protocol"):
        replay_whatif(micro_trace, protocol="bogus")


def test_forecast_matrix_shares_baseline(micro_trace):
    out = forecast_matrix(
        micro_trace, protocols=["fifo", "priority"], schedulers=["fifo"]
    )
    assert [fc.protocol for fc in out] == ["fifo", "priority"]
    assert out[0].baseline_report is out[1].baseline_report


def test_forecast_matrix_analyzes_the_trace_once(micro_trace, monkeypatch):
    """The baseline analysis also feeds the program reconstruction: the
    input trace is analyzed once per matrix (each replayed prediction
    once more) and no timelines or wakers are rebuilt for the replay."""
    import sys

    import repro.replay

    # ``repro.core.replay_whatif`` the attribute is the function.
    rw = sys.modules["repro.core.replay_whatif"]
    analyzed = []

    def counting_analyze(trace, validate=True):
        analyzed.append(trace)
        return analyze(trace, validate=validate)

    def rebuilt(trace):
        raise AssertionError("reconstruct rebuilt the timelines")

    monkeypatch.setattr(rw, "analyze", counting_analyze)
    monkeypatch.setattr(repro.replay, "object_structures", rebuilt)
    out = forecast_matrix(
        micro_trace, protocols=["fifo", "priority"], schedulers=["fifo"]
    )
    assert sum(t is micro_trace for t in analyzed) == 1
    assert len(analyzed) == 1 + len(out)
    analyzed.clear()
    replay_whatif(micro_trace, protocol="priority")
    assert sum(t is micro_trace for t in analyzed) == 1


def test_forecast_matrix_default_excludes_recorded(micro_trace):
    out = forecast_matrix(micro_trace, schedulers=["fifo"])
    assert all(fc.protocol != "recorded" for fc in out)
    assert len(out) == 8  # every registry protocol except "recorded"
