"""Single flight: jobs with the same result-cache key share one run, and
an upload's fleet ingest runs the one pooled ``analyze`` its caller joins.

The inline tests gate the pool's executor so a run stays in flight while
other jobs join it; the pooled tests use one real spawn worker.
"""

import json
import logging
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from tests.conftest import make_micro_program

from repro.core.analyzer import analyze
from repro.service import ServiceAPI
from repro.service import pool as pool_module
from repro.trace import write_trace


def submit(api, body):
    status, job = api.handle("POST", "/jobs", json.dumps(body).encode())
    assert status == 202, job
    return job


def upload(api, trace, tmp_path, name="micro"):
    path = write_trace(trace, tmp_path / f"{name}.clt")
    status, entry = api.handle("POST", "/traces", path.read_bytes(), {"name": name})
    assert status == 201, entry
    return entry["digest"]


class Gate:
    """Stand-in for the pool's executor: counts runs and holds each one
    until released, so a run stays in flight while other jobs arrive."""

    def __init__(self, execute):
        self.execute = execute
        self.calls = []
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, kind, paths, params=None):
        self.calls.append(kind)
        self.entered.set()
        assert self.release.wait(30)
        return self.execute(kind, paths, params)


@pytest.fixture
def api(tmp_path):
    with ServiceAPI(tmp_path / "svc", workers=0) as api:
        yield api


@pytest.fixture
def gate(monkeypatch):
    gate = Gate(pool_module.execute)
    monkeypatch.setattr(pool_module, "execute", gate)
    return gate


def run_with_followers(api, gate, body, followers=4):
    """Submit ``body`` once (the leader, blocked in the gate) and then
    ``followers`` more times concurrently; release; return every job."""
    leader: list[dict] = []
    thread = threading.Thread(target=lambda: leader.append(submit(api, body)))
    thread.start()
    assert gate.entered.wait(30)
    with ThreadPoolExecutor(followers) as ex:
        joined = list(ex.map(lambda _: submit(api, body), range(followers)))
    assert all(j["state"] == "running" for j in joined)  # the run had started
    gate.release.set()
    thread.join(30)
    return [api.wait(j["id"]) for j in leader + joined]


def test_concurrent_identical_jobs_run_execute_once(api, gate, micro_trace, tmp_path):
    digest = upload(api, micro_trace, tmp_path)
    gate.calls.clear()  # the inline pool leaves the upload to the fleet thread
    jobs = run_with_followers(api, gate, {"kind": "analyze", "trace": digest})
    assert gate.calls == ["analyze"]
    assert {j["state"] for j in jobs} == {"done"}
    assert not any(j["cached"] for j in jobs)
    assert all(j["result"] == jobs[0]["result"] for j in jobs)
    assert jobs[0]["result"]["locks"] == analyze(micro_trace).report.to_dict()["locks"]
    m = api.snapshot_metrics()["jobs"]
    assert m["runs"] == {"analyze": 1}
    assert m["submitted"] == {"analyze": 5} and m["completed"] == {"analyze": 5}
    assert api.cache.stats()["entries"] == 1


def test_followers_carry_start_and_finish_times(api, gate):
    jobs = run_with_followers(api, gate, {"kind": "selftest", "params": {"echo": 1}})
    for job in jobs:
        assert job["submitted_at"] <= job["started_at"] <= job["finished_at"]
        assert job["latency"] > 0


def test_leader_error_fails_every_follower(api, gate):
    jobs = run_with_followers(api, gate, {"kind": "selftest", "params": {"fail": "kaput"}})
    assert gate.calls == ["selftest"]
    assert {j["state"] for j in jobs} == {"failed"}
    assert {j["error"] for j in jobs} == {"RuntimeError: kaput"}
    assert api.snapshot_metrics()["jobs"]["failed"] == {"selftest": 5}


def test_cache_hit_never_enters_the_flight_table(api, micro_trace, tmp_path):
    digest = upload(api, micro_trace, tmp_path)
    body = {"kind": "analyze", "trace": digest, "params": {"top": 2}}
    submit(api, body)
    assert api._flights == {}
    entered = []

    class Recording(dict):
        def __setitem__(self, key, value):
            entered.append(key)
            super().__setitem__(key, value)

    api._flights = Recording()
    job = submit(api, body)
    assert job["cached"] and job["state"] == "done"
    assert entered == []
    assert api.snapshot_metrics()["jobs"]["runs"] == {"analyze": 1}


# -- one real worker ---------------------------------------------------------


@pytest.fixture
def pooled(tmp_path):
    """A 1-worker service and the run id of every pool ``start`` event."""
    with ServiceAPI(tmp_path / "svc", workers=1) as api:
        starts = []
        forward = api.pool._on_event

        def counting(event, run_id, payload):
            if event == "start":
                starts.append(run_id)
            forward(event, run_id, payload)

        api.pool._on_event = counting
        yield api, starts


def test_leader_crash_fails_every_follower(pooled):
    api, starts = pooled
    submit(api, {"kind": "selftest", "params": {"sleep": 0.3}})  # holds the worker
    crash = {"kind": "selftest", "params": {"crash": True}}
    ids = [submit(api, crash)["id"] for _ in range(3)]
    jobs = [api.wait(job_id) for job_id in ids]
    assert {j["state"] for j in jobs} == {"failed"}
    errors = {j["error"] for j in jobs}
    assert len(errors) == 1 and "died (exitcode 17)" in errors.pop()
    assert len(starts) == 2
    assert api.pool.restarts == 1


def test_upload_then_analyze_runs_one_analysis(pooled, micro_trace, tmp_path):
    api, starts = pooled
    digest = upload(api, micro_trace, tmp_path)
    job = api.wait(submit(api, {"kind": "analyze", "trace": digest})["id"])
    assert job["state"] == "done"
    assert job["result"]["locks"] == analyze(micro_trace).report.to_dict()["locks"]
    assert api.flush_fleet(timeout=30)
    m = api.snapshot_metrics()
    assert len(starts) == 1
    assert m["jobs"]["runs"] == {"analyze": 1}
    assert m["fleet"]["observed"] == 1


def test_fleet_runs_stay_out_of_client_job_counts(pooled, micro_trace, tmp_path):
    api, starts = pooled
    upload(api, micro_trace, tmp_path)
    assert api.flush_fleet(timeout=30)
    jobs = api.snapshot_metrics()["jobs"]
    assert jobs["runs"] == {"analyze": 1}
    assert jobs["submitted"] == {} and jobs["completed"] == {}
    assert api.jobs.list() == []
    assert api.snapshot_metrics()["fleet"]["observed"] == 1


def test_pooled_fleet_ingest_keeps_the_workload_tag(pooled, tmp_path):
    api, _ = pooled
    trace = make_micro_program().run().trace
    trace.meta["workload"] = "checkout"
    upload(api, trace, tmp_path, name="stored-under-another-name")
    assert api.flush_fleet(timeout=30)
    summary = api.fleet.summary()
    assert summary["traces"] == 1
    assert {c["workload"] for c in summary["top"]} == {"checkout"}


def test_invalid_upload_fails_its_pooled_run_as_a_fleet_error(pooled, tmp_path, caplog):
    from repro.check.mutate import single_row_mutants
    from repro.trace.validate import trace_problems

    api, _ = pooled
    trace = make_micro_program().run().trace
    mutants = single_row_mutants(trace, 24, seed=1)
    bad = next(m.trace for m in mutants if trace_problems(m.trace))
    with caplog.at_level(logging.WARNING, logger="repro.fleet"):
        digest = upload(api, bad, tmp_path)
        job = api.wait(submit(api, {"kind": "analyze", "trace": digest})["id"])
        assert api.flush_fleet(timeout=30)
    assert job["state"] == "failed" and "invalid trace" in job["error"]
    fleet = api.snapshot_metrics()["fleet"]
    assert fleet["errors"] == 1 and fleet["observed"] == 0
    assert "fleet ingest error: " in caplog.text
    assert "TraceValidationError: invalid trace: seq" in caplog.text
    assert api.snapshot_metrics()["jobs"]["runs"] == {"analyze": 1}
