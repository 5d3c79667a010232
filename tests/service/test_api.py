"""ServiceAPI driven in-process (workers=0): routing, caching, stores.

These tests exercise the exact code the HTTP layer calls, without
sockets or worker processes, so they are fast and deterministic; the
transport itself is covered by ``test_http.py``.
"""

import json

import pytest

from repro.core.analyzer import analyze
from repro.service import ServiceAPI
from repro.service.jobs import JobSpec
from repro.trace import trace_digest, write_trace


@pytest.fixture
def api(tmp_path):
    with ServiceAPI(tmp_path / "svc", workers=0) as api:
        yield api


@pytest.fixture
def micro_bytes(micro_trace, tmp_path):
    return write_trace(micro_trace, tmp_path / "up.clt").read_bytes()


def submit(api, body):
    status, job = api.handle("POST", "/jobs", json.dumps(body).encode())
    assert status == 202, job
    return job


class TestTraces:
    def test_upload_and_get(self, api, micro_trace, micro_bytes):
        status, entry = api.handle("POST", "/traces", micro_bytes, {"name": "m"})
        assert status == 201
        assert entry["digest"] == trace_digest(micro_trace)
        assert entry["nevents"] == len(micro_trace)
        assert entry["name"] == "m"
        status, got = api.handle("GET", f"/traces/{entry['digest']}")
        assert status == 200 and got == entry

    def test_upload_deduplicates_across_formats(
        self, api, micro_trace, micro_bytes, tmp_path
    ):
        api.handle("POST", "/traces", micro_bytes)
        jsonl = write_trace(micro_trace, tmp_path / "up.jsonl").read_bytes()
        status, entry = api.handle("POST", "/traces", jsonl)
        assert status == 201
        status, listing = api.handle("GET", "/traces")
        assert len(listing["traces"]) == 1

    def test_upload_garbage_rejected(self, api):
        status, err = api.handle("POST", "/traces", b"not a trace, sorry")
        assert status == 400
        assert "unparseable" in err["error"]

    def test_unknown_digest_404(self, api):
        status, err = api.handle("GET", "/traces/feedbeef")
        assert status == 404


class TestJobs:
    def test_analyze_end_to_end(self, api, micro_trace, micro_bytes):
        _, entry = api.handle("POST", "/traces", micro_bytes)
        job = submit(api, {"kind": "analyze", "trace": entry["digest"]})
        assert job["state"] == "done"  # inline pool: finished already
        status, report = api.handle("GET", f"/reports/{job['id']}")
        assert status == 200
        expected = analyze(micro_trace).report.to_dict()
        assert report["result"]["locks"] == expected["locks"]

    def test_cache_hit_on_identical_resubmit(self, api, micro_bytes):
        _, entry = api.handle("POST", "/traces", micro_bytes)
        body = {"kind": "analyze", "trace": entry["digest"], "params": {"top": 3}}
        first = submit(api, body)
        second = submit(api, body)
        assert not first["cached"]
        assert second["cached"]
        _, r1 = api.handle("GET", f"/reports/{first['id']}")
        _, r2 = api.handle("GET", f"/reports/{second['id']}")
        assert r1["result"] == r2["result"]
        assert api.cache.stats()["hits"] == 1

    def test_different_params_miss_cache(self, api, micro_bytes):
        _, entry = api.handle("POST", "/traces", micro_bytes)
        submit(api, {"kind": "analyze", "trace": entry["digest"], "params": {"top": 3}})
        job = submit(
            api, {"kind": "analyze", "trace": entry["digest"], "params": {"top": 5}}
        )
        assert not job["cached"]

    def test_compare_cache_key_spells_out_validation(self, api, micro_bytes):
        """A compare's key carries its ``validate`` default, so a result
        cached under the bare params by a server that did not validate
        compares by default never answers a default request."""
        _, entry = api.handle("POST", "/traces", micro_bytes)
        traces = [entry["digest"]] * 2
        assert not submit(api, {"kind": "compare", "traces": traces})["cached"]
        explicit = {"kind": "compare", "traces": traces, "params": {"validate": True}}
        assert submit(api, explicit)["cached"]
        bare_key = JobSpec("compare", tuple(traces), {}).cache_key()
        assert api.cache.get(bare_key) is None

    def test_job_against_unknown_trace_404(self, api):
        status, err = api.handle(
            "POST", "/jobs", json.dumps({"kind": "analyze", "trace": "nope"}).encode()
        )
        assert status == 404

    def test_bad_kind_400(self, api, micro_bytes):
        _, entry = api.handle("POST", "/traces", micro_bytes)
        status, err = api.handle(
            "POST",
            "/jobs",
            json.dumps({"kind": "frobnicate", "trace": entry["digest"]}).encode(),
        )
        assert status == 400
        assert "unknown job kind" in err["error"]

    def test_body_not_json_400(self, api):
        status, err = api.handle("POST", "/jobs", b"{nope")
        assert status == 400

    def test_report_of_failed_job_500(self, api, micro_bytes):
        _, entry = api.handle("POST", "/traces", micro_bytes)
        job = submit(
            api,
            {"kind": "whatif", "trace": entry["digest"], "params": {"lock": "NOPE"}},
        )
        assert job["state"] == "failed"
        status, err = api.handle("GET", f"/reports/{job['id']}")
        assert status == 500
        assert err["error"]

    def test_whatif_on_invalid_upload_fails_validation(self, api, tmp_path):
        """A what-if job validates its trace like an analyze job: every
        malformed mutant of a SyntheticLocks trace ends ``failed`` with
        the validator's message, never with a prediction."""
        from repro.check.mutate import single_row_mutants
        from repro.check.refvalidate import reference_trace_problems
        from repro.workloads import SyntheticLocks

        trace = SyntheticLocks(ops_per_thread=40, nlocks=3).run(nthreads=3, seed=5).trace
        lock = trace.locks[0].display_name
        flagged = 0
        for i, m in enumerate(single_row_mutants(trace, 24, seed=5)):
            problems = reference_trace_problems(m.trace)
            if not problems:
                continue
            flagged += 1
            body = write_trace(m.trace, tmp_path / f"m{i}.clt").read_bytes()
            status, entry = api.handle("POST", "/traces", body)
            assert status == 201, entry
            job = submit(
                api,
                {"kind": "whatif", "trace": entry["digest"],
                 "params": {"lock": lock, "factor": 0.5}},
            )
            assert job["state"] == "failed", m.label
            assert "TraceValidationError: invalid trace:" in job["error"], m.label
            assert problems[0] in job["error"], m.label
        assert flagged >= 12

    def test_failed_jobs_never_cached(self, api, micro_bytes):
        _, entry = api.handle("POST", "/traces", micro_bytes)
        body = {"kind": "whatif", "trace": entry["digest"], "params": {"lock": "NOPE"}}
        submit(api, body)
        job = submit(api, body)
        assert not job["cached"]
        assert job["state"] == "failed"


class TestMetricsAndRouting:
    def test_metrics_shape(self, api, micro_bytes):
        _, entry = api.handle("POST", "/traces", micro_bytes)
        body = {"kind": "analyze", "trace": entry["digest"]}
        submit(api, body)
        submit(api, body)  # cache short-circuit
        status, m = api.handle("GET", "/metrics")
        assert status == 200
        assert m["jobs"]["submitted"]["analyze"] == 2
        assert m["jobs"]["completed"]["analyze"] == 1
        assert m["jobs"]["cache_short_circuits"] == 1
        assert m["cache"]["hits"] == 1
        assert m["traces"]["count"] == 1
        assert m["latency"]["analyze"]["count"] == 1
        assert m["queue"]["queued"] == 0

    def test_healthz(self, api):
        status, body = api.handle("GET", "/healthz")
        assert status == 200 and body["ok"]

    def test_unknown_route_404(self, api):
        status, _ = api.handle("GET", "/nope")
        assert status == 404
        status, _ = api.handle("POST", "/reports/abc")
        assert status == 404

    def test_wait_returns_result(self, api, micro_bytes):
        _, entry = api.handle("POST", "/traces", micro_bytes)
        job = submit(api, {"kind": "forecast", "trace": entry["digest"]})
        out = api.wait(job["id"], timeout=10)
        assert out["state"] == "done"
        assert out["result"]["locks"]


class TestStoreRestart:
    def test_index_survives_restart(self, tmp_path, micro_bytes):
        with ServiceAPI(tmp_path / "svc", workers=0) as api:
            _, entry = api.handle("POST", "/traces", micro_bytes)
        with ServiceAPI(tmp_path / "svc", workers=0) as api2:
            status, got = api2.handle("GET", f"/traces/{entry['digest']}")
            assert status == 200
            assert got["nevents"] == entry["nevents"]
            # And jobs against the re-indexed trace still run.
            job = submit(api2, {"kind": "analyze", "trace": entry["digest"]})
            assert job["state"] == "done"
