"""Fleet observability through the service: routes, jobs, SSE, dashboard."""

from __future__ import annotations

import json
import threading

import pytest

from tests.conftest import make_micro_program

from repro.service import ServiceAPI, ServiceClient
from repro.service.server import make_server
from repro.trace import write_trace

RULES = (
    "[[rule]]\n"
    "name = 'hot'\n"
    "expr = 'cp_fraction > 0.5'\n"
    "severity = 'page'\n"
)


@pytest.fixture()
def api(tmp_path):
    rules = tmp_path / "rules.toml"
    rules.write_text(RULES)
    api = ServiceAPI(tmp_path / "svc", workers=0, rules_path=rules)
    yield api
    api.close()


def _upload_micro(api, tmp_path, cs1=2.0, cs2=2.5, name="micro"):
    trace = make_micro_program(cs1=cs1, cs2=cs2).run().trace
    path = write_trace(trace, tmp_path / f"{name}-{cs1}-{cs2}.clt")
    status, entry = api.handle("POST", "/traces", path.read_bytes(), {"name": name})
    assert status == 201
    return entry["digest"]


def test_upload_feeds_fleet_state(api, tmp_path):
    for i in range(3):
        _upload_micro(api, tmp_path, cs2=2.5 + 0.001 * i)
    assert api.flush_fleet(timeout=30)
    status, summary = api.handle("GET", "/fleet/summary", b"", {})
    assert status == 200
    assert summary["traces"] == 3
    assert [c["site"] for c in summary["top"]] == ["L2", "L1"]
    status, top1 = api.handle("GET", "/fleet/summary", b"", {"top": "1"})
    assert len(top1["top"]) == 1


def test_reupload_is_deduplicated(api, tmp_path):
    d1 = _upload_micro(api, tmp_path)
    d2 = _upload_micro(api, tmp_path)
    assert d1 == d2
    assert api.flush_fleet(timeout=30)
    status, summary = api.handle("GET", "/fleet/summary", b"", {})
    assert summary["traces"] == 1


def test_regressions_and_alerts_routes(api, tmp_path):
    for i in range(3):
        _upload_micro(api, tmp_path, cs2=2.5 + 0.001 * i)
    _upload_micro(api, tmp_path, cs1=6.0)  # ranking flip: L1 takes over
    assert api.flush_fleet(timeout=30)
    status, reg = api.handle("GET", "/fleet/regressions", b"", {})
    assert status == 200
    kinds = {f["kind"] for f in reg["flags"]}
    assert "cp_shift" in kinds and "top1_change" in kinds
    # Query params reach the aggregator.
    status, loose = api.handle(
        "GET", "/fleet/regressions", b"", {"noise_floor": "0.99"}
    )
    assert [f for f in loose["flags"] if f["kind"] == "cp_shift"] == []
    status, alerts = api.handle("GET", "/fleet/alerts", b"", {})
    assert status == 200
    assert alerts["rules"] == 1
    assert any(a["rule"] == "hot" for a in alerts["alerts"])


def test_fleet_job_kinds(api, tmp_path):
    _upload_micro(api, tmp_path)
    assert api.flush_fleet(timeout=30)
    status, job = api.handle(
        "POST",
        "/jobs",
        json.dumps({"kind": "fleet_summary", "traces": [], "params": {}}).encode(),
        {},
    )
    assert status == 202 and job["state"] == "done"
    status, rep = api.handle("GET", f"/reports/{job['id']}", b"", {})
    assert rep["result"]["traces"] == 1
    status, job = api.handle(
        "POST",
        "/jobs",
        json.dumps(
            {"kind": "fleet_regressions", "traces": [], "params": {"topk": 3}}
        ).encode(),
        {},
    )
    assert status == 202
    status, rep = api.handle("GET", f"/reports/{job['id']}", b"", {})
    assert rep["result"]["params"]["topk"] == 3


def test_fleet_jobs_bypass_result_cache(api, tmp_path):
    """Fleet state mutates between submissions; results must not be reused."""
    _upload_micro(api, tmp_path)
    assert api.flush_fleet(timeout=30)
    body = json.dumps({"kind": "fleet_summary", "traces": [], "params": {}}).encode()
    _, job1 = api.handle("POST", "/jobs", body, {})
    _upload_micro(api, tmp_path, cs2=9.0)
    assert api.flush_fleet(timeout=30)
    _, job2 = api.handle("POST", "/jobs", body, {})
    _, rep2 = api.handle("GET", f"/reports/{job2['id']}", b"", {})
    assert rep2["result"]["traces"] == 2


def test_fleet_ingest_route_catches_up(tmp_path):
    # Seed a store with a pre-fleet service, then start a new one over it.
    seeder = ServiceAPI(tmp_path / "svc", workers=0)
    trace = make_micro_program().run().trace
    path = write_trace(trace, tmp_path / "t.clt")
    seeder.handle("POST", "/traces", path.read_bytes(), {"name": "micro"})
    seeder.flush_fleet(timeout=30)
    seeder.close()
    (tmp_path / "svc" / "fleet" / "fleet.json").unlink()  # fleet never saw it

    api = ServiceAPI(tmp_path / "svc", workers=0)
    try:
        status, summary = api.handle("GET", "/fleet/summary", b"", {})
        assert summary["traces"] == 0
        status, out = api.handle("POST", "/fleet/ingest", b"", {})
        assert status == 200 and out["observed"] == 1
        status, summary = api.handle("GET", "/fleet/summary", b"", {})
        assert summary["traces"] == 1
    finally:
        api.close()


def test_metrics_expose_fleet_counters(api, tmp_path):
    _upload_micro(api, tmp_path)
    _upload_micro(api, tmp_path)  # duplicate digest
    assert api.flush_fleet(timeout=30)
    status, metrics = api.handle("GET", "/metrics", b"", {})
    fleet = metrics["fleet"]
    assert fleet["observed"] == 1
    assert fleet["duplicates"] >= 1
    assert fleet["digests"] == 1
    assert fleet["ingest_latency"]["count"] == 1


def _without_row(trace, row):
    """``trace`` with record ``row`` dropped: a malformed trace."""
    import numpy as np

    from repro.trace.trace import Trace

    return Trace(
        records=np.delete(trace.records, row),
        objects=dict(trace.objects),
        threads=dict(trace.threads),
        meta=dict(trace.meta),
    )


def _finalize_stream(api, monkeypatch, trace, analyze, params=None):
    """Stream ``trace``, finalize it, wait for fleet ingest; returns the
    finalize payload and how many times ``analyze`` ran."""
    import repro.core.analyzer
    from repro.trace.framing import encode_records_frame
    from repro.trace.writer import header_dict

    calls = []
    real = repro.core.analyzer.analyze
    monkeypatch.setattr(
        repro.core.analyzer, "analyze", lambda *a, **k: calls.append(1) or real(*a, **k)
    )
    status, session = api.handle(
        "POST", "/streams", json.dumps({"name": "micro"}).encode(), {}
    )
    sid = session["id"]
    body = encode_records_frame(trace.records, 0)
    status, _ = api.handle("POST", f"/traces/{sid}/chunks", body, {})
    assert status == 202
    req = {"header": header_dict(trace), "analyze": analyze, "params": params or {}}
    status, out = api.handle(
        "POST", f"/traces/{sid}/finalize", json.dumps(req).encode(), {}
    )
    assert status == 200
    assert api.flush_fleet(timeout=30)
    return out, len(calls)


def _assert_fleet_saw_micro(api):
    status, summary = api.handle("GET", "/fleet/summary", b"", {})
    assert summary["traces"] == 1
    assert summary["top"][0]["site"] == "L2"


def test_stream_finalize_feeds_fleet(api, monkeypatch):
    trace = make_micro_program().run().trace
    out, analyses = _finalize_stream(api, monkeypatch, trace, analyze=False)
    assert "report" not in out
    assert analyses == 1
    _assert_fleet_saw_micro(api)


def test_analyzed_finalize_feeds_fleet_without_reanalysis(api, monkeypatch):
    """Fleet ingest reuses the report of ``finalize(analyze=True)``
    instead of analyzing the same trace a second time."""
    trace = make_micro_program().run().trace
    out, analyses = _finalize_stream(api, monkeypatch, trace, analyze=True)
    assert "report" in out
    assert analyses == 1
    _assert_fleet_saw_micro(api)


def test_unvalidated_finalize_report_is_not_observed(api, monkeypatch):
    """A finalize report computed with ``validate: false`` is not handed
    to fleet ingest: fleet validates the trace itself and rejects it."""
    # Without T0's THREAD_START the trace is invalid, yet an unvalidated
    # analysis still produces a report.
    bad = _without_row(make_micro_program().run().trace, 0)
    out, analyses = _finalize_stream(
        api, monkeypatch, bad, analyze=True, params={"validate": False}
    )
    assert "report" in out  # the caller asked for an unvalidated analysis
    assert analyses == 2
    assert api.metrics.fleet_errors == 1
    status, summary = api.handle("GET", "/fleet/summary", b"", {})
    assert summary["traces"] == 0


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    root = tmp_path_factory.mktemp("fleet-http")
    rules = root / "rules.toml"
    rules.write_text(RULES)
    api = ServiceAPI(root / "svc", workers=0, rules_path=rules)
    srv = make_server(api, "127.0.0.1", 0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    api.close()
    thread.join(timeout=5)


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(server.url)


def test_http_dashboard_and_sse(server, client, tmp_path):
    trace = make_micro_program().run().trace
    path = write_trace(trace, tmp_path / "m.clt")
    client.upload_trace(path, name="micro")
    assert server.api.flush_fleet(timeout=30)

    events = client.fleet_events(max_events=1, timeout=30)
    assert len(events) == 1
    event = events[0]
    assert event["type"] == "fleet" and event["version"] >= 1
    assert event["summary"]["traces"] >= 1
    assert isinstance(event["alerts"], int)

    html = client.dashboard_html()
    assert html.startswith("<!DOCTYPE html>")
    assert "Critical-lock fleet dashboard" in html and "micro" in html

    assert client.fleet_summary(top=1)["top"]
    assert client.fleet_regressions()["params"]["topk"] == 5
    assert client.fleet_alerts()["rules"] == 1
    assert client.fleet_ingest()["observed"] == 0  # already ingested
    fleet = client.metrics()["fleet"]
    assert fleet["sse_clients"] >= 1


def test_invalid_upload_is_logged_and_skipped(api, tmp_path, caplog):
    """Fleet ingest validates every upload: a malformed trace is logged
    and counted as an error, and the ingest thread keeps going."""
    import numpy as np

    from repro.trace.events import EventType

    trace = make_micro_program().run().trace
    release = int(np.flatnonzero(trace.records["etype"] == int(EventType.RELEASE))[0])
    bad = _without_row(trace, release)
    path = write_trace(bad, tmp_path / "bad.clt")
    with caplog.at_level("WARNING", logger="repro.fleet"):
        status, _ = api.handle("POST", "/traces", path.read_bytes(), {"name": "micro"})
        assert status == 201
        assert api.flush_fleet(timeout=30)
    assert api.metrics.fleet_errors == 1
    assert any("invalid trace" in r.getMessage() for r in caplog.records)
    _upload_micro(api, tmp_path)
    assert api.flush_fleet(timeout=30)
    status, summary = api.handle("GET", "/fleet/summary", b"", {})
    assert summary["traces"] == 1
