"""The traced in-process replay: each layer's public functions, in pipeline
order, on the benchmark's generated inputs, with one span per call.

``traced_analysis`` mirrors ``repro.core.analyzer.analyze`` stage by stage
(read -> validate -> wakers -> timelines -> walk -> metrics -> render);
its report must equal the one ``analyze()`` gives, which the callers check.
"""

from __future__ import annotations

import time
from pathlib import Path
from types import SimpleNamespace

from inputs import canonical, reference_analysis
from spans import Recorder


def traced_analysis(rec: Recorder, path: Path, request: str):
    """Analyze ``path`` stage by stage; returns (trace, report, rendered)."""
    from repro.core.columnar.metrics import (
        compute_metrics_columnar,
        compute_thread_stats_columnar,
    )
    from repro.core.columnar.timelines import build_timelines_columnar
    from repro.core.columnar.wakers import resolve_wakers_columnar
    from repro.core.columnar.walk import compute_critical_path_columnar
    from repro.core.report import AnalysisReport
    from repro.trace.reader import read_trace
    from repro.trace.validate import validate_trace

    with rec.span("analysis", request):
        with rec.span("trace.read"):
            trace = read_trace(path)
        with rec.span("trace.validate"):
            validate_trace(trace)
        with rec.span("core.wakers"):
            cw = resolve_wakers_columnar(trace)
        with rec.span("core.timelines"):
            ct = build_timelines_columnar(trace, cw)
        with rec.span("core.walk"):
            cp = compute_critical_path_columnar(trace, ct)
        with rec.span("core.metrics"):
            report = AnalysisReport(
                name=str(trace.meta.get("name", "")),
                nthreads=len(ct.tids),
                duration=trace.duration,
                cp=cp,
                locks=compute_metrics_columnar(trace, ct, cp),
                thread_stats=compute_thread_stats_columnar(ct, cp),
            )
        with rec.span("core.render"):
            rendered = report.render(10)
    return trace, report, rendered


def analysis_with_overhead(run, path: Path, request: str) -> tuple[object, float, float]:
    """Stage replay of ``path``, then the same work through ``analyze()``.

    Both must give the reference report.  Returns the trace and the traced
    and untraced wall times, whose ratio is the tracing overhead.
    """
    from repro.core.analyzer import analyze
    from repro.trace.reader import read_trace

    reference = reference_analysis(path)
    rec = run.recorder
    first = len(rec.spans)
    trace, report, rendered = traced_analysis(rec, path, request)
    traced = rec.spans[first].end - rec.spans[first].start
    extra = ("shards", "critical_locks", "rendered")
    expected = {k: v for k, v in reference.items() if k not in extra}
    run.op(rendered == reference["rendered"]
           and canonical(report.to_dict()) == canonical(expected),
           f"stage replay of {path.name} differs from analyze()")
    start = time.perf_counter()
    plain = analyze(read_trace(path)).render(10)
    untraced = time.perf_counter() - start
    run.op(plain == reference["rendered"], f"analyze() of {path.name} differs")
    return trace, traced, untraced


def traced_whatif(rec: Recorder, trace, lock: str, request: str):
    """DAG build, then a shrink prediction on it; returns the prediction."""
    from repro.core.dag import build_event_graph
    from repro.core.whatif import predict_shrink

    with rec.span("whatif", request):
        with rec.span("core.dag"):
            graph = build_event_graph(trace)
        with rec.span("core.whatif"):
            return predict_shrink(trace, lock, 0.5, graph=graph)


def traced_replay(rec: Recorder, trace, protocol: str, request: str):
    from repro.core.replay_whatif import replay_whatif

    with rec.span("core.replay", request):
        return replay_whatif(trace, protocol=protocol)


def traced_fleet_observe(rec: Recorder, state_dir: Path, name: str, path: Path,
                         digest: str, request: str) -> None:
    """What the service's fleet ingestor does with every stored trace."""
    from repro.fleet import FleetAggregator
    from repro.fleet.ingest import observe_stored_trace

    aggregator = FleetAggregator(state_dir)
    entry = SimpleNamespace(digest=digest, path=path, name=name)
    with rec.span("fleet.observe", request):
        observe_stored_trace(aggregator, entry)


def traced_stream(rec: Recorder, trace, chunk_events: int, store_dir: Path,
                  request: str):
    """The stream path in-process: estimate chunk by chunk, then assemble
    the trace (sort), digest it and store it.  Returns the stored entry."""
    import numpy as np

    from repro.core.online import OnlineAnalyzer
    from repro.service.store import TraceStore
    from repro.trace.digest import trace_digest
    from repro.trace.framing import sort_stream_records, split_records
    from repro.trace.trace import Trace

    analyzer = OnlineAnalyzer()
    blocks = list(split_records(trace.records, chunk_events))
    with rec.span("stream", request):
        for block in blocks:
            with rec.span("core.online.observe_batch"):
                analyzer.observe_batch(block)
            with rec.span("core.online.snapshot"):
                analyzer.snapshot()
        spooled = np.concatenate(blocks)
        with rec.span("stream.sort"):
            records = sort_stream_records(spooled)
        assembled = Trace(records=records, objects=trace.objects,
                          threads=trace.threads, meta=trace.meta)
        with rec.span("trace.digest"):
            digest = trace_digest(assembled)
        with rec.span("service.store_put"):
            entry = TraceStore(store_dir).put_trace(assembled)
    return digest, entry
