"""Workload ``stream-live``: one producer streams a ~198k-event trace.

The producer sends 4096-event chunks on a fixed schedule (an open loop:
a traced program emits events whether or not the server keeps up), at
``OFFERED_EVENTS_PER_S``, about half of the ingest capacity measured when
this benchmark was written (~140k events/s).  A second thread polls the
session's snapshot every ``SNAPSHOT_INTERVAL_S``.  A chunk's ingest lag
runs from the time it was due until a reply (an ack or a snapshot) shows
it durably ingested.  At the end, ``finalize_stream(analyze=True)`` runs;
a stream's time to analysis runs from its first chunk's due time until
the finalize reply, the analyzed report, arrives.
Streams repeat, each with a fresh trace, while they fit in the window.
"""

from __future__ import annotations

import threading
import time

from common import Run, Window
from inputs import canonical, generate, reference_analysis, sim_seed, without_render
from program import start_servers

CHUNK_EVENTS = 4096
OFFERED_EVENTS_PER_S = 70_000
SNAPSHOT_INTERVAL_S = 0.05
#: Service starts timed for ``setup_s``; the last one carries the load.
SETUP_REPEATS = 3
#: Give up on a chunk that is not durable this long after it was due.
DURABLE_TIMEOUT_S = 60.0


class Stream:
    """One streamed trace: the producer, the snapshot poller, the finalize."""

    def __init__(self, run: Run, url: str, inp, request: str):
        from repro.service.client import ServiceClient
        from repro.trace.framing import split_records

        self.rec = run.recorder
        self.url = url
        self.api = ServiceClient(url)
        self.inp = inp
        self.request = request
        self.blocks = list(split_records(inp.trace.records, CHUNK_EVENTS))
        ends, total = [], 0
        for block in self.blocks:
            total += len(block)
            ends.append(total)
        self.ends = ends  # cumulative events at the end of each chunk
        self.period = CHUNK_EVENTS / OFFERED_EVENTS_PER_S
        self.due: list[float] = []
        self.durable_at: list[float | None] = [None] * len(self.blocks)
        self._durable = 0  # chunks known durable, a prefix
        self._lock = threading.Lock()
        self.late: list[float] = []
        self.snapshots: list[float] = []
        self.backlog_max = 0
        self.finalize_s = 0.0
        self.first_chunk_to_report_s = 0.0
        self.result: dict = {}
        self.errors: list[str] = []

    def _mark(self, chunks: int, when: float) -> None:
        with self._lock:
            for i in range(self._durable, min(chunks, len(self.blocks))):
                self.durable_at[i] = when
            self._durable = max(self._durable, min(chunks, len(self.blocks)))

    def _poll(self, sid: str, stop: threading.Event) -> None:
        from repro.service.client import ServiceClient

        api = ServiceClient(self.url)
        nxt = time.perf_counter()
        while not stop.is_set():
            start = time.perf_counter()
            try:
                with self.rec.span("stream.snapshot_poll", self.request):
                    snap = api.stream_snapshot(sid)
            except Exception as exc:  # a refused poll fails the run
                self.errors.append(f"{self.inp.name}: snapshot poll: {exc}")
                return
            now = time.perf_counter()
            self.snapshots.append(now - start)
            events = snap["events"]
            self._mark(sum(1 for end in self.ends if end <= events), now)
            nxt += SNAPSHOT_INTERVAL_S
            stop.wait(max(0.0, nxt - time.perf_counter()))

    def play(self) -> None:
        from repro.trace.writer import header_dict

        sid = self.api.open_stream(name=self.inp.name)
        stop = threading.Event()
        poller = threading.Thread(target=self._poll, args=(sid, stop))
        t0 = time.perf_counter() + self.period
        self.due = [t0 + i * self.period for i in range(len(self.blocks))]
        poller.start()
        try:
            for i, block in enumerate(self.blocks):
                pause = self.due[i] - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                self.late.append(time.perf_counter() - self.due[i])
                with self.rec.span("stream.chunk_ack", self.request):
                    ack = self.api.send_chunk(sid, i, block)
                self.backlog_max = max(self.backlog_max, ack["pending_chunks"])
                self._mark(ack["durable_chunk"], time.perf_counter())
            deadline = time.perf_counter() + DURABLE_TIMEOUT_S
            while self._durable < len(self.blocks) and time.perf_counter() < deadline:
                time.sleep(SNAPSHOT_INTERVAL_S / 5)
        finally:
            stop.set()
            poller.join()
        start = time.perf_counter()
        with self.rec.span("stream.finalize", self.request):
            self.result = self.api.finalize_stream(
                sid, header=header_dict(self.inp.trace), analyze=True, name=self.inp.name)
        self.finalize_s = time.perf_counter() - start
        self.first_chunk_to_report_s = time.perf_counter() - self.due[0]

    def lags(self) -> list[float]:
        return [at - due for at, due in zip(self.durable_at, self.due) if at is not None]


def _check(run: Run, stream: Stream) -> None:
    inp = stream.inp
    for err in stream.errors:
        run.op(False, err)
    # Every chunk POST and snapshot poll is an operation; a chunk refused
    # with 429 (and retried) counts as a failed one.
    rejected = stream.result["stream"]["rejected_429"]
    run.attempted += len(stream.blocks) + rejected + len(stream.snapshots)
    run.failed += rejected
    if rejected:
        run.problems.append(f"{inp.name}: {rejected} chunks refused with 429")
    lost = sum(1 for at in stream.durable_at if at is None)
    run.op(lost == 0, f"{inp.name}: {lost} chunks never shown durable")
    run.op(stream.result["trace"]["digest"] == inp.digest,
           f"{inp.name}: finalized digest differs from trace_digest of the batch trace")
    reference = without_render(reference_analysis(inp.path))
    run.op(canonical(stream.result["report"]) == canonical(reference),
           f"{inp.name}: finalized report differs from the batch report")


def _input(run: Run, index: int):
    inp = generate("rad16", sim_seed(run.seed, 300 + index), run.input_dir, f"stream{index}")
    run.provenance(inp)
    return inp


def _streams(run: Run) -> list[Stream]:
    setups, server = start_servers(SETUP_REPEATS, run.workdir)
    streams: list[Stream] = []
    durations: list[float] = []
    try:
        run.setup(setups)
        # Each stream gets a never-seen trace, generated between streams
        # and outside the window.
        inp = _input(run, 0)
        window = Window(run.seconds)
        while True:
            stream = Stream(run, server.url, inp, f"stream{len(streams)}")
            start = time.perf_counter()
            stream.play()
            durations.append(time.perf_counter() - start)
            streams.append(stream)
            paused = time.perf_counter()
            if not window.fits(durations):
                break
            inp = _input(run, len(streams))
            window.start += time.perf_counter() - paused
        stats = stream.api.metrics()
    finally:
        server.stop()
    for stream in streams:
        _check(run, stream)
    lags = [x for s in streams for x in s.lags()]
    run.timing("ingest_lag_p50_s", "ingest_lag_tail_s", lags)
    run.timing("snapshot_p50_ms", None, [x * 1e3 for s in streams for x in s.snapshots], "ms")
    run.timing("finalize_s", None, [s.finalize_s for s in streams])
    stream_s = run.timing("stream_s", None, [s.first_chunk_to_report_s for s in streams])
    late_max = max(x for s in streams for x in s.late)
    period = streams[0].period
    rejected = sum(s.result["stream"]["rejected_429"] for s in streams)
    run.e2e.update({
        "analysis_p50_s": stream_s["p50"],
        "peak_rss_mb": server.maxrss_mb,
    })
    run.counters.update({
        "loadgen.late_max_s": late_max,
        "stream.backlog_max_chunks": max(s.backlog_max for s in streams),
        "stream.rejected_429": rejected,
        "fleet.observed": stats["fleet"]["observed"],
    })
    run.detail("offered", f"{OFFERED_EVENTS_PER_S} events/s",
               f"{CHUNK_EVENTS}-event chunks every {period * 1e3:.1f} ms, "
               f"snapshot every {SNAPSHOT_INTERVAL_S * 1e3:.0f} ms")
    run.detail("loadgen.late_max_s", late_max, "s")
    if late_max > period:
        run.detail("WARNING", "the producer fell more than one chunk period behind",
                   "open loop not held")
    run.detail("stream.rejected_429", rejected, "chunks refused (retried)")
    return streams


def measure(run: Run) -> None:
    _streams(run)


def trace_layers(run: Run) -> None:
    """The same streams with client spans, then the first stream's trace
    through the stream, store and analysis layers in-process."""
    from stages import analysis_with_overhead, traced_fleet_observe, traced_stream

    rec = run.recorder
    inp = _streams(run)[0].inp
    digest, entry = traced_stream(rec, inp.trace, CHUNK_EVENTS, run.workdir / "store",
                                  "replay")
    run.op(digest == inp.digest, f"{inp.name}: in-process stream digest differs")
    _, traced, untraced = analysis_with_overhead(run, entry.path, "replay")
    run.counters["tracing.overhead_frac"] = traced / untraced - 1.0
    traced_fleet_observe(rec, run.workdir / "fleet", inp.name, entry.path, digest, "replay")
