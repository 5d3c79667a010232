"""Workload ``service-jobs``: a closed loop of 2 clients against ``repro serve``.

Each client iteration, waiting for every reply before the next request:

1. upload a never-seen trace and ``analyze`` it (OpenLDAP 16 threads ~13k
   events, or Radiosity 8 threads ~21k events, alternating);
2. ``whatif`` (DAG shrink, factor 0.5) on the first reported lock;
3. ``whatif_protocol`` with the next protocol of ``PROTOCOLS``;
4. ``analyze`` again on the trace of the previous iteration, a result-cache
   hit (the hot set stays far below the 256-entry cache).

The service runs as a subprocess with default flags (2 workers), so the
load and the server do not share an interpreter lock.
"""

from __future__ import annotations

import math
import threading
import time

from common import Run, Window
from inputs import canonical, generate, reference_analysis, sim_seed, without_render
from program import start_servers
from spans import balanced_median

CLIENTS = 2
#: The client's job-status poll interval (``ServiceClient.wait``'s default).
POLL_S = 0.05
PROTOCOLS = ("fifo", "reader-pref", "phase-fair", "spin")
#: Fresh traces alternate between these inputs (see inputs.SHAPES).
SHAPES = ("ldap16", "rad8")
#: Service starts timed for ``setup_s``; the last one carries the load.
SETUP_REPEATS = 3
#: Pre-generated fresh traces per client: enough for an iteration every
#: ``MIN_ITERATION_S`` seconds.  A client that runs out stops early.
MIN_ITERATION_S = 1.0
#: Fresh traces the traced run also replays in-process, stage by stage.
REPLAYED = 4


class Client:
    """One closed-loop client and everything it observed."""

    def __init__(self, run: Run, url: str, index: int, fresh: list, clock_offset: float):
        from repro.service.client import ServiceClient

        self.rec = run.recorder
        self.api = ServiceClient(url)
        self.index = index
        self.fresh = fresh
        self.offset = clock_offset  # perf_counter() - time.time()
        # (job label, trace shape) -> latencies
        self.lat: dict[tuple[str, str], list[float]] = {}
        self.results: list[dict] = []  # one per completed iteration
        self.jobs = 0
        self.errors: list[str] = []

    def _wait(self, job_id: str) -> dict:
        """Poll like ``ServiceClient.wait``; record the server-side phases."""
        while True:
            job = self.api.job(job_id)
            if job["state"] in ("done", "failed"):
                break
            time.sleep(POLL_S)
        if job["state"] == "failed":
            raise RuntimeError(f"job {job_id} ({job['kind']}) failed: {job['error']}")
        result = self.api.report(job_id)["result"]
        received = time.perf_counter()
        off, parent = self.offset, self.rec.current()
        sub, start, fin = job["submitted_at"], job["started_at"], job["finished_at"]
        if not job["cached"]:
            self.rec.add("service.queue_wait", sub + off, start + off, parent)
            self.rec.add(f"service.run.{job['kind']}", start + off, fin + off, parent)
        self.rec.add("service.poll", fin + off, received, parent)
        self.jobs += 1
        return result

    def _job(self, label: str, shape: str, request: str, kind: str, digest: str,
             params: dict) -> dict:
        start = time.perf_counter()
        with self.rec.span(f"job.{label}", request):
            result = self._wait(self.api.submit(kind, digest, params))
        self.lat.setdefault((label, shape), []).append(time.perf_counter() - start)
        return result

    def loop(self, window: Window) -> None:
        iterations: list[float] = []
        for k, inp in enumerate(self.fresh):
            if not window.fits(iterations):
                return
            request = f"c{self.index}i{k}"
            start = time.perf_counter()
            try:
                with self.rec.span("job.analyze", request):
                    with self.rec.span("service.upload"):
                        digest = self.api.upload_trace(inp.path)
                    analysis = self._wait(self.api.submit("analyze", digest, {}))
                self.lat.setdefault(("analyze", inp.shape), []).append(
                    time.perf_counter() - start)
                lock = analysis["critical_locks"][0]["name"]
                shrink = self._job("whatif", inp.shape, request, "whatif", digest,
                                   {"lock": lock, "factor": 0.5})
                protocol = PROTOCOLS[k % len(PROTOCOLS)]
                replay = self._job("whatif_protocol", inp.shape, request, "whatif_protocol",
                                   digest, {"protocol": protocol, "scheduler": "fifo"})
                previous = self.results[-1] if self.results else None
                again = previous or {"digest": digest, "input": inp}
                cached = self._job("cached", again["input"].shape, request, "analyze",
                                   again["digest"], {})
            except Exception as exc:  # a refused or failed request fails the run
                self.errors.append(f"client {self.index} iteration {k}: {exc}")
                return
            iterations.append(time.perf_counter() - start)
            self.results.append({
                "input": inp, "digest": digest, "analysis": analysis, "lock": lock,
                "shrink": shrink, "protocol": protocol, "replay": replay,
                "cached": cached,
                "cached_of": previous["analysis"] if previous else analysis,
            })


def _check(run: Run, clients: list[Client]) -> None:
    """Compare every service result with the in-process computation."""
    from repro.core.whatif import predict_shrink

    for client in clients:
        for err in client.errors:
            run.op(False, err)
        for r in client.results:
            inp = r["input"]
            run.op(r["digest"] == inp.digest, f"{inp.name}: upload digest differs")
            reference = without_render(reference_analysis(inp.path))
            run.op(canonical(r["analysis"]) == canonical(reference),
                   f"{inp.name}: analyze result differs from execute('analyze')")
            want = predict_shrink(inp.trace, r["lock"], 0.5)
            got = r["shrink"]
            run.op((got["lock"], got["baseline_time"], got["predicted_time"])
                   == (want.lock_name, want.baseline_time, want.predicted_time),
                   f"{inp.name}: whatif differs from predict_shrink")
            replay = r["replay"]
            run.op(replay["protocol"] == r["protocol"]
                   and replay["baseline_time"] == reference["duration"]
                   and replay["predicted_time"] > 0,
                   f"{inp.name}: whatif_protocol {r['protocol']} baseline differs")
            run.op(canonical(r["cached"]) == canonical(r["cached_of"]),
                   f"{inp.name}: cached analyze differs from the first result")


def _fresh_inputs(run: Run) -> list[list]:
    per_client = math.ceil(run.seconds / MIN_ITERATION_S) + 2
    fresh = []
    for c in range(CLIENTS):
        # Clients alternate shapes out of phase, so that the two shapes
        # stay equally loaded at any moment.
        shapes = [SHAPES[(c + k) % len(SHAPES)] for k in range(per_client)]
        fresh.append([
            generate(shape, sim_seed(run.seed, 100 * (c + 1) + k), run.input_dir,
                     f"c{c}-{k}-{shape}")
            for k, shape in enumerate(shapes)
        ])
        for inp in fresh[-1]:
            run.provenance(inp)
    return fresh


def _drive(run: Run, fresh: list[list]) -> tuple[list[Client], float, dict, float]:
    """Start the service, run the closed loop, stop the service.

    Returns the clients, the loop's wall time, the service's ``/metrics``
    and its peak RSS."""
    setups, server = start_servers(SETUP_REPEATS, run.workdir)
    try:
        run.setup(setups)
        offset = time.perf_counter() - time.time()
        clients = [Client(run, server.url, c, fresh[c], offset) for c in range(CLIENTS)]
        window = Window(run.seconds)
        threads = [threading.Thread(target=c.loop, args=(window,)) for c in clients]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = window.elapsed
        stats = clients[0].api.metrics()
    finally:
        server.stop()
    return clients, elapsed, stats, server.maxrss_mb


def _record(run: Run, clients: list[Client], elapsed: float, stats: dict,
            rss_mb: float) -> None:
    def by_shape(*labels: str) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for c in clients:
            for (label, shape), values in c.lat.items():
                if label in labels:
                    out.setdefault(shape, []).extend(values)
        return out

    def pooled(*labels: str) -> list[float]:
        return [x for values in by_shape(*labels).values() for x in values]

    jobs = sum(c.jobs for c in clients)
    run.timing("analyze_job_p50_s", "analyze_job_tail_s", pooled("analyze"))
    run.timing("whatif_job_p50_s", "whatif_job_tail_s", pooled("whatif", "whatif_protocol"))
    run.timing("shrink_job_p50_s", None, pooled("whatif"))
    run.timing("protocol_job_p50_s", None, pooled("whatif_protocol"))
    run.timing("cached_job_p50_s", None, pooled("cached"))
    cache = stats["cache"]
    lookups = cache["hits"] + cache["misses"]
    run.e2e.update({
        "analysis_p50_s": balanced_median(by_shape("analyze")),
        "peak_rss_mb": rss_mb,
    })
    run.counters.update({
        "service.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "service.cache_lookups": lookups,
        "fleet.observed": stats["fleet"]["observed"],
        "loadgen.clients": CLIENTS,
    })
    run.detail("jobs_per_s", jobs / elapsed, f"1/s ({jobs} jobs in {elapsed:.1f} s)")
    run.detail("service.cache_hit_ratio", run.counters["service.cache_hit_ratio"],
               f"of {lookups} lookups")
    run.detail("fleet.observed", stats["fleet"]["observed"], "traces")
    run.detail("loadgen", f"{CLIENTS} closed-loop clients", f"poll every {POLL_S} s")
    if any(len(c.results) == len(c.fresh) for c in clients):
        run.detail("WARNING", "a client used up its fresh traces", "window ended early")


def measure(run: Run) -> None:
    clients, elapsed, stats, rss_mb = _drive(run, _fresh_inputs(run))
    _record(run, clients, elapsed, stats, rss_mb)
    _check(run, clients)


def trace_layers(run: Run) -> None:
    """The same loop with client-side spans and the job's server-side phases,
    then the first ``REPLAYED`` fresh traces replayed in-process by layer."""
    from stages import (
        analysis_with_overhead,
        traced_fleet_observe,
        traced_replay,
        traced_whatif,
    )

    clients, elapsed, stats, rss_mb = _drive(run, _fresh_inputs(run))
    _record(run, clients, elapsed, stats, rss_mb)
    _check(run, clients)
    rec = run.recorder
    done = [r for c in clients for r in c.results][:REPLAYED]
    traced_walls, untraced_walls = [], []
    for i, r in enumerate(done):
        inp = r["input"]
        request = f"replay{i}"
        trace, traced, untraced = analysis_with_overhead(run, inp.path, request)
        traced_walls.append(traced)
        untraced_walls.append(untraced)
        traced_whatif(rec, trace, r["lock"], request)
        traced_replay(rec, trace, r["protocol"], request)
        traced_fleet_observe(rec, run.workdir / "fleet", inp.name, inp.path, inp.digest,
                             request)
    if traced_walls:
        run.counters["tracing.overhead_frac"] = sum(traced_walls) / sum(untraced_walls) - 1.0
