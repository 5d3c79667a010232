"""Service benchmark: worker-pool fan-out, cache warmth and fresh uploads.

Measures three ways of answering "analyze these N traces":

serial     in-process ``analyze(read_trace(p))`` per trace, one at a time
pool       submitted to a running service with worker processes
warm       the identical jobs resubmitted — every one a cache hit

and the path a new trace takes, one trace at a time:

fresh      ``POST /traces`` then a default ``analyze`` job, upload to
           result; records the median and how many analyses the service
           ran per upload (the pooled fleet-ingest run and the caller's
           job share one, so exactly 1)

Acceptance targets: with N >= 4 traces the pool beats serial
by >= 2x (requires >= 2 usable cores — asserted only then, reported
always), and the warm repeat beats its own cold run by >= 10x.  One
analysis per fresh upload and one fleet observation per upload are
always asserted; they are counts, not timings, so they cannot be noisy.
``--no-speedup-floor`` skips the 2x fan-out floor only: CI runs that way,
because on a shared runner with millisecond jobs the floor measures the
runner's neighbours as much as the pool.

Run standalone (CI runs it directly)::

    PYTHONPATH=src python benchmarks/bench_service.py --quick
    PYTHONPATH=src python benchmarks/bench_service.py --json BENCH_SERVICE.json

or via pytest (``pytest benchmarks/bench_service.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from repro.core.analyzer import analyze
from repro.service import ServiceAPI
from repro.trace.reader import read_trace
from repro.workloads import SyntheticLocks

N_TRACES = 8
N_QUICK = 4
WORKLOAD = dict(nlocks=8, ops_per_thread=300, zipf_skew=1.1)
NTHREADS = 8


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover — non-Linux
        return os.cpu_count() or 1


def make_traces(out_dir: Path, n: int = N_TRACES, first_seed: int = 0) -> list[Path]:
    """n distinct synthetic traces (different seeds => different digests)."""
    from repro.trace.writer import write_trace

    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for seed in range(first_seed, first_seed + n):
        result = SyntheticLocks(**WORKLOAD).run(nthreads=NTHREADS, seed=seed)
        paths.append(write_trace(result.trace, out_dir / f"synthetic-{seed}.clt"))
    return paths


def _started(api: ServiceAPI) -> ServiceAPI:
    """Wait until a worker has run a job: spawn and import are not fan-out."""
    job = api.submit_job({"kind": "selftest", "params": {"echo": "warm-up"}})
    assert api.wait(job["id"], timeout=120)["state"] == "done"
    return api


def _fresh_uploads(api: ServiceAPI, paths: list[Path]) -> dict:
    """Upload each never-seen trace and analyze it with default params."""
    latencies = []
    for path in paths:
        t0 = time.perf_counter()
        status, entry = api.handle("POST", "/traces", path.read_bytes())
        assert status == 201, entry
        job = api.submit_job({"kind": "analyze", "trace": entry["digest"]})
        out = api.wait(job["id"], timeout=600)
        latencies.append(time.perf_counter() - t0)
        assert out["state"] == "done", out
    assert api.flush_fleet(timeout=600)
    metrics = api.snapshot_metrics()
    return {
        "uploads": len(paths),
        "upload_analyze_p50_s": statistics.median(latencies),
        "analyses_per_upload": metrics["jobs"]["runs"].get("analyze", 0) / len(paths),
        "fleet_observed": metrics["fleet"]["observed"],
    }


def run_benchmark(data_dir: Path, n_traces: int = N_TRACES) -> dict:
    paths = make_traces(data_dir / "traces-in", n_traces)
    fresh = make_traces(data_dir / "fresh-in", n_traces, first_seed=n_traces)
    workers = max(2, min(4, usable_cores()))

    # -- serial baseline ----------------------------------------------------
    t0 = time.perf_counter()
    for path in paths:
        analyze(read_trace(path), validate=False)
    t_serial = time.perf_counter() - t0

    with _started(ServiceAPI(data_dir / "svc", workers=workers)) as api:
        digests = [api.store.put_file(p).digest for p in paths]
        params = {"validate": False}

        def run_all() -> float:
            t0 = time.perf_counter()
            ids = [
                api.submit_job({"kind": "analyze", "trace": d, "params": params})["id"]
                for d in digests
            ]
            for job_id in ids:
                out = api.wait(job_id, timeout=600)
                assert out["state"] == "done", out
            return time.perf_counter() - t0

        t_pool = run_all()   # cold: fans out across worker processes
        t_warm = run_all()   # warm: every job short-circuits on the cache
        cache_stats = api.cache.stats()

    with _started(ServiceAPI(data_dir / "svc-fresh", workers=workers)) as api:
        uploads = _fresh_uploads(api, fresh)

    return {
        "n_traces": n_traces,
        "workers": workers,
        "cores": usable_cores(),
        "serial_s": t_serial,
        "pool_s": t_pool,
        "warm_s": t_warm,
        "pool_speedup": t_serial / t_pool,
        "warm_speedup": t_pool / t_warm,
        "cache_hits": cache_stats["hits"],
        **uploads,
    }


def render(r: dict) -> str:
    lines = [
        f"service benchmark: {r['n_traces']} traces, {r['workers']} workers, "
        f"{r['cores']} usable core(s)",
        f"  serial in-process : {r['serial_s']:8.3f} s",
        f"  pool (cold)       : {r['pool_s']:8.3f} s   "
        f"({r['pool_speedup']:.2f}x vs serial)",
        f"  pool (warm cache) : {r['warm_s']:8.3f} s   "
        f"({r['warm_speedup']:.1f}x vs cold, {r['cache_hits']} hits)",
        f"  upload -> analyze : {r['upload_analyze_p50_s']:8.3f} s median of "
        f"{r['uploads']} fresh uploads, {r['analyses_per_upload']:g} analysis per "
        f"upload, {r['fleet_observed']} fleet observations",
    ]
    if r["cores"] < 2:
        lines.append(
            "  note: <2 usable cores — parallel speedup is not achievable "
            "on this machine; the >=2x criterion applies on multi-core hosts"
        )
    return "\n".join(lines)


def check(r: dict, speedup_floor: bool = True) -> None:
    assert r["analyses_per_upload"] == 1, f"{r['analyses_per_upload']} analyses per upload"
    assert r["fleet_observed"] == r["uploads"], r
    assert r["cache_hits"] >= r["n_traces"]
    assert r["warm_speedup"] >= 10.0, f"warm cache only {r['warm_speedup']:.1f}x"
    if speedup_floor and r["cores"] >= 2:
        assert r["pool_speedup"] >= 2.0, f"pool only {r['pool_speedup']:.2f}x"


def test_service_throughput(tmp_path, show):
    result = run_benchmark(tmp_path)
    show(render(result))
    check(result)


def main(argv: list[str] | None = None) -> int:
    import tempfile

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help=f"{N_QUICK} traces per measurement instead of {N_TRACES}")
    ap.add_argument("--json", metavar="PATH", default=None,
                    help="also write the numbers as JSON")
    ap.add_argument("--no-speedup-floor", action="store_true",
                    help="do not assert the >=2x pool fan-out floor")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        result = run_benchmark(Path(tmp), N_QUICK if args.quick else N_TRACES)
    print(render(result))
    if args.json:
        result["machine"] = (f"nproc {os.cpu_count()}, Python "
                             f"{platform.python_version()}")
        Path(args.json).write_text(json.dumps(result, indent=2) + "\n")
    check(result, speedup_floor=not args.no_speedup_floor)
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
