"""Job model and the pure, picklable analysis facade.

:func:`execute` is the single entry point worker processes run: plain
arguments in (kind, trace file paths, a params dict), a plain
JSON-serializable dict out.  Nothing about the service — stores, caches,
sockets — leaks into it, which is what makes it safe to ship across a
``multiprocessing`` boundary under any start method.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ServiceError

__all__ = ["JOB_KINDS", "JobSpec", "Job", "JobStore", "execute"]

#: Public analysis kinds (``selftest`` is internal: diagnostics + tests;
#: ``check`` runs the differential verification harness over a seed range,
#: letting the pool fan a large fuzzing campaign out across workers).
JOB_KINDS = (
    "analyze", "sampled_analyze", "whatif", "whatif_protocol", "compare",
    "forecast", "check", "fleet_summary", "fleet_regressions", "selftest",
)

#: How many traces each kind consumes.
_ARITY = {
    "analyze": 1, "sampled_analyze": 1, "whatif": 1, "whatif_protocol": 1,
    "compare": 2, "forecast": 1, "check": 0, "fleet_summary": 0,
    "fleet_regressions": 0, "selftest": 0,
}

# Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"


@dataclass(frozen=True)
class JobSpec:
    """What to compute: an analysis kind over traces with parameters."""

    kind: str
    digests: tuple[str, ...]
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in JOB_KINDS:
            raise ServiceError(
                f"unknown job kind {self.kind!r}; expected one of {', '.join(JOB_KINDS)}"
            )
        want = _ARITY[self.kind]
        if self.kind != "selftest" and len(self.digests) != want:
            raise ServiceError(
                f"{self.kind} takes {want} trace(s), got {len(self.digests)}"
            )

    def cache_key(self) -> str:
        """Content address of the result: (digests, kind, params)."""
        blob = json.dumps(
            {"kind": self.kind, "digests": list(self.digests), "params": self.params},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class Job:
    """One queued/running/finished unit of analysis work."""

    id: str
    spec: JobSpec
    state: str = QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    result: dict[str, Any] | None = None
    cached: bool = False

    @property
    def latency(self) -> float | None:
        """Submit-to-finish wall time, once finished."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def to_dict(self, include_result: bool = False) -> dict[str, Any]:
        out = {
            "id": self.id,
            "kind": self.spec.kind,
            "traces": list(self.spec.digests),
            "params": self.spec.params,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "latency": self.latency,
            "error": self.error,
            "cached": self.cached,
        }
        if include_result:
            out["result"] = self.result
        return out


class JobStore:
    """Thread-safe in-memory job registry with bounded history."""

    def __init__(self, max_finished: int = 1024):
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []  # insertion order, for trimming/listing
        self._max_finished = max_finished
        self._lock = threading.Lock()

    def create(self, spec: JobSpec) -> Job:
        job = Job(id=uuid.uuid4().hex[:12], spec=spec)
        with self._lock:
            self._jobs[job.id] = job
            self._order.append(job.id)
            self._trim()
        return job

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"no such job: {job_id}", status=404)
        return job

    def list(self) -> list[Job]:
        with self._lock:
            return [self._jobs[i] for i in self._order]

    def count(self, state: str) -> int:
        with self._lock:
            return sum(1 for j in self._jobs.values() if j.state == state)

    # -- state transitions (called from the pool's collector thread) -------

    def mark_running(self, job_id: str) -> None:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None and job.state == QUEUED:
                job.state = RUNNING
                job.started_at = time.time()

    def mark_done(self, job_id: str, result: dict, cached: bool = False) -> Job | None:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            job.state = DONE
            job.result = result
            job.cached = cached
            job.finished_at = time.time()
            if job.started_at is None:
                job.started_at = job.finished_at
            self._trim()
            return job

    def mark_failed(self, job_id: str, error: str) -> Job | None:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            job.state = FAILED
            job.error = error
            job.finished_at = time.time()
            self._trim()
            return job

    def _trim(self) -> None:
        # Drop oldest *finished* jobs beyond the history bound; never drop
        # queued/running jobs (the pool still owes them a completion).
        excess = len(self._order) - self._max_finished
        if excess <= 0:
            return
        kept = []
        for jid in self._order:
            job = self._jobs[jid]
            if excess > 0 and job.state in (DONE, FAILED):
                del self._jobs[jid]
                excess -= 1
            else:
                kept.append(jid)
        self._order = kept


# ---------------------------------------------------------------------------
# The picklable execution facade.
# ---------------------------------------------------------------------------


def _exec_analyze(paths: list[str], params: dict) -> dict:
    from repro.core.analyzer import analyze
    from repro.trace.reader import read_trace

    trace = read_trace(paths[0])
    analysis = analyze(trace, validate=bool(params.get("validate", True)))
    report = analysis.report.to_dict()
    ranking = sorted(
        (
            {"name": name, "cp_time_frac": m["cp_time_frac"],
             "cont_prob_on_cp": m["cont_prob_on_cp"]}
            for name, m in report["locks"].items()
        ),
        key=lambda r: r["cp_time_frac"],
        reverse=True,
    )
    report["critical_locks"] = ranking[: int(params.get("top", 10))]
    if params.get("render"):
        report["rendered"] = analysis.render(int(params.get("top", 10)))
    return report


def _exec_sampled_analyze(paths: list[str], params: dict) -> dict:
    from repro.core.estimate import estimate_report
    from repro.sampling import downsample_trace, trace_sample_rate
    from repro.trace.reader import read_trace

    trace = read_trace(paths[0])
    rate = params.get("rate")
    if rate is not None and trace_sample_rate(trace) is None:
        trace = downsample_trace(trace, float(rate), seed=int(params.get("seed", 0)))
    est = estimate_report(
        trace,
        confidence=float(params.get("confidence", 0.9)),
        bootstrap=int(params.get("bootstrap", 200)),
    )
    report = est.to_dict()
    report["critical_locks"] = [
        {"name": e.name, "cp_time_frac": e.cp_fraction,
         "ci_low": e.ci_low, "ci_high": e.ci_high}
        for e in est.top_locks(int(params.get("top", 10)))
    ]
    if params.get("render"):
        report["rendered"] = est.render(int(params.get("top", 10)))
    return report


def _exec_whatif(paths: list[str], params: dict) -> dict:
    from repro.core.whatif import predict_no_contention, predict_shrink
    from repro.trace.reader import read_trace

    lock = params.get("lock")
    if lock is None:
        raise ServiceError("whatif requires params.lock (lock display name)")
    trace = read_trace(paths[0])
    if params.get("mode", "shrink") == "no-contention":
        res = predict_no_contention(trace, lock)
    else:
        res = predict_shrink(trace, lock, factor=float(params.get("factor", 0.0)))
    return {
        "lock": res.lock_name,
        "mode": res.mode,
        "factor": res.factor,
        "baseline_time": res.baseline_time,
        "predicted_time": res.predicted_time,
        "predicted_speedup": res.predicted_speedup,
        "predicted_gain": res.predicted_gain,
        "summary": str(res),
    }


def _exec_whatif_protocol(paths: list[str], params: dict) -> dict:
    from repro.core.replay_whatif import replay_whatif
    from repro.trace.reader import read_trace

    trace = read_trace(paths[0])
    priorities = params.get("priorities")
    if priorities:
        # JSON object keys are always strings; thread ids arrive as "3".
        priorities = {
            (int(k) if isinstance(k, str) and k.lstrip("-").isdigit() else k): int(v)
            for k, v in priorities.items()
        }
    cores = params.get("cores", "auto")
    forecast = replay_whatif(
        trace,
        protocol=str(params.get("protocol", "fifo")),
        scheduler=str(params.get("scheduler", "fifo")),
        quantum=float(params["quantum"]) if params.get("quantum") is not None else None,
        priorities=priorities,
        protocol_params=params.get("protocol_params"),
        cores=cores if cores in (None, "auto") else int(cores),
    )
    out = forecast.to_dict()
    if params.get("render"):
        out["rendered"] = forecast.render(int(params.get("top", 10)))
    return out


def _exec_compare(paths: list[str], params: dict) -> dict:
    from repro.core.analyzer import analyze
    from repro.core.compare import compare_analyses
    from repro.trace.reader import read_trace

    validate = bool(params.get("validate", True))
    before = analyze(read_trace(paths[0]), validate=validate)
    after = analyze(read_trace(paths[1]), validate=validate)
    return compare_analyses(before, after).to_dict()


def _exec_forecast(paths: list[str], params: dict) -> dict:
    from repro.core.analyzer import analyze
    from repro.core.forecast import forecast
    from repro.trace.reader import read_trace

    analysis = analyze(read_trace(paths[0]), validate=bool(params.get("validate", True)))
    counts = tuple(int(n) for n in params.get("thread_counts", (8, 16, 32, 64)))
    return forecast(analysis).to_dict(thread_counts=counts)


def _exec_check(paths: list[str], params: dict) -> dict:
    # Differential verification over a seed range.  Shrunk failing specs
    # come back inline in the result (workers have no durable filesystem);
    # callers wanting a repro file can write the spec dict verbatim.
    from repro.check import run_seeds

    run = run_seeds(
        count=int(params.get("count", 25)),
        start=int(params.get("start", 0)),
        shrink_failures=bool(params.get("shrink", True)),
        max_shrink_evals=int(params.get("max_shrink_evals", 400)),
    )
    return {
        "ok": run.ok,
        "seeds": len(run.reports),
        "start": int(params.get("start", 0)),
        "failures": [
            {
                "seed": r.seed,
                "invariants": r.invariants,
                "discrepancies": [
                    {"invariant": d.invariant, "detail": d.detail}
                    for d in r.discrepancies
                ],
                "original_op_count": r.op_count,
                "shrunk_spec": r.shrunk.to_dict() if r.shrunk is not None else None,
                "shrink_evals": r.shrink_evals,
            }
            for r in run.failures
        ],
    }


def _exec_fleet_summary(paths: list[str], params: dict) -> dict:
    # Fleet state persists as JSON under the service data dir, so a
    # worker process answers from the same state the API process writes.
    from repro.fleet.aggregate import FleetAggregator

    agg = FleetAggregator(params["state_dir"])
    return agg.summary(top=int(params.get("top", 20)))


def _exec_fleet_regressions(paths: list[str], params: dict) -> dict:
    from repro.fleet.aggregate import FleetAggregator

    agg = FleetAggregator(params["state_dir"])
    kwargs: dict = {}
    if params.get("topk") is not None:
        kwargs["topk"] = int(params["topk"])
    if params.get("noise_floor") is not None:
        kwargs["noise_floor"] = float(params["noise_floor"])
    if params.get("sigma") is not None:
        kwargs["sigma"] = float(params["sigma"])
    return agg.regressions(**kwargs)


def _exec_selftest(paths: list[str], params: dict) -> dict:
    # Internal diagnostics kind: lets tests and health checks exercise the
    # pool without trace I/O.  ``crash`` hard-kills the worker process to
    # drive the supervisor's crash-recovery path.
    import os

    if params.get("crash"):
        os._exit(17)
    if params.get("fail"):
        raise RuntimeError(str(params.get("fail")))
    if params.get("sleep"):
        time.sleep(float(params["sleep"]))
    return {"ok": True, "pid": os.getpid(), "echo": params.get("echo")}


_EXECUTORS: dict[str, Callable[[list[str], dict], dict]] = {
    "analyze": _exec_analyze,
    "sampled_analyze": _exec_sampled_analyze,
    "whatif": _exec_whatif,
    "whatif_protocol": _exec_whatif_protocol,
    "compare": _exec_compare,
    "forecast": _exec_forecast,
    "check": _exec_check,
    "fleet_summary": _exec_fleet_summary,
    "fleet_regressions": _exec_fleet_regressions,
    "selftest": _exec_selftest,
}


def execute(kind: str, paths: list[str], params: dict | None = None) -> dict:
    """Run one analysis job; pure function of its arguments.

    This is the worker-side entry point: module-level (importable under
    the ``spawn`` start method) and free of service state.  ``paths``
    are local trace files, already resolved from digests by the caller.
    """
    fn = _EXECUTORS.get(kind)
    if fn is None:
        raise ServiceError(
            f"unknown job kind {kind!r}; expected one of {', '.join(JOB_KINDS)}"
        )
    return fn(list(paths), dict(params or {}))
