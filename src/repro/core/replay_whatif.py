"""Protocol/scheduler what-if: replay a trace under an alternative policy.

The shrink/remove what-ifs (:mod:`repro.core.whatif`) answer "what if
this critical section were cheaper"; this module answers "what if the
*policy* were different" — priority inheritance instead of FIFO handoff,
a writer-preference rwlock, adaptive spinning, a round-robin scheduler.
Serialization bottlenecks are frequently policy artifacts rather than
inherent work, so these forecasts rank the *fixable* share of
contention.

The mechanism is ground-truth replay, not DAG estimation: the trace is
reconstructed into a schedulable program (:mod:`repro.replay`) and
re-executed on the simulator under the requested
:mod:`repro.sim.protocols` / :mod:`repro.sim.schedulers` policies.
Contention fully re-resolves — grant orders, wait times and even the
critical path's shape can change — and the resulting
:class:`ProtocolForecast` diffs the re-ranked critical-lock table
against the baseline analysis.

Trustworthiness rests on :func:`replay_identity`: replaying under the
``recorded`` identity protocol must reproduce the baseline completion
time and critical-lock ranking bit-identically (the 14th ``repro.check``
invariant enforces this for every generated trace).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.analyzer import AnalysisResult, analyze
from repro.core.report import AnalysisReport
from repro.errors import AnalysisError
from repro.tables import format_table
from repro.trace.trace import Trace
from repro.units import format_duration, format_percent

# The replay layer and the simulator are imported where they run, so
# importing :mod:`repro.core` (as ``repro analyze`` does) skips them.
if TYPE_CHECKING:
    from repro.sim.engine import SimResult

__all__ = [
    "LockDelta",
    "ProtocolForecast",
    "replay_whatif",
    "replay_identity",
    "forecast_matrix",
]


@dataclass(frozen=True)
class LockDelta:
    """One lock's metrics before and after the policy change."""

    name: str
    base_rank: int
    new_rank: int
    base_cp_fraction: float
    new_cp_fraction: float
    base_wait_fraction: float
    new_wait_fraction: float
    base_cont_prob: float
    new_cont_prob: float

    @property
    def cp_delta(self) -> float:
        return self.new_cp_fraction - self.base_cp_fraction

    @property
    def wait_delta(self) -> float:
        return self.new_wait_fraction - self.base_wait_fraction


@dataclass(frozen=True)
class ProtocolForecast:
    """Ground-truth outcome of replaying a trace under another policy."""

    name: str
    protocol: str
    scheduler: str
    params: dict[str, Any]
    baseline_time: float
    predicted_time: float
    deltas: list[LockDelta]
    baseline_report: AnalysisReport = field(repr=False)
    predicted_report: AnalysisReport = field(repr=False)

    @property
    def predicted_speedup(self) -> float:
        if self.predicted_time <= 0:
            return float("inf")
        return self.baseline_time / self.predicted_time

    @property
    def predicted_gain(self) -> float:
        """Fractional completion-time reduction (negative = slower)."""
        if self.baseline_time <= 0:
            return 0.0
        return 1.0 - self.predicted_time / self.baseline_time

    @property
    def baseline_critical_lock(self) -> str | None:
        top = self.baseline_report.top_locks(1)
        return top[0].name if top else None

    @property
    def predicted_critical_lock(self) -> str | None:
        top = self.predicted_report.top_locks(1)
        return top[0].name if top else None

    @property
    def reranked(self) -> bool:
        """Did the policy change which lock tops the critical ranking?"""
        return self.baseline_critical_lock != self.predicted_critical_lock

    def render(self, n: int | None = 10) -> str:
        head = self.protocol
        if self.scheduler != "fifo":
            head += f" + {self.scheduler} scheduler"
        if self.params:
            head += " (" + ", ".join(f"{k}={v}" for k, v in self.params.items()) + ")"
        if self.reranked:
            crit = (
                f"critical lock: {self.baseline_critical_lock} -> "
                f"{self.predicted_critical_lock} (re-ranked)"
            )
        else:
            crit = f"critical lock: {self.baseline_critical_lock} (unchanged)"
        lines = [
            f"protocol what-if: {self.name or '(unnamed)'} under {head}",
            f"  baseline completion: {format_duration(self.baseline_time)}   "
            f"predicted: {format_duration(self.predicted_time)}   "
            f"speedup {self.predicted_speedup:.3f} "
            f"({self.predicted_gain:+.1%})",
            f"  {crit}",
        ]
        shown = self.deltas if n is None else self.deltas[:n]
        rows = [
            [
                d.name,
                f"{d.base_rank}->{d.new_rank}"
                if d.base_rank != d.new_rank
                else str(d.new_rank),
                format_percent(d.base_cp_fraction),
                format_percent(d.new_cp_fraction),
                f"{d.cp_delta:+.2%}",
                format_percent(d.base_wait_fraction),
                format_percent(d.new_wait_fraction),
                format_percent(d.base_cont_prob),
                format_percent(d.new_cont_prob),
            ]
            for d in shown
        ]
        table = format_table(
            ["Lock", "Rank", "CP %", "CP' %", "ΔCP", "Wait %", "Wait' %",
             "Cont %", "Cont' %"],
            rows,
            title="Critical-lock re-ranking (baseline -> predicted)",
        )
        return "\n".join(lines) + "\n\n" + table

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "protocol": self.protocol,
            "scheduler": self.scheduler,
            "params": dict(self.params),
            "baseline_time": self.baseline_time,
            "predicted_time": self.predicted_time,
            "predicted_speedup": self.predicted_speedup,
            "predicted_gain": self.predicted_gain,
            "reranked": self.reranked,
            "critical_lock": {
                "baseline": self.baseline_critical_lock,
                "predicted": self.predicted_critical_lock,
            },
            "locks": [
                {
                    "name": d.name,
                    "base_rank": d.base_rank,
                    "new_rank": d.new_rank,
                    "base_cp_fraction": d.base_cp_fraction,
                    "new_cp_fraction": d.new_cp_fraction,
                    "base_wait_fraction": d.base_wait_fraction,
                    "new_wait_fraction": d.new_wait_fraction,
                    "base_cont_prob": d.base_cont_prob,
                    "new_cont_prob": d.new_cont_prob,
                }
                for d in self.deltas
            ],
        }


def _resolve_cores(trace: Trace, cores: int | str | None) -> int | None:
    if cores == "auto":
        return trace.meta.get("cores")
    return cores  # type: ignore[return-value]


def replay_whatif(
    trace: Trace,
    protocol: str = "fifo",
    scheduler: str = "fifo",
    *,
    quantum: float | None = None,
    priorities: dict[int | str, int] | None = None,
    protocol_params: dict[str, Any] | None = None,
    cores: int | str | None = "auto",
    baseline: AnalysisResult | None = None,
) -> ProtocolForecast:
    """Replay ``trace`` under an alternative policy and diff the ranking.

    Parameters
    ----------
    protocol / scheduler:
        Registry names (:func:`repro.sim.available_protocols` /
        :func:`repro.sim.available_schedulers`).
    quantum:
        Round-robin compute quantum (``scheduler="rr"`` only).
    priorities:
        Base priorities for the priority-aware policies, keyed by the
        original trace tid or thread name; unlisted threads get 0.
    protocol_params:
        Keyword arguments for the protocol constructor (e.g.
        ``{"spin_limit": 0.1}`` for ``spin``,
        ``{"ceilings": {...}}`` for ``ceiling``).
    cores:
        ``"auto"`` (default) replays with the recorded core count; an
        int or ``None`` overrides it.
    baseline:
        Pass the trace's own :func:`~repro.core.analyzer.analyze` result
        to amortize analysis across a forecast matrix; its timelines and
        wakers also drive the program reconstruction.
    """
    from repro.replay import reconstruct
    from repro.sim.protocols import get_protocol
    from repro.sim.schedulers import get_scheduler

    params = dict(protocol_params or {})
    if protocol == "recorded":
        proto: Any = "recorded"  # built by the replay layer from the trace
        if params:
            raise AnalysisError("the recorded protocol takes no parameters")
    else:
        proto = get_protocol(protocol, **params)
    sched_params: dict[str, Any] = {}
    if quantum is not None:
        if scheduler != "rr":
            raise AnalysisError(
                f"quantum only applies to the 'rr' scheduler, not {scheduler!r}"
            )
        sched_params["quantum"] = quantum
    sched = get_scheduler(scheduler, **sched_params)

    if baseline is None:
        baseline = analyze(trace)
    prog = reconstruct(trace, baseline.timelines, baseline.wakers).build(
        cores=_resolve_cores(trace, cores),
        seed=trace.meta.get("seed", 0),
        protocol=proto,
        scheduler=sched,
        priorities=priorities,
    )
    result = prog.run()
    # Simulator output, not an input: its well-formedness is the simulator's contract.
    predicted = analyze(result.trace, validate=False).report

    base_report = baseline.report
    base_rank = {
        m.name: i + 1 for i, m in enumerate(base_report.top_locks(None))
    }
    base_locks = {m.name: m for m in base_report.locks.values()}
    deltas = []
    for i, m in enumerate(predicted.top_locks(None)):
        b = base_locks.get(m.name)
        deltas.append(
            LockDelta(
                name=m.name,
                base_rank=base_rank.get(m.name, 0),
                new_rank=i + 1,
                base_cp_fraction=b.cp_fraction if b else 0.0,
                new_cp_fraction=m.cp_fraction,
                base_wait_fraction=b.avg_wait_fraction if b else 0.0,
                new_wait_fraction=m.avg_wait_fraction,
                base_cont_prob=b.avg_cont_prob if b else 0.0,
                new_cont_prob=m.avg_cont_prob,
            )
        )
    shown_params = dict(params)
    if quantum is not None:
        shown_params["quantum"] = quantum
    if priorities:
        shown_params["priorities"] = dict(priorities)
    return ProtocolForecast(
        name=trace.meta.get("name", ""),
        protocol=protocol,
        scheduler=scheduler,
        params=shown_params,
        baseline_time=trace.duration,
        predicted_time=result.completion_time,
        deltas=deltas,
        baseline_report=base_report,
        predicted_report=predicted,
    )


def replay_identity(trace: Trace) -> SimResult:
    """Replay under the recorded identity protocol (fidelity check).

    Uses the trace's own core count and seed and preserves its name, so
    a faithful replay analyzes to a byte-identical report.
    """
    from repro.replay import reconstruct

    prog = reconstruct(trace).build(
        cores=trace.meta.get("cores"),
        seed=trace.meta.get("seed", 0),
        protocol="recorded",
        preserve_name=True,
    )
    return prog.run()


def forecast_matrix(
    trace: Trace,
    protocols: list[str] | None = None,
    schedulers: list[str] | None = None,
    **kwargs: Any,
) -> list[ProtocolForecast]:
    """Forecast every protocol x scheduler combination (shared baseline)."""
    from repro.sim.protocols import available_protocols
    from repro.sim.schedulers import available_schedulers

    if protocols is None:
        protocols = [p for p in available_protocols() if p != "recorded"]
    if schedulers is None:
        schedulers = available_schedulers()
    baseline = analyze(trace)
    out = []
    for proto in protocols:
        for sched in schedulers:
            out.append(
                replay_whatif(
                    trace, proto, sched, baseline=baseline, **kwargs
                )
            )
    return out
