"""The differential oracle: every invariant a correct analysis satisfies.

``check_trace`` runs a trace through both critical-path formulations —
the backward walk (:func:`~repro.core.analyzer.analyze`) and the forward
event DAG (:class:`EventGraph`) — plus the metric, online and serialization
layers, and returns one :class:`Discrepancy` per violated invariant
(empty list = clean).  Invariant ids (see ``docs/check.md``):

``cp-length``      walk length == DAG completion time == trace duration
``piece-tiling``   CP pieces tile [trace start, trace end] contiguously
``junctions``      junctions consistent with pieces and walk waits
``dag-path``       ``critical_events`` path is source-anchored and sums
                   to the completion time
``dag-rescale``    the longest path survives a time-unit rescaling
                   round-trip (distances recomputed in another unit,
                   scaled back, and fed to the backtracker)
``metrics``        per-lock invariant bounds (cp_fraction ∈ [0, 1], ...)
``online``         TYPE 2 sums match ``OnlineAnalyzer`` counters exactly
``online-chain``   online dependent-chain max matches an independent
                   offline replay (mutexes only)
``roundtrip``      trace → .clt/.jsonl → trace is lossless
``truncated``      the prefix cut before the first THREAD_EXIT still
                   analyzes, with completion == truncated duration
``engine-equiv``   ``analyze`` (the columnar engine) and the per-event
                   reference pipeline (:mod:`repro.check.refengine`)
                   produce *bit-identical* results: critical-path
                   pieces/junctions/waits, report dict, byte-equal
                   render, identical timelines and waker tables — and
                   neither emits a zero-duration Wait
``replay-identity`` reconstructing the trace into a schedulable program
                   and re-running it under the ``recorded`` identity
                   protocol reproduces the baseline completion time and
                   the critical-lock ranking bit-identically
``sample-coverage`` downsampling the trace (rates 1.0/0.5/0.2) and
                   estimating statistically never errors, reproduces the
                   exact ``cp_fraction`` bit-for-bit at rate 1.0, emits
                   well-formed intervals, and the intervals contain the
                   exact value for at least the nominal fraction of
                   cells (minus binomial slack)
``validator-equiv`` the columnar validator (:mod:`repro.trace.validate`)
                   and the per-event reference
                   (:mod:`repro.check.refvalidate`) return identical
                   problem lists, order included, for the trace and for
                   seeded single-row mutants of it (drop, re-type,
                   re-tid, re-object)
``malformed-rejected`` every mutant the reference flags makes the
                   default ``analyze`` and ``predict_shrink`` raise
                   ``TraceValidationError``; neither yields an answer
``analysis-error`` the pipeline raised instead of producing a result
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.check.mutate import single_row_mutants
from repro.check.refengine import reference_analyze
from repro.check.refvalidate import reference_trace_problems
from repro.core.analyzer import analyze
from repro.core.online import OnlineAnalyzer
from repro.core.whatif import predict_shrink
from repro.errors import ReproError, TraceValidationError
from repro.trace.events import EventType, ObjectKind
from repro.trace.reader import read_trace
from repro.trace.trace import Trace
from repro.trace.validate import trace_problems
from repro.trace.writer import write_trace

__all__ = ["Discrepancy", "check_trace"]

_REL = 1e-9
_ABS = 1e-9
#: Single-row mutants per trace for validator-equiv / malformed-rejected.
_MUTANTS_PER_TRACE = 8


@dataclass(frozen=True)
class Discrepancy:
    """One violated oracle invariant."""

    invariant: str  # short id, stable across runs (shrinker keys on it)
    detail: str

    def __str__(self) -> str:  # pragma: no cover - display only
        return f"[{self.invariant}] {self.detail}"


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_REL, abs_tol=_ABS)


def check_trace(trace: Trace, has_nested_holds: bool = True) -> list[Discrepancy]:
    """Run every oracle invariant; return all violations found.

    ``has_nested_holds`` disables the whole-program ``Σ cp_hold ≤
    cp_length`` bound, which only holds when no thread ever holds two
    lock-like objects at once (nested holds legitimately double-count
    critical-path time across locks).
    """
    out: list[Discrepancy] = []
    try:
        result = analyze(trace)
        graph = result.graph
    except ReproError as exc:
        return [Discrepancy("analysis-error", f"{type(exc).__name__}: {exc}")]

    cp = result.critical_path
    duration = trace.duration

    # -- cp-length: the two formulations agree with each other and reality
    completion = graph.completion_time()
    if not _close(cp.length, duration):
        out.append(
            Discrepancy(
                "cp-length",
                f"backward walk length {cp.length!r} != trace duration {duration!r}",
            )
        )
    if not _close(completion, duration):
        out.append(
            Discrepancy(
                "cp-length",
                f"DAG completion {completion!r} != trace duration {duration!r}",
            )
        )

    # -- piece-tiling
    pieces = cp.pieces
    if not pieces:
        if len(trace):
            out.append(Discrepancy("piece-tiling", "non-empty trace, no CP pieces"))
    else:
        if not _close(pieces[0].start, trace.start_time):
            out.append(
                Discrepancy(
                    "piece-tiling",
                    f"first piece starts at {pieces[0].start!r}, "
                    f"trace starts at {trace.start_time!r}",
                )
            )
        if not _close(pieces[-1].end, trace.end_time):
            out.append(
                Discrepancy(
                    "piece-tiling",
                    f"last piece ends at {pieces[-1].end!r}, "
                    f"trace ends at {trace.end_time!r}",
                )
            )
        for i, p in enumerate(pieces):
            if p.end < p.start:
                out.append(
                    Discrepancy("piece-tiling", f"piece {i} has negative duration: {p}")
                )
            if i and not _close(pieces[i - 1].end, p.start):
                out.append(
                    Discrepancy(
                        "piece-tiling",
                        f"gap between piece {i - 1} (ends {pieces[i - 1].end!r}) "
                        f"and piece {i} (starts {p.start!r})",
                    )
                )

    # -- junctions: crossings line up with pieces and traversed waits
    if len(cp.junctions) != max(0, len(pieces) - 1):
        out.append(
            Discrepancy(
                "junctions",
                f"{len(cp.junctions)} junctions for {len(pieces)} pieces",
            )
        )
    else:
        for i, j in enumerate(cp.junctions):
            before, after = pieces[i], pieces[i + 1]
            if j.to_tid != after.tid or j.from_tid != before.tid:
                out.append(
                    Discrepancy(
                        "junctions",
                        f"junction {i} crosses T{j.from_tid}->T{j.to_tid} but pieces "
                        f"are T{before.tid}->T{after.tid}",
                    )
                )
            if not _close(j.time, after.start):
                out.append(
                    Discrepancy(
                        "junctions",
                        f"junction {i} at {j.time!r} != next piece start {after.start!r}",
                    )
                )
    n_sync = sum(1 for j in cp.junctions if j.kind is not None)
    if n_sync != len(cp.waits):
        out.append(
            Discrepancy(
                "junctions",
                f"{n_sync} synchronization junctions but {len(cp.waits)} waits",
            )
        )

    # -- dag-path: one longest path, source-anchored, correct total weight
    out += _check_dag_path(trace, graph, completion)

    # -- metrics
    out += _check_metrics(result, cp, has_nested_holds)

    # -- online + online-chain
    out += _check_online(trace, result)

    # -- roundtrip
    out += _check_roundtrip(trace)

    # -- truncated
    out += _check_truncated(trace)

    # -- engine-equiv
    out += _check_engines(trace, result)

    # -- replay-identity
    out += _check_replay_identity(trace, result)

    # -- sample-coverage
    out += _check_sampling(trace, result)

    # -- validator-equiv + malformed-rejected
    out += _check_validators(trace)

    return out


def _check_dag_path(trace: Trace, graph, completion: float) -> list[Discrepancy]:
    out: list[Discrepancy] = []
    path = graph.critical_events()
    if not path:
        if len(trace):
            return [Discrepancy("dag-path", "non-empty trace, empty critical path")]
        return out
    if path[0] not in set(int(p) for p in graph.sources):
        out.append(
            Discrepancy(
                "dag-path",
                f"path starts at record {path[0]} which is not a root THREAD_START",
            )
        )
    times = trace.records["time"]
    for a, b in zip(path, path[1:]):
        if times[b] < times[a]:
            out.append(
                Discrepancy(
                    "dag-path",
                    f"path goes backwards in time: record {a} ({times[a]!r}) "
                    f"-> record {b} ({times[b]!r})",
                )
            )
            break
    # The path's edge weights must sum to the completion time (minus the
    # source offset, which is 0 on simulator traces).
    edge_of = {
        (int(graph.edge_src[e]), int(graph.edge_dst[e])): e
        for e in range(len(graph.edge_src))
    }
    total = float(times[path[0]] - trace.start_time)
    for a, b in zip(path, path[1:]):
        e = edge_of.get((a, b))
        if e is None:
            out.append(Discrepancy("dag-path", f"path step {a}->{b} is not an edge"))
            return out
        total += float(graph.edge_w[e])
    if not _close(total, completion):
        out.append(
            Discrepancy(
                "dag-path",
                f"path weight sum {total!r} != completion {completion!r}",
            )
        )

    # -- dag-rescale: unit-conversion invariance.  Recompute the distance
    # array in another time unit (ms -> s), scale it back, and hand it to
    # the backtracker.  Mathematically the same distances, but the
    # round-trip perturbs every value by a few ulps — the regime where
    # exact-equality backtracking truncates the walk mid-path.
    scale = 1e-3
    rescaled = graph.longest_dist(graph.edge_w * scale) / scale
    path2 = graph.critical_events(dist=rescaled)
    sources = set(int(p) for p in graph.sources)
    if not path2:
        out.append(Discrepancy("dag-rescale", "rescaled backtracking found no path"))
    elif path2[0] not in sources:
        out.append(
            Discrepancy(
                "dag-rescale",
                f"rescaled path stops at record {path2[0]} "
                "instead of reaching a root THREAD_START",
            )
        )
    return out


def _check_metrics(result, cp, has_nested_holds: bool) -> list[Discrepancy]:
    out: list[Discrepancy] = []
    cp_length = cp.length
    tol = _ABS + _REL * max(1.0, abs(cp_length))
    cp_hold_sum = 0.0
    for lm in result.report.locks.values():
        if not (-tol <= lm.cp_fraction <= 1.0 + tol):
            out.append(
                Discrepancy(
                    "metrics", f"{lm.name}: cp_fraction {lm.cp_fraction!r} outside [0, 1]"
                )
            )
        if lm.cp_hold_time > cp_length + tol:
            out.append(
                Discrepancy(
                    "metrics",
                    f"{lm.name}: cp_hold_time {lm.cp_hold_time!r} > "
                    f"cp length {cp_length!r}",
                )
            )
        if lm.cp_hold_time > lm.total_hold_time + tol:
            out.append(
                Discrepancy(
                    "metrics",
                    f"{lm.name}: cp_hold_time {lm.cp_hold_time!r} > "
                    f"total_hold_time {lm.total_hold_time!r}",
                )
            )
        if lm.contended_invocations > lm.total_invocations:
            out.append(
                Discrepancy(
                    "metrics",
                    f"{lm.name}: contended {lm.contended_invocations} > "
                    f"invocations {lm.total_invocations}",
                )
            )
        if lm.contended_on_cp > lm.invocations_on_cp:
            out.append(
                Discrepancy(
                    "metrics",
                    f"{lm.name}: contended_on_cp {lm.contended_on_cp} > "
                    f"invocations_on_cp {lm.invocations_on_cp}",
                )
            )
        cp_hold_sum += lm.cp_hold_time
    if not has_nested_holds and cp_hold_sum > cp_length + tol:
        out.append(
            Discrepancy(
                "metrics",
                f"sum of cp_hold_time {cp_hold_sum!r} > cp length {cp_length!r} "
                "without nested holds",
            )
        )
    return out


def _check_online(trace: Trace, result) -> list[Discrepancy]:
    out: list[Discrepancy] = []
    online = OnlineAnalyzer().observe_all(trace)
    for lm in result.report.locks.values():
        try:
            ls = online.stats(lm.obj)
        except KeyError:
            if lm.total_invocations:
                out.append(
                    Discrepancy(
                        "online", f"{lm.name}: {lm.total_invocations} offline "
                        "invocations but no online stats",
                    )
                )
            continue
        if ls.invocations != lm.total_invocations:
            out.append(
                Discrepancy(
                    "online",
                    f"{lm.name}: invocations online {ls.invocations} != "
                    f"offline {lm.total_invocations}",
                )
            )
        if ls.contended != lm.contended_invocations:
            out.append(
                Discrepancy(
                    "online",
                    f"{lm.name}: contended online {ls.contended} != "
                    f"offline {lm.contended_invocations}",
                )
            )
        if not _close(ls.wait_time, lm.total_wait_time):
            out.append(
                Discrepancy(
                    "online",
                    f"{lm.name}: wait_time online {ls.wait_time!r} != "
                    f"offline {lm.total_wait_time!r}",
                )
            )
        if not _close(ls.hold_time, lm.total_hold_time):
            out.append(
                Discrepancy(
                    "online",
                    f"{lm.name}: hold_time online {ls.hold_time!r} != "
                    f"offline {lm.total_hold_time!r}",
                )
            )
        if lm.kind == ObjectKind.MUTEX:
            offline_chain = _offline_max_chain(trace, lm.obj)
            if not _close(ls.max_chain_time, offline_chain):
                out.append(
                    Discrepancy(
                        "online-chain",
                        f"{lm.name}: online max chain {ls.max_chain_time!r} != "
                        f"offline replay {offline_chain!r}",
                    )
                )
    return out


def _offline_max_chain(trace: Trace, obj: int) -> float:
    """Independent replay of the dependent-chain heuristic for a mutex.

    Works directly on the record arrays rather than the event stream: a
    run starts at an uncontended OBTAIN (for a mutex an uncontended
    acquisition always means the previous holder released at or before
    this instant — an equal timestamp is still not a dependency) and
    accumulates hold time through consecutive contended handoffs.
    """
    records = trace.records
    sub = records[records["obj"] == obj]
    obtain_at: dict[int, float] = {}
    chain = 0.0
    best = 0.0
    for row in sub:
        etype = int(row["etype"])
        tid = int(row["tid"])
        if etype == int(EventType.OBTAIN):
            if not row["arg"]:
                chain = 0.0
            obtain_at[tid] = float(row["time"])
        elif etype == int(EventType.RELEASE):
            start = obtain_at.pop(tid, float(row["time"]))
            chain += float(row["time"]) - start
            best = max(best, chain)
    return best


def _check_engines(trace: Trace, result) -> list[Discrepancy]:
    """``analyze`` and the reference pipeline must agree bit-for-bit.

    ``result`` came from ``analyze`` (the columnar engine); this runs the
    per-event reference pipeline over the same trace and demands ``==``
    everywhere — the columnar engine's contract is *bit-identity*, not
    numerical closeness, which is what lets the goldens and the JSON
    export stand for both.
    """
    try:
        ref = reference_analyze(trace)
    except ReproError as exc:
        return [
            Discrepancy(
                "engine-equiv", f"reference pipeline raised {type(exc).__name__}: {exc}"
            )
        ]
    out: list[Discrepancy] = []
    col_cp, ref_cp = result.critical_path, ref.critical_path
    if col_cp.pieces != ref_cp.pieces:
        out.append(
            Discrepancy(
                "engine-equiv",
                f"critical-path pieces differ: {len(col_cp.pieces)} columnar "
                f"vs {len(ref_cp.pieces)} reference",
            )
        )
    if col_cp.junctions != ref_cp.junctions:
        out.append(Discrepancy("engine-equiv", "junction lists differ"))
    if col_cp.waits != ref_cp.waits:
        out.append(Discrepancy("engine-equiv", "traversed wait lists differ"))
    if result.report.to_dict() != ref.report.to_dict():
        out.append(Discrepancy("engine-equiv", "report dicts differ"))
    if result.report.render(None) != ref.report.render(None):
        out.append(Discrepancy("engine-equiv", "rendered reports are not byte-equal"))
    if result.timelines != ref.timelines:
        out.append(Discrepancy("engine-equiv", "reconstructed timelines differ"))
    if result.wakers != ref.wakers:
        out.append(Discrepancy("engine-equiv", "waker tables differ"))
    for res, engine in ((result, "columnar"), (ref, "reference")):
        for tid, tl in res.timelines.items():
            for w in tl.waits:
                if w.duration == 0:
                    out.append(
                        Discrepancy(
                            "engine-equiv",
                            f"{engine} pipeline kept a zero-duration wait: "
                            f"T{tid} seq {w.wake_seq}",
                        )
                    )
                    break
    return out


def _check_replay_identity(trace: Trace, result) -> list[Discrepancy]:
    """Identity replay must reproduce the baseline answer exactly.

    The trace is reconstructed into a schedulable program
    (:mod:`repro.replay`) and re-run under the ``recorded`` protocol,
    which forces every contended grant and condition wake-up back into
    its recorded order.  A faithful replay layer makes this a no-op, so
    the completion time must match bit-for-bit and the critical-lock
    ranking — ``(name, cp_fraction)`` in TYPE 1 order — must be
    identical.  (The full report is *not* compared: at tied timestamps
    the replayed event sequence can legitimately renumber critical-path
    pieces without changing any ranking or metric the tool reports.)
    This is the fidelity guarantee the protocol what-if forecasts
    (:mod:`repro.core.replay_whatif`) rest on.
    """
    from repro.core.replay_whatif import replay_identity

    try:
        sim = replay_identity(trace)
        replayed = analyze(sim.trace).report
    except ReproError as exc:
        return [
            Discrepancy(
                "replay-identity",
                f"identity replay raised {type(exc).__name__}: {exc}",
            )
        ]
    out: list[Discrepancy] = []
    if sim.completion_time != trace.duration:
        out.append(
            Discrepancy(
                "replay-identity",
                f"replayed completion {sim.completion_time!r} != "
                f"recorded duration {trace.duration!r}",
            )
        )

    def ranking(report) -> list[tuple[str, float]]:
        return [(m.name, m.cp_fraction) for m in report.top_locks(None, by="cp_fraction")]

    base, rep = ranking(result.report), ranking(replayed)
    if base != rep:
        for i, (b, r) in enumerate(zip(base, rep)):
            if b != r:
                out.append(
                    Discrepancy(
                        "replay-identity",
                        f"critical-lock ranking diverges at position {i}: "
                        f"recorded {b!r} != replayed {r!r}",
                    )
                )
                break
        else:
            out.append(
                Discrepancy(
                    "replay-identity",
                    f"critical-lock table sizes differ: recorded {len(base)} "
                    f"locks != replayed {len(rep)}",
                )
            )
    return out


def _check_sampling(trace: Trace, result) -> list[Discrepancy]:
    """Statistical sampling must stay honest on this trace.

    Runs the full sampling pipeline — downsample, repair, estimate —
    at several rates (:func:`repro.sampling.cross_validate`) and demands:

    * the estimator never raises on a sampled capture of a valid trace;
    * at rate 1.0 every point estimate equals the exact ``cp_fraction``
      *bit for bit* (the sample is the full trace);
    * every interval is well formed (``0 <= lo <= hi <= 1``, point in
      ``[0, 1]``);
    * across the sub-1.0 cells, the ``confidence`` intervals contain the
      exact value for at least the nominal fraction, minus 2.5-sigma
      binomial slack — a per-trace instantiation of the frequentist
      coverage claim (the CI seeds derive deterministically from the
      trace's oracle run, so a failure replays from the repro file).
    """
    from repro.sampling import cross_validate

    confidence = 0.9
    try:
        cv = cross_validate(
            trace,
            rates=(1.0, 0.5, 0.2),
            confidence=confidence,
            seed=0,
            exact=result.report,
        )
    except ReproError as exc:
        return [
            Discrepancy(
                "sample-coverage",
                f"cross-validation raised {type(exc).__name__}: {exc}",
            )
        ]
    out: list[Discrepancy] = []
    for rv in cv.rates:
        if rv.error:
            out.append(
                Discrepancy(
                    "sample-coverage",
                    f"estimator failed at rate {rv.rate}: {rv.error}",
                )
            )
            continue
        for c in rv.coverage:
            if not (0.0 <= c.ci_low <= c.ci_high <= 1.0 and 0.0 <= c.point <= 1.0):
                out.append(
                    Discrepancy(
                        "sample-coverage",
                        f"rate {rv.rate}, {c.name}: malformed interval "
                        f"point={c.point!r} ci=[{c.ci_low!r}, {c.ci_high!r}]",
                    )
                )
        if rv.rate >= 1.0 and not rv.exact_match:
            bad = next(c for c in rv.coverage if c.point != c.exact)
            out.append(
                Discrepancy(
                    "sample-coverage",
                    f"rate 1.0 is not bit-identical to the exact engine: "
                    f"{bad.name} point {bad.point!r} != exact {bad.exact!r}",
                )
            )
    cells = cv.cells
    if cells:
        misses = cells - cv.covered_cells
        allowed = math.ceil(
            cells * (1.0 - confidence)
            + 2.5 * math.sqrt(cells * confidence * (1.0 - confidence))
        )
        if misses > max(1, allowed):
            detail = "; ".join(
                f"rate {rv.rate}, {c.name}: exact {c.exact!r} outside "
                f"[{c.ci_low!r}, {c.ci_high!r}] ({c.units} units)"
                for rv in cv.rates
                if rv.rate < 1.0
                for c in rv.coverage
                if not c.covered
            )
            out.append(
                Discrepancy(
                    "sample-coverage",
                    f"{misses}/{cells} cells uncovered "
                    f"(allowed {max(1, allowed)}): {detail}",
                )
            )
    return out


def _check_validators(trace: Trace) -> list[Discrepancy]:
    """Columnar vs reference validator on the trace and its mutants, and
    ``analyze`` and the DAG what-if refusing every mutant the reference
    flags."""
    out: list[Discrepancy] = []
    cases = [("original", trace)] + [
        (m.label, m.trace) for m in single_row_mutants(trace, _MUTANTS_PER_TRACE)
    ]
    for label, case in cases:
        ref = reference_trace_problems(case)
        got = trace_problems(case)
        if got != ref:
            out.append(
                Discrepancy(
                    "validator-equiv",
                    f"{label}: columnar {got[:3]} != reference {ref[:3]} "
                    f"({len(got)} vs {len(ref)} problems)",
                )
            )
        if not ref:
            continue
        for what, run in (
            ("analyze", lambda: analyze(case)),
            ("predict_shrink", lambda: _shrink_any_lock(case)),
        ):
            try:
                run()
            except TraceValidationError:
                continue
            except Exception as exc:  # noqa: BLE001 — any other outcome is the bug
                out.append(
                    Discrepancy(
                        "malformed-rejected",
                        f"{label}: {what} raised {type(exc).__name__}: {exc} "
                        f"instead of TraceValidationError ({ref[0]})",
                    )
                )
            else:
                out.append(
                    Discrepancy(
                        "malformed-rejected",
                        f"{label}: {what} returned an answer although {ref[0]!r}",
                    )
                )
    return out


def _shrink_any_lock(trace: Trace) -> None:
    """Halve the first lock's critical sections (the lock is irrelevant:
    a malformed trace must be refused before any lock is looked up)."""
    locks = trace.locks
    predict_shrink(trace, locks[0].obj if locks else -1, 0.5)


def _check_roundtrip(trace: Trace) -> list[Discrepancy]:
    out: list[Discrepancy] = []
    with tempfile.TemporaryDirectory(prefix="cla-check-") as tmp:
        for suffix in (".clt", ".jsonl"):
            path = Path(tmp) / f"trace{suffix}"
            try:
                write_trace(trace, path)
                back = read_trace(path)
            except ReproError as exc:
                out.append(
                    Discrepancy(
                        "roundtrip", f"{suffix}: {type(exc).__name__}: {exc}"
                    )
                )
                continue
            if not np.array_equal(trace.records, back.records):
                bad = int(np.flatnonzero(trace.records != back.records)[0])
                out.append(
                    Discrepancy(
                        "roundtrip",
                        f"{suffix}: records differ first at position {bad}: "
                        f"{trace.records[bad]} != {back.records[bad]}",
                    )
                )
            if back.threads != trace.threads:
                out.append(Discrepancy("roundtrip", f"{suffix}: thread table differs"))
            if set(back.objects) != set(trace.objects):
                out.append(Discrepancy("roundtrip", f"{suffix}: object table differs"))
    return out


def _check_truncated(trace: Trace) -> list[Discrepancy]:
    """Cut the trace before its first THREAD_EXIT and re-analyze.

    The prefix has open holds and pending blocks; the documented
    semantics (docs/check.md) are that analysis must not raise when
    validation is skipped, and the DAG completion time must equal the
    truncated duration (every event keeps ``dist == time − start``).
    """
    etypes = trace.records["etype"]
    exits = np.flatnonzero(etypes == int(EventType.THREAD_EXIT))
    if len(exits) == 0 or int(exits[0]) < 2:
        return []
    cut = int(exits[0])
    sub = Trace(
        records=trace.records[:cut].copy(),
        objects=dict(trace.objects),
        threads=dict(trace.threads),
        meta=dict(trace.meta),
    )
    if sub.duration <= 0.0:
        return []
    try:
        # The prefix is malformed by construction (open holds, no exits).
        result = analyze(sub, validate=False)
        graph = result.graph
        completion = graph.completion_time()
        cp_len = result.critical_path.length
    except ReproError as exc:
        return [
            Discrepancy(
                "truncated",
                f"analysis of the {cut}-event prefix raised "
                f"{type(exc).__name__}: {exc}",
            )
        ]
    out = []
    if not _close(completion, sub.duration):
        out.append(
            Discrepancy(
                "truncated",
                f"DAG completion {completion!r} != truncated duration "
                f"{sub.duration!r} (prefix of {cut} events, no THREAD_EXIT)",
            )
        )
    if not _close(cp_len, sub.duration):
        out.append(
            Discrepancy(
                "truncated",
                f"backward walk length {cp_len!r} != truncated duration "
                f"{sub.duration!r}",
            )
        )
    return out
