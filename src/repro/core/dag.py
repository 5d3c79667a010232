"""Forward event-graph formulation of the critical path.

An independent cross-check of the backward walk, and the engine behind
what-if predictions: events are nodes; edges are

* same-thread program order, weighted by the elapsed execution time
  (weight 0 across blocked intervals),
* wake dependencies (lock RELEASE → contended OBTAIN, last
  BARRIER_ARRIVE → BARRIER_DEPART, COND_SIGNAL → COND_WAKE,
  THREAD_EXIT → JOIN_END), weight 0,
* THREAD_CREATE → THREAD_START, weight 0.

The longest weighted path to the last event equals the critical path
length; re-weighting execution edges (e.g. shrinking the spans during
which a given lock is held) and recomputing yields the paper's
"expected speedup" — including the path shift the paper observes when an
optimized lock stops dominating (§V.D.3).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.core.columnar.timelines import object_structures
from repro.core.model import HoldInterval, ThreadTimeline
from repro.core.wakers import WakerTable
from repro.trace.events import EventType
from repro.trace.trace import Trace

__all__ = ["EventGraph", "ExecSpan", "build_event_graph"]


@dataclass(frozen=True, slots=True)
class ExecSpan:
    """An execution-weighted edge: thread ``tid`` ran from ``t0`` to ``t1``."""

    edge: int  # index into the edge arrays
    tid: int
    t0: float
    t1: float


@dataclass
class EventGraph:
    """Weighted DAG over trace events (see module docstring).

    ``edge_src``/``edge_dst`` index into trace record positions;
    ``edge_w`` are base weights; ``exec_spans`` identifies which edges
    carry execution time (candidates for what-if re-weighting);
    ``wake_edges`` maps lock-wake edges to their object (candidates for
    contention-elimination what-ifs).
    """

    trace: Trace
    timelines: dict[int, ThreadTimeline]
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_w: np.ndarray
    exec_spans: list[ExecSpan] = field(default_factory=list)
    wake_edges: list[tuple[int, int]] = field(default_factory=list)  # (edge, obj)
    # Record positions of root THREAD_START events (the longest-path
    # sources).  Computed once by :func:`build_event_graph`; graphs built
    # by hand get it lazily on first use.
    source_pos: np.ndarray | None = None

    @property
    def n_events(self) -> int:
        return len(self.trace)

    @property
    def sources(self) -> np.ndarray:
        """Root THREAD_START positions (cached; see ``source_pos``)."""
        if self.source_pos is None:
            self.source_pos = _root_start_positions(self.trace)
        return self.source_pos

    def longest_dist(
        self,
        weights: np.ndarray | None = None,
        skip_edges: "set[int] | None" = None,
    ) -> np.ndarray:
        """Longest-path distance to every event (source-anchored).

        THREAD_START events of root threads are sources with distance
        equal to their offset from the trace start, so distances read as
        "earliest completion time since trace start".
        """
        w = self.edge_w if weights is None else weights
        records = self.trace.records
        n = self.n_events
        dist = np.full(n, -np.inf)
        times = records["time"]
        start = self.trace.start_time
        for pos in self.sources:
            dist[pos] = times[pos] - start
        # Edges were appended with strictly increasing dst, so one ordered
        # sweep relaxes the whole DAG.
        src, dst = self.edge_src, self.edge_dst
        for e in range(len(src)):
            if skip_edges and e in skip_edges:
                continue
            s, d = src[e], dst[e]
            cand = dist[s] + w[e]
            if cand > dist[d]:
                dist[d] = cand
        return dist

    def completion_time(
        self,
        weights: np.ndarray | None = None,
        skip_edges: "set[int] | None" = None,
    ) -> float:
        """Longest-path length to the end of the execution.

        Traces with no THREAD_EXIT events (truncated captures) fall back
        to the max distance over all events, so what-if and forecasting
        on partial traces report finite times instead of zero.
        """
        dist = self.longest_dist(weights, skip_edges)
        exits = np.flatnonzero(self.trace.records["etype"] == int(EventType.THREAD_EXIT))
        if len(exits) == 0:
            finite = dist[np.isfinite(dist)]
            return float(np.max(finite)) if len(finite) else 0.0
        return float(np.max(dist[exits]))

    def lock_wake_edge_set(self, obj: int) -> set[int]:
        """Edge indices of ``obj``'s contended-handoff dependencies."""
        return {e for e, o in self.wake_edges if o == obj}

    def critical_events(
        self,
        weights: np.ndarray | None = None,
        dist: np.ndarray | None = None,
    ) -> list[int]:
        """Record positions of one longest path, in forward order.

        ``dist`` lets callers that already ran :meth:`longest_dist` — or
        an equivalent recomputation, e.g. in rescaled time units — reuse
        it instead of paying the O(E) sweep again.  A supplied ``dist``
        only has to be consistent with the weights up to float
        tolerance; see the backtracking comparison below.
        """
        w = self.edge_w if weights is None else weights
        if dist is None:
            dist = self.longest_dist(weights)
        # Group incoming edges per destination for backtracking.
        incoming: dict[int, list[int]] = {}
        for e in range(len(self.edge_dst)):
            incoming.setdefault(int(self.edge_dst[e]), []).append(e)
        exits = np.flatnonzero(self.trace.records["etype"] == int(EventType.THREAD_EXIT))
        if len(exits) == 0:  # truncated trace: end at the farthest event
            exits = np.flatnonzero(np.isfinite(dist))
            if len(exits) == 0:
                return []
        pos = int(exits[np.argmax(dist[exits])])
        path = [pos]
        while True:
            best_edge = None
            for e in incoming.get(pos, ()):
                s = int(self.edge_src[e])
                # Tolerant comparison: an independently-derived distance
                # array (a caller-supplied ``dist``, e.g. recomputed in
                # rescaled time units) accumulates float error along long
                # edge chains, leaving the true predecessor a few ulps
                # off dist[pos]; exact equality would truncate the walk.
                if math.isclose(
                    float(dist[s]) + float(w[e]), float(dist[pos]),
                    rel_tol=1e-9, abs_tol=1e-12,
                ) and (
                    best_edge is None or dist[s] > dist[int(self.edge_src[best_edge])]
                ):
                    best_edge = e
            if best_edge is None:
                break
            pos = int(self.edge_src[best_edge])
            path.append(pos)
        path.reverse()
        return path

    def shrunk_weights(self, obj: int, factor: float) -> np.ndarray:
        """Edge weights with lock ``obj``'s critical sections scaled by ``factor``.

        Execution time that overlaps a hold of ``obj`` is multiplied by
        ``factor`` (0 removes the critical sections entirely, 0.5 halves
        them); all other time is untouched.
        """
        if factor < 0:
            raise ValueError(f"shrink factor must be >= 0, got {factor}")
        weights = self.edge_w.copy()
        holds_by_tid: dict[int, list[HoldInterval]] = {
            tid: sorted(tl.holds.get(obj, []), key=lambda h: h.start)
            for tid, tl in self.timelines.items()
        }
        starts_by_tid = {
            tid: [h.start for h in holds] for tid, holds in holds_by_tid.items()
        }
        for span in self.exec_spans:
            holds = holds_by_tid.get(span.tid)
            if not holds:
                continue
            overlap = _overlap_with_holds(
                span.t0, span.t1, holds, starts_by_tid[span.tid]
            )
            if overlap > 0:
                weights[span.edge] -= (1.0 - factor) * overlap
        return weights

    def to_networkx(self):  # pragma: no cover - convenience for users
        """Export as a ``networkx.DiGraph`` (nodes are record positions)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self.n_events))
        for e in range(len(self.edge_src)):
            g.add_edge(
                int(self.edge_src[e]), int(self.edge_dst[e]), weight=float(self.edge_w[e])
            )
        return g


def _root_start_positions(trace: Trace) -> np.ndarray:
    """Record positions of THREAD_START events of root (uncreated) threads.

    Hoisted out of :meth:`EventGraph.longest_dist` so repeated what-if
    re-weighting calls don't rebuild per-event objects every time.
    """
    records = trace.records
    etypes = records["etype"]
    create_pos = np.flatnonzero(etypes == int(EventType.THREAD_CREATE))
    created = set(records["arg"][create_pos].tolist())
    start_pos = np.flatnonzero(etypes == int(EventType.THREAD_START))
    tids = records["tid"][start_pos]
    return start_pos[[int(t) not in created for t in tids]]


def _overlap_with_holds(
    t0: float, t1: float, holds: list[HoldInterval], starts: list[float]
) -> float:
    """Total overlap of [t0, t1] with a sorted, disjoint hold list."""
    total = 0.0
    i = max(0, bisect_right(starts, t0) - 1)
    while i < len(holds) and holds[i].start < t1:
        h = holds[i]
        total += max(0.0, min(t1, h.end) - max(t0, h.start))
        i += 1
    return total


def build_event_graph(
    trace: Trace,
    timelines: dict[int, ThreadTimeline] | None = None,
    wakers: WakerTable | None = None,
) -> EventGraph:
    """Construct the event DAG from a trace.

    Pass the ``timelines`` and ``wakers`` of an existing analysis to
    reuse them; otherwise both are built here, without validating the
    trace (:func:`repro.core.analyzer.analyze` validates).
    """
    if timelines is None or wakers is None:
        timelines, wakers = object_structures(trace)

    records = trace.records
    n = len(records)
    seqs = records["seq"]
    pos_of_seq = {int(s): i for i, s in enumerate(seqs)}

    # Wake events whose preceding same-thread span was a blocked wait.
    wait_wake_seqs: set[int] = set()
    for tl in timelines.values():
        for w in tl.waits:
            wait_wake_seqs.add(w.wake_seq)

    edge_src: list[int] = []
    edge_dst: list[int] = []
    edge_w: list[float] = []
    exec_spans: list[ExecSpan] = []
    wake_edges: list[tuple[int, int]] = []

    last_pos_of_tid: dict[int, int] = {}
    for pos in range(n):
        row = records[pos]
        tid = int(row["tid"])
        seq = int(row["seq"])
        time = float(row["time"])
        etype = EventType(int(row["etype"]))

        prev = last_pos_of_tid.get(tid)
        if prev is not None:
            t_prev = float(records["time"][prev])
            if seq in wait_wake_seqs:
                edge_src.append(prev)
                edge_dst.append(pos)
                edge_w.append(0.0)
            else:
                edge_src.append(prev)
                edge_dst.append(pos)
                edge_w.append(time - t_prev)
                exec_spans.append(
                    ExecSpan(edge=len(edge_w) - 1, tid=tid, t0=t_prev, t1=time)
                )
        last_pos_of_tid[tid] = pos

        info = wakers.wakes.get(seq)
        if info is not None:
            waker_pos = pos_of_seq.get(info.waker_seq)
            if waker_pos is not None:
                edge_src.append(waker_pos)
                edge_dst.append(pos)
                edge_w.append(0.0)
                if etype == EventType.OBTAIN:
                    wake_edges.append((len(edge_w) - 1, int(row["obj"])))
        if etype == EventType.THREAD_START:
            creation = wakers.creations.get(tid)
            if creation is not None:
                creator_pos = pos_of_seq.get(creation.waker_seq)
                if creator_pos is not None:
                    edge_src.append(creator_pos)
                    edge_dst.append(pos)
                    edge_w.append(0.0)

    return EventGraph(
        trace=trace,
        timelines=timelines,
        edge_src=np.asarray(edge_src, dtype=np.int64),
        edge_dst=np.asarray(edge_dst, dtype=np.int64),
        edge_w=np.asarray(edge_w, dtype=np.float64),
        exec_spans=exec_spans,
        wake_edges=wake_edges,
        source_pos=_root_start_positions(trace),
    )
