"""Quantitative performance metrics (paper Table 2 and §III.B).

TYPE 1 — along the critical path (this paper's contribution):

* ``cp_fraction`` ("CP Time %"): fraction of the critical path occupied
  by hot critical sections protected by the lock;
* ``invocations_on_cp`` ("Invocation # on CP");
* ``cont_prob_on_cp`` ("Cont. Prob. on CP %"): of the invocations on the
  critical path, the fraction whose acquisition blocked;
* ``invocation_increase`` ("Incr. Times of Invo. #"): invocations on the
  critical path vs the per-thread average — the amplification a
  contended lock suffers on the path (paper Fig. 10);
* ``size_increase`` ("Incr. Times of Critical Section Size"): CP Time %
  vs the average per-thread hold fraction (paper Fig. 11).

TYPE 2 — classical per-lock statistics used by prior tools:

* ``avg_wait_fraction`` ("Wait Time %"): average over threads of the
  fraction of the thread's lifetime spent waiting for the lock;
* ``avg_invocations`` ("Avg. Invo. #") per thread;
* ``avg_cont_prob`` ("Avg. Cont. Prob %") over all invocations;
* ``avg_hold_fraction`` ("Avg. Hold Time %").

:mod:`repro.core.columnar.metrics` computes them; this module holds the
result types and the per-thread hold/critical-path overlap rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.model import CPPiece, HoldInterval
from repro.trace.events import ObjectKind

__all__ = ["LockMetrics", "ThreadStats"]


@dataclass(frozen=True)
class LockMetrics:
    """TYPE 1 + TYPE 2 statistics for one lock (see module docstring)."""

    obj: int
    name: str
    kind: ObjectKind
    # TYPE 1 — critical path statistics
    cp_hold_time: float
    cp_fraction: float
    invocations_on_cp: int
    contended_on_cp: int
    invocation_increase: float
    size_increase: float
    cp_crossings: int  # times the critical path jumped threads via this lock
    # TYPE 2 — classical statistics
    total_invocations: int
    contended_invocations: int
    avg_invocations: float
    total_wait_time: float
    avg_wait_fraction: float
    total_hold_time: float
    avg_hold_fraction: float

    @property
    def cont_prob_on_cp(self) -> float:
        """Contention probability of this lock along the critical path."""
        if self.invocations_on_cp == 0:
            return 0.0
        return self.contended_on_cp / self.invocations_on_cp

    @property
    def avg_cont_prob(self) -> float:
        """Overall contention probability across all invocations."""
        if self.total_invocations == 0:
            return 0.0
        return self.contended_invocations / self.total_invocations

    @property
    def is_critical(self) -> bool:
        """Whether this is a critical lock (appears on the critical path)."""
        return self.invocations_on_cp > 0


@dataclass(frozen=True)
class ThreadStats:
    """Per-thread execution/blocking breakdown (extra diagnostics)."""

    tid: int
    name: str
    lifetime: float
    exec_time: float
    lock_wait: float
    barrier_wait: float
    cond_wait: float
    join_wait: float
    cp_time: float  # time this thread spent on the critical path

    @property
    def total_wait(self) -> float:
        return self.lock_wait + self.barrier_wait + self.cond_wait + self.join_wait


def _hold_cp_overlap(
    holds: list[HoldInterval], pieces: list[CPPiece]
) -> tuple[float, int, int]:
    """(overlap time, invocations on CP, contended invocations on CP).

    ``holds`` and ``pieces`` both belong to one thread and are sorted and
    pairwise disjoint, so a two-pointer sweep suffices.  A hold counts as
    "on the critical path" if it overlaps a piece for positive time, or —
    for zero-length holds — if it lies inside a piece.
    """
    total = 0.0
    on_cp = 0
    contended = 0
    pi = 0
    for h in holds:
        h_overlap = 0.0
        inside = False
        while pi < len(pieces) and pieces[pi].end < h.start:
            pi += 1
        pj = pi
        while pj < len(pieces) and pieces[pj].start <= h.end:
            p = pieces[pj]
            h_overlap += max(0.0, min(h.end, p.end) - max(h.start, p.start))
            if h.duration == 0 and p.start <= h.start <= p.end:
                inside = True
            pj += 1
        total += h_overlap
        if h_overlap > 0 or (h.duration == 0 and inside):
            on_cp += 1
            if h.contended:
                contended += 1
    return total, on_cp, contended
