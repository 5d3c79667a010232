"""Backward critical-path walk over columnar timelines.

Identical control flow to :func:`repro.check.refengine.backward_walk`
— start at the last event of the last finished thread, cursor backwards,
jump to the waker whenever the position follows a blocked interval — but
the per-thread wait lookup is an ``np.searchsorted`` over each thread's
``wake_seq`` slice instead of a ``bisect`` over a list of ``Wait``
objects.  Only the path actually traversed materializes objects
(:class:`~repro.core.model.CPPiece` / ``Junction`` / ``Wait``), which is
a tiny fraction of the trace.
"""

from __future__ import annotations

from repro.core.columnar.timelines import ColumnarTimelines
from repro.core.critical_path import CriticalPath, WalkSegment
from repro.core.model import CPPiece, Junction
from repro.errors import AnalysisError
from repro.trace.trace import Trace

import numpy as np

__all__ = ["backward_walk_columnar", "compute_critical_path_columnar"]


def backward_walk_columnar(trace: Trace, ct: ColumnarTimelines) -> WalkSegment:
    """The paper's backward walk (Fig. 2) over a whole trace."""
    tindex = ct.tid_index()
    last = trace.records[len(trace.records) - 1]
    cur_tid, cur_time, cur_seq = int(last["tid"]), float(last["time"]), int(last["seq"])
    pieces: list[CPPiece] = []
    junctions: list[Junction] = []
    waits = []
    max_steps = ct.n_events + len(ct.tids) + 1

    wake_seq = ct.w_wake_seq
    while True:
        if len(pieces) > max_steps:
            raise AnalysisError(
                "backward walk did not terminate: trace has wake events "
                "recorded before their wakers"
            )
        i = tindex[cur_tid]
        lo, hi = int(ct.wait_lo[i]), int(ct.wait_hi[i])
        j = lo + int(np.searchsorted(wake_seq[lo:hi], cur_seq, side="right")) - 1
        if j >= lo:
            w = ct._wait_at(j)
            pieces.append(CPPiece(tid=cur_tid, start=w.end, end=cur_time))
            junctions.append(
                Junction(
                    time=w.end,
                    from_tid=w.waker_tid,
                    to_tid=cur_tid,
                    kind=w.kind,
                    obj=w.obj,
                )
            )
            waits.append(w)
            cur_tid, cur_time, cur_seq = w.waker_tid, w.waker_time, w.waker_seq
        else:
            pieces.append(CPPiece(tid=cur_tid, start=float(ct.t_start[i]), end=cur_time))
            if ct.creator_tid[i] >= 0:
                creator = int(ct.creator_tid[i])
                junctions.append(
                    Junction(
                        time=float(ct.t_start[i]),
                        from_tid=creator,
                        to_tid=cur_tid,
                        kind=None,
                        obj=-1,
                    )
                )
                cur_tid = creator
                cur_time = float(ct.create_time[i])
                cur_seq = int(ct.create_seq[i])
            else:
                break

    pieces.reverse()
    junctions.reverse()
    waits.reverse()
    return WalkSegment(pieces=pieces, junctions=junctions, waits=waits)


def compute_critical_path_columnar(trace: Trace, ct: ColumnarTimelines) -> CriticalPath:
    """Walk a whole trace and wrap the result (columnar fast path)."""
    if len(trace) == 0:
        return CriticalPath(pieces=[], junctions=[], waits=[], trace_duration=0.0)
    walk = backward_walk_columnar(trace, ct)
    return CriticalPath(
        pieces=walk.pieces,
        junctions=walk.junctions,
        waits=walk.waits,
        trace_duration=trace.duration,
    )
