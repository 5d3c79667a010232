"""The backward critical-path walk (paper Fig. 2).

Starting from the last segment of the last finished thread, walk
backwards; whenever the current position follows a blocked interval, jump
to the thread whose event released the blocked thread; otherwise keep
walking the same thread.  The walk yields contiguous execution *pieces*
that tile the whole execution, so their durations sum exactly to the
end-to-end completion time (asserted up to clock skew for real traces).

Termination is guaranteed because the cursor's event sequence number
strictly decreases at every jump (a waker's event always precedes the
wake it causes), which also makes the walk robust to chains of
simultaneous events in virtual-time traces.

:func:`repro.core.columnar.backward_walk_columnar` runs the walk; this
module holds its result types.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.core.model import CPPiece, Junction, Wait, WaitKind

__all__ = ["CriticalPath", "WalkSegment"]


@dataclass(frozen=True)
class CriticalPath:
    """The critical path of one execution.

    ``pieces`` are in forward time order; ``junctions`` mark the thread
    crossings between consecutive pieces (``len(junctions) ==
    len(pieces) - 1``); ``waits`` are the blocked intervals the walk
    traversed (one per synchronization junction, none for creations).
    """

    pieces: list[CPPiece]
    junctions: list[Junction]
    waits: list[Wait]
    trace_duration: float

    @cached_property
    def length(self) -> float:
        """Sum of piece durations — the critical path length (summed once;
        the path is immutable)."""
        return sum(p.duration for p in self.pieces)

    @property
    def start(self) -> float:
        return self.pieces[0].start if self.pieces else 0.0

    @property
    def end(self) -> float:
        return self.pieces[-1].end if self.pieces else 0.0

    @property
    def coverage_error(self) -> float:
        """|critical path length − trace duration|.

        Exactly 0 for simulator traces; bounded by accumulated
        release-to-obtain clock skew for real-thread traces.
        """
        return abs(self.length - self.trace_duration)

    def pieces_by_thread(self) -> dict[int, list[CPPiece]]:
        """Group pieces per thread (each group sorted by time)."""
        out: dict[int, list[CPPiece]] = {}
        for p in self.pieces:
            out.setdefault(p.tid, []).append(p)
        return out

    def junction_count(self, obj: int, kind: WaitKind | None = None) -> int:
        """Number of crossings attributed to a synchronization object."""
        return sum(
            1
            for j in self.junctions
            if j.obj == obj and (kind is None or j.kind == kind)
        )


@dataclass(frozen=True)
class WalkSegment:
    """One backward walk's output, in forward order."""

    pieces: list[CPPiece]
    junctions: list[Junction]
    waits: list[Wait]
