"""Columnar timeline construction (array form of :mod:`repro.core.segments`).

The object engine walks each thread's events with five little dicts
(pending acquire/barrier/cond/join slots and per-lock hold stacks).
Here each dict becomes one vectorized pass:

* every "pending X" slot is two :func:`~repro.arrayops.
  latest_prior` queries — a slot holds a value iff the latest prior
  setter (ACQUIRE, BARRIER_ARRIVE, COND_BLOCK, JOIN_BEGIN) is more
  recent than the latest prior getter (which always pops);
* the per-``(tid, lock)`` hold stacks are one
  :func:`~repro.arrayops.lifo_match` parenthesis matching;
* waits and holds end up as flat parallel arrays with per-thread /
  per-``(tid, obj)`` group index ranges, and :meth:`ColumnarTimelines.
  to_object` reconstructs the exact object-engine ``ThreadTimeline``
  dict — including the insertion order of ``holds`` keys, which viz and
  export iterate.

A wait with ``duration == 0`` never delayed its thread, so it is
dropped here and in the object engine alike (it must not redirect the
backward walk through a dependency that cost nothing; see
``docs/algorithm.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arrayops import dense_keys, group_bounds, latest_prior, lifo_match
from repro.core.columnar.wakers import ColumnarWakers, resolve_wakers_columnar
from repro.core.model import HoldInterval, ThreadTimeline, Wait, WaitKind
from repro.errors import AnalysisError
from repro.trace.events import EventType
from repro.trace.trace import Trace

__all__ = ["ColumnarTimelines", "build_timelines_columnar", "WAIT_KIND_CODES"]

#: Wait-kind code (uint8 column value) -> WaitKind, in a fixed order.
WAIT_KIND_CODES: list[WaitKind] = [
    WaitKind.LOCK,
    WaitKind.BARRIER,
    WaitKind.CONDITION,
    WaitKind.JOIN,
]

_ACQUIRE = int(EventType.ACQUIRE)
_OBTAIN = int(EventType.OBTAIN)
_RELEASE = int(EventType.RELEASE)
_ARRIVE = int(EventType.BARRIER_ARRIVE)
_DEPART = int(EventType.BARRIER_DEPART)
_COND_BLOCK = int(EventType.COND_BLOCK)
_COND_WAKE = int(EventType.COND_WAKE)
_JOIN_BEGIN = int(EventType.JOIN_BEGIN)
_JOIN_END = int(EventType.JOIN_END)


def _empty_f8() -> np.ndarray:
    return np.zeros(0, dtype=np.float64)


def _empty_i8() -> np.ndarray:
    return np.zeros(0, dtype=np.int64)


@dataclass
class ColumnarTimelines:
    """Array-of-struct free timelines: waits/holds as parallel columns.

    Waits are sorted by ``(tid, wake_seq)`` (each thread's slice is the
    object engine's ``tl.waits`` order); holds by ``(tid, obj, start,
    end, insertion)`` (each group is ``tl.holds[obj]`` post-sort order).
    """

    # per-thread scalars, aligned with the sorted ``tids`` array
    tids: np.ndarray = field(default_factory=_empty_i8)
    names: list[str] = field(default_factory=list)
    t_start: np.ndarray = field(default_factory=_empty_f8)
    t_end: np.ndarray = field(default_factory=_empty_f8)
    creator_tid: np.ndarray = field(default_factory=_empty_i8)  # -1 = root
    create_time: np.ndarray = field(default_factory=_empty_f8)
    create_seq: np.ndarray = field(default_factory=_empty_i8)
    # waits, sorted by (tid, wake_seq); [wait_lo[i], wait_hi[i]) per tid
    w_tid: np.ndarray = field(default_factory=_empty_i8)
    w_kind: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.uint8))
    w_obj: np.ndarray = field(default_factory=_empty_i8)
    w_start: np.ndarray = field(default_factory=_empty_f8)
    w_end: np.ndarray = field(default_factory=_empty_f8)
    w_wake_seq: np.ndarray = field(default_factory=_empty_i8)
    w_waker_tid: np.ndarray = field(default_factory=_empty_i8)
    w_waker_time: np.ndarray = field(default_factory=_empty_f8)
    w_waker_seq: np.ndarray = field(default_factory=_empty_i8)
    wait_lo: np.ndarray = field(default_factory=_empty_i8)
    wait_hi: np.ndarray = field(default_factory=_empty_i8)
    # holds, sorted by (tid, obj, start, end, insertion order)
    h_tid: np.ndarray = field(default_factory=_empty_i8)
    h_obj: np.ndarray = field(default_factory=_empty_i8)
    h_start: np.ndarray = field(default_factory=_empty_f8)
    h_end: np.ndarray = field(default_factory=_empty_f8)
    h_contended: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    h_acquire: np.ndarray = field(default_factory=_empty_f8)
    #: (tid, obj) -> [lo, hi) into the hold arrays
    hold_groups: dict[tuple[int, int], tuple[int, int]] = field(default_factory=dict)
    #: tid -> lock objs in the object engine's ``tl.holds`` dict order
    hold_obj_order: dict[int, list[int]] = field(default_factory=dict)
    #: total event count of the underlying trace (walk-guard sizing)
    n_events: int = 0

    def tid_index(self) -> dict[int, int]:
        return {int(t): i for i, t in enumerate(self.tids)}

    @staticmethod
    def merge(parts: list["ColumnarTimelines"]) -> "ColumnarTimelines":
        """Concatenate per-shard timelines (shard order is seq order).

        Mirrors :func:`repro.core.shard._merge_timelines`: spans take the
        min/max, a later shard's creator wins, waits re-sort by
        ``(tid, wake_seq)``, and holds re-sort stably by ``(tid, obj,
        start, end)`` so equal intervals keep shard order — exactly the
        object engine's stable per-lock re-sort.
        """
        ct = ColumnarTimelines(n_events=sum(p.n_events for p in parts))
        span: dict[int, list] = {}
        obj_order: dict[int, list[int]] = {}
        for p in parts:
            for i, t in enumerate(p.tids):
                tid = int(t)
                cur = span.get(tid)
                if cur is None:
                    span[tid] = [
                        p.names[i],
                        float(p.t_start[i]),
                        float(p.t_end[i]),
                        int(p.creator_tid[i]),
                        float(p.create_time[i]),
                        int(p.create_seq[i]),
                    ]
                else:
                    cur[1] = min(cur[1], float(p.t_start[i]))
                    cur[2] = max(cur[2], float(p.t_end[i]))
                    if p.creator_tid[i] >= 0:
                        cur[3] = int(p.creator_tid[i])
                        cur[4] = float(p.create_time[i])
                        cur[5] = int(p.create_seq[i])
            for tid, objs in p.hold_obj_order.items():
                seen = obj_order.setdefault(tid, [])
                for o in objs:
                    if o not in seen:
                        seen.append(o)
        tids = sorted(span)
        ct.tids = np.array(tids, dtype=np.int64)
        ct.names = [span[t][0] for t in tids]
        ct.t_start = np.array([span[t][1] for t in tids], dtype=np.float64)
        ct.t_end = np.array([span[t][2] for t in tids], dtype=np.float64)
        ct.creator_tid = np.array([span[t][3] for t in tids], dtype=np.int64)
        ct.create_time = np.array([span[t][4] for t in tids], dtype=np.float64)
        ct.create_seq = np.array([span[t][5] for t in tids], dtype=np.int64)
        ct.hold_obj_order = obj_order

        for name in (
            "w_tid", "w_kind", "w_obj", "w_start", "w_end", "w_wake_seq",
            "w_waker_tid", "w_waker_time", "w_waker_seq",
        ):
            setattr(ct, name, np.concatenate([getattr(p, name) for p in parts]))
        worder = np.lexsort((ct.w_wake_seq, ct.w_tid))
        for name in (
            "w_tid", "w_kind", "w_obj", "w_start", "w_end", "w_wake_seq",
            "w_waker_tid", "w_waker_time", "w_waker_seq",
        ):
            setattr(ct, name, getattr(ct, name)[worder])
        ct.wait_lo, ct.wait_hi = _spans_for(ct.tids, ct.w_tid)

        for name in ("h_tid", "h_obj", "h_start", "h_end", "h_contended", "h_acquire"):
            setattr(ct, name, np.concatenate([getattr(p, name) for p in parts]))
        horder = np.lexsort((ct.h_end, ct.h_start, ct.h_obj, ct.h_tid))
        for name in ("h_tid", "h_obj", "h_start", "h_end", "h_contended", "h_acquire"):
            setattr(ct, name, getattr(ct, name)[horder])
        ct.hold_groups = {}
        if len(ct.h_tid):
            gkey = dense_keys(ct.h_tid, ct.h_obj)
            starts, _ = group_bounds(gkey)
            bounds = np.append(starts, len(gkey))
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                ct.hold_groups[(int(ct.h_tid[lo]), int(ct.h_obj[lo]))] = (int(lo), int(hi))
        return ct

    # -- materialization ---------------------------------------------------

    def to_object(self) -> dict[int, ThreadTimeline]:
        """Rebuild the exact ``build_timelines`` output (objects)."""
        out: dict[int, ThreadTimeline] = {}
        for i, t in enumerate(self.tids):
            tid = int(t)
            tl = ThreadTimeline(
                tid=tid,
                name=self.names[i],
                start=float(self.t_start[i]),
                end=float(self.t_end[i]),
            )
            if self.creator_tid[i] >= 0:
                tl.creator_tid = int(self.creator_tid[i])
                tl.create_time = float(self.create_time[i])
                tl.create_seq = int(self.create_seq[i])
            lo, hi = int(self.wait_lo[i]), int(self.wait_hi[i])
            tl.waits = [self._wait_at(j) for j in range(lo, hi)]
            for obj in self.hold_obj_order.get(tid, ()):
                glo, ghi = self.hold_groups[(tid, obj)]
                tl.holds[obj] = [self._hold_at(j) for j in range(glo, ghi)]
            out[tid] = tl
        return out

    def _wait_at(self, j: int) -> Wait:
        return Wait(
            tid=int(self.w_tid[j]),
            kind=WAIT_KIND_CODES[self.w_kind[j]],
            obj=int(self.w_obj[j]),
            start=float(self.w_start[j]),
            end=float(self.w_end[j]),
            wake_seq=int(self.w_wake_seq[j]),
            waker_tid=int(self.w_waker_tid[j]),
            waker_time=float(self.w_waker_time[j]),
            waker_seq=int(self.w_waker_seq[j]),
        )

    def _hold_at(self, j: int) -> HoldInterval:
        return HoldInterval(
            tid=int(self.h_tid[j]),
            obj=int(self.h_obj[j]),
            start=float(self.h_start[j]),
            end=float(self.h_end[j]),
            contended=bool(self.h_contended[j]),
            acquire_time=float(self.h_acquire[j]),
        )


def _slot_values(
    pos: np.ndarray,
    key_cols: tuple[np.ndarray, ...],
    time: np.ndarray,
    setter_pos: np.ndarray,
    getter_pos: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dict-slot semantics: for each getter, the latest prior setter's
    time — valid only if no getter popped the slot in between.

    Returns ``(values, valid, prior_getter_pos)``; invalid slots carry
    the getter's own time (the object engine's ``dict.pop`` default).
    """
    packed = dense_keys(*(c[np.concatenate([setter_pos, getter_pos])] for c in key_cols))
    skey, gkey = packed[: len(setter_pos)], packed[len(setter_pos):]
    s = latest_prior(setter_pos, skey, getter_pos, gkey)
    g = latest_prior(getter_pos, gkey, getter_pos, gkey)
    valid = s > g  # s == -1 never wins; a consumed setter (s < g) neither
    values = np.where(valid, time[np.maximum(s, 0)], time[getter_pos])
    return values, valid, g


def build_timelines_columnar(
    trace: Trace,
    wakers: ColumnarWakers | None = None,
    boundary_arrivals: dict[tuple[int, int], dict[int, float]] | None = None,
) -> ColumnarTimelines:
    """Columnar twin of :func:`repro.core.segments.build_timelines`."""
    if wakers is None:
        wakers = resolve_wakers_columnar(trace)
    rec = trace.records
    n = len(rec)
    ct = ColumnarTimelines(n_events=n)
    if n == 0:
        return ct
    etype = rec["etype"]
    tid = rec["tid"].astype(np.int64)
    obj = rec["obj"].astype(np.int64)
    arg = rec["arg"]
    time = rec["time"]
    seq = rec["seq"].astype(np.int64)

    # -- per-thread spans --------------------------------------------------
    order = np.argsort(tid, kind="stable")
    starts, tids = group_bounds(tid[order])
    ends = np.append(starts[1:], n) - 1
    ct.tids = tids
    ct.names = [trace.thread_name(int(t)) for t in tids]
    ct.t_start = time[order[starts]].astype(np.float64)
    ct.t_end = time[order[ends]].astype(np.float64)
    ct.creator_tid = np.full(len(tids), -1, dtype=np.int64)
    ct.create_time = np.zeros(len(tids), dtype=np.float64)
    ct.create_seq = np.full(len(tids), -1, dtype=np.int64)
    tindex = {int(t): i for i, t in enumerate(tids)}
    for child, info in wakers.creations.items():
        i = tindex.get(int(child))
        if i is not None:
            ct.creator_tid[i] = info.waker_tid
            ct.create_time[i] = info.waker_time
            ct.create_seq[i] = info.waker_seq

    # -- pending-slot matching per wait kind -------------------------------
    obtains = np.flatnonzero(etype == _OBTAIN)
    acq_vals, _, _ = _slot_values(
        obtains, (tid, obj), time, np.flatnonzero(etype == _ACQUIRE), obtains
    )

    departs = np.flatnonzero(etype == _DEPART)
    arrive_vals, arrive_valid, dep_prior_pop = _slot_values(
        departs, (tid, obj, arg), time, np.flatnonzero(etype == _ARRIVE), departs
    )
    if boundary_arrivals and len(departs):
        # A seed fills the slot before the thread's first event; it is
        # consumed by the first pop, and an in-trace arrival overrides it.
        for j in np.flatnonzero(~arrive_valid & (dep_prior_pop < 0)):
            p = departs[j]
            per_tid = boundary_arrivals.get((int(obj[p]), int(arg[p])))
            if per_tid is not None and int(tid[p]) in per_tid:
                arrive_vals[j] = per_tid[int(tid[p])]

    cond_wakes = np.flatnonzero(etype == _COND_WAKE)
    block_vals, _, _ = _slot_values(
        cond_wakes, (tid, obj), time, np.flatnonzero(etype == _COND_BLOCK), cond_wakes
    )

    join_ends = np.flatnonzero(etype == _JOIN_END)
    begin_vals, _, _ = _slot_values(
        join_ends, (tid, arg), time, np.flatnonzero(etype == _JOIN_BEGIN), join_ends
    )

    # -- wait rows ---------------------------------------------------------
    contended = arg[obtains] != 0
    lock_q = obtains[contended]
    parts = [
        (lock_q, np.uint8(0), obj[lock_q], acq_vals[contended]),
        (departs, np.uint8(1), obj[departs], arrive_vals),
        (cond_wakes, np.uint8(2), obj[cond_wakes], block_vals),
        (join_ends, np.uint8(3), arg[join_ends].astype(np.int64), begin_vals),
    ]
    w_pos = np.concatenate([p[0] for p in parts])
    w_kind = np.concatenate([np.full(len(p[0]), p[1], dtype=np.uint8) for p in parts])
    w_obj = np.concatenate([np.asarray(p[2], dtype=np.int64) for p in parts])
    w_start = np.concatenate([np.asarray(p[3], dtype=np.float64) for p in parts])
    w_end = time[w_pos].astype(np.float64)
    # Zero-duration waits never delayed the thread: drop them (both
    # engines; see module docstring).
    keep = w_end > w_start
    w_pos, w_kind, w_obj, w_start, w_end = (
        a[keep] for a in (w_pos, w_kind, w_obj, w_start, w_end)
    )
    worder = np.lexsort((w_pos, tid[w_pos]))
    w_pos = w_pos[worder]
    ct.w_tid = tid[w_pos]
    ct.w_kind = w_kind[worder]
    ct.w_obj = w_obj[worder]
    ct.w_start = w_start[worder]
    ct.w_end = w_end[worder]
    ct.w_wake_seq = seq[w_pos]
    ct.w_waker_tid = wakers.waker_tid[w_pos]
    ct.w_waker_time = wakers.waker_time[w_pos]
    ct.w_waker_seq = wakers.waker_seq[w_pos]
    ct.wait_lo, ct.wait_hi = _spans_for(tids, ct.w_tid)

    # -- holds: LIFO matching per (tid, lock) ------------------------------
    releases = np.flatnonzero(etype == _RELEASE)
    no = len(obtains)
    all_pos = np.concatenate([obtains, releases])
    close_for_open, open_for_close = lifo_match(
        all_pos,
        dense_keys(tid[all_pos], obj[all_pos]),
        np.concatenate([np.ones(no, dtype=bool), np.zeros(len(releases), dtype=bool)]),
    )
    bad = np.flatnonzero(open_for_close[no:] < 0)
    if len(bad):
        # The object engine scans threads in sorted-tid order and raises
        # at the first bad RELEASE it meets.
        bpos = releases[bad]
        k = np.lexsort((bpos, tid[bpos]))[0]
        p = bpos[k]
        raise AnalysisError(
            f"seq {int(seq[p])}: T{int(tid[p])} RELEASE on "
            f"{trace.object_name(int(obj[p]))} without OBTAIN"
        )
    matched = close_for_open[:no] >= 0
    m_open = obtains[matched]
    m_close = all_pos[close_for_open[:no][matched]]
    u_open = obtains[~matched]
    tid_end = ct.t_end[np.searchsorted(tids, tid[u_open])] if len(u_open) else _empty_f8()
    h_pos_open = np.concatenate([m_open, u_open])
    h_start = time[h_pos_open].astype(np.float64)
    h_end = np.concatenate([time[m_close].astype(np.float64), tid_end])
    # Insertion rank: matched holds are appended at their RELEASE, the
    # leftovers after the event loop — ranks n + obtain pos sort last.
    h_rank = np.concatenate([m_close, u_open + n])
    h_acq = np.concatenate([acq_vals[matched], acq_vals[~matched]])
    h_tid = tid[h_pos_open]
    h_obj = obj[h_pos_open]
    h_cont = arg[h_pos_open] != 0
    horder = np.lexsort((h_rank, h_end, h_start, h_obj, h_tid))
    ct.h_tid = h_tid[horder]
    ct.h_obj = h_obj[horder]
    ct.h_start = h_start[horder]
    ct.h_end = h_end[horder]
    ct.h_contended = h_cont[horder]
    ct.h_acquire = h_acq[horder]
    _index_hold_groups(ct, h_rank[horder], n)
    return ct


def _spans_for(tids: np.ndarray, sorted_item_tid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-tid [lo, hi) ranges into an array sorted by tid."""
    lo = np.searchsorted(sorted_item_tid, tids, side="left")
    hi = np.searchsorted(sorted_item_tid, tids, side="right")
    return lo.astype(np.int64), hi.astype(np.int64)


def _index_hold_groups(ct: ColumnarTimelines, sorted_rank: np.ndarray, n: int) -> None:
    """Build (tid, obj) group ranges and the ``tl.holds`` dict key order.

    The object engine inserts a lock into ``tl.holds`` at its first
    RELEASE (``setdefault``) and appends leftover-only locks afterwards
    in first-OBTAIN order — reproduced via each group's minimum
    insertion rank, split on matched (< n) vs leftover (>= n) ranks.
    """
    ct.hold_groups = {}
    ct.hold_obj_order = {}
    if len(ct.h_tid) == 0:
        return
    gkey = dense_keys(ct.h_tid, ct.h_obj)
    starts, _ = group_bounds(gkey)
    bounds = np.append(starts, len(gkey))
    order_keys: dict[int, list[tuple[int, int, int]]] = {}
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        t, o = int(ct.h_tid[lo]), int(ct.h_obj[lo])
        ct.hold_groups[(t, o)] = (int(lo), int(hi))
        ranks = sorted_rank[lo:hi]
        matched = ranks[ranks < n]
        if len(matched):
            key = (0, int(matched.min()))
        else:
            key = (1, int(ranks.min()) - n)
        order_keys.setdefault(t, []).append((key[0], key[1], o))
    for t, entries in order_keys.items():
        ct.hold_obj_order[t] = [o for _, _, o in sorted(entries)]
