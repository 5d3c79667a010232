"""Columnar TYPE 1 / TYPE 2 metrics, bit-identical to
:func:`repro.check.refengine.compute_metrics`.

Bit-identity constrains the implementation everywhere floats are summed:
the reference pipeline accumulates left to right, and IEEE addition is not
associative, so every per-group total here is a sequential ``np.cumsum``
(empirically identical to a Python ``sum`` loop), never ``np.sum`` /
``np.add.reduceat`` (pairwise summation).

The reference loops over locks × threads; this module visits only the
``(tid, obj)`` hold groups that exist, each lock's in tid order.  A
missing group adds ``+ 0`` to every reference accumulator, so skipping
it changes no bit.  A group's three float totals (hold time, wait time,
critical-path overlap) come from one ``np.cumsum`` over its rows of the
stacked columns, its counts from one integer ``reduceat`` for all
groups.  The critical-path overlap is computed once per thread over all
of its holds: a hold's overlap depends only on the thread's pieces.
"""

from __future__ import annotations

import numpy as np

from repro.core.columnar.timelines import WAIT_KIND_CODES, ColumnarTimelines
from repro.core.critical_path import CriticalPath
from repro.core.metrics import LockMetrics, ThreadStats
from repro.core.model import WaitKind
from repro.trace.trace import Trace

__all__ = ["compute_metrics_columnar", "compute_thread_stats_columnar"]


def _exact_sum(values: np.ndarray) -> float:
    """Left-to-right IEEE sum (what a Python accumulator loop computes)."""
    if len(values) == 0:
        return 0.0
    return float(np.cumsum(values)[-1])


def _hold_overlaps(
    h_s: np.ndarray, h_e: np.ndarray, p_s: np.ndarray, p_e: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`repro.core.metrics._hold_cp_overlap`, per hold:
    its critical-path overlap and whether it is on the path.

    Pieces are disjoint and sorted, so the reference pipeline's persistent
    two-pointer window for hold ``h`` is exactly ``[searchsorted(p_end,
    h.start), searchsorted(p_start, h.end, right))``; the multiplicity
    loop adds each hold's overlap terms in piece order, preserving the
    reference pipeline's float addition order.
    """
    pi = np.searchsorted(p_e, h_s, side="left")
    jend = np.searchsorted(p_s, h_e, side="right")
    k = np.maximum(jend - pi, 0)
    acc = np.zeros(len(h_s), dtype=np.float64)
    for j in range(int(k.max()) if len(k) else 0):
        sel = k > j
        idx = pi[sel] + j
        term = np.maximum(
            0.0,
            np.minimum(h_e[sel], p_e[idx]) - np.maximum(h_s[sel], p_s[idx]),
        )
        acc[sel] = acc[sel] + term
    return acc, (acc > 0) | ((h_e == h_s) & (k > 0))


def compute_metrics_columnar(
    trace: Trace,
    ct: ColumnarTimelines,
    cp: CriticalPath,
) -> dict[int, LockMetrics]:
    """TYPE 1 / TYPE 2 statistics for every lock-like object in the trace."""
    nthreads = max(1, len(ct.tids))
    cp_length = cp.length
    lock_crossings: dict[int, int] = {}
    for j in cp.junctions:
        if j.kind == WaitKind.LOCK:
            lock_crossings[j.obj] = lock_crossings.get(j.obj, 0) + 1

    overlap = np.zeros(len(ct.h_tid), dtype=np.float64)
    on_cp = np.zeros(len(ct.h_tid), dtype=bool)
    for tid, plist in cp.pieces_by_thread().items():
        lo, hi = np.searchsorted(ct.h_tid, [tid, tid + 1]).tolist()
        if hi > lo:
            plist.sort(key=lambda p: (p.start, p.end))
            n = len(plist)
            overlap[lo:hi], on_cp[lo:hi] = _hold_overlaps(
                ct.h_start[lo:hi],
                ct.h_end[lo:hi],
                np.fromiter((p.start for p in plist), dtype=np.float64, count=n),
                np.fromiter((p.end for p in plist), dtype=np.float64, count=n),
            )

    groups = list(ct.hold_groups.items())  # in (tid, obj) order
    by_obj: dict[int, list[int]] = {}  # lock -> its groups, in tid order
    for g, ((_, obj), _) in enumerate(groups):
        by_obj.setdefault(obj, []).append(g)
    starts = np.array([lo for _, (lo, _) in groups], dtype=np.int64)
    cont, n_on_cp, c_on_cp = (
        np.add.reduceat(m.astype(np.int64), starts).tolist()
        for m in (ct.h_contended, on_cp, on_cp & ct.h_contended)
    )
    columns = np.column_stack((ct.h_end - ct.h_start, ct.h_start - ct.h_acquire, overlap))
    lifetimes = dict(zip(ct.tids.tolist(), (ct.t_end - ct.t_start).tolist()))

    out: dict[int, LockMetrics] = {}
    for info in trace.locks:
        obj = info.obj
        cp_hold = total_wait = total_hold = wait_fracs = hold_fracs = 0.0
        inv_on_cp = cont_on_cp = total_inv = cont_inv = 0
        for g in by_obj.get(obj, ()):
            (tid, _), (a, b) = groups[g]
            t_hold, t_wait, o = np.cumsum(columns[a:b], axis=0)[-1].tolist()
            total_inv += b - a
            cont_inv += cont[g]
            total_hold += t_hold
            total_wait += t_wait
            lifetime = lifetimes[tid]
            if lifetime > 0:
                wait_fracs += t_wait / lifetime
                hold_fracs += t_hold / lifetime
            cp_hold += o
            inv_on_cp += n_on_cp[g]
            cont_on_cp += c_on_cp[g]
        avg_inv = total_inv / nthreads
        avg_hold_frac = hold_fracs / nthreads
        cp_frac = cp_hold / cp_length if cp_length > 0 else 0.0
        out[obj] = LockMetrics(
            obj=obj,
            name=info.display_name,
            kind=info.kind,
            cp_hold_time=cp_hold,
            cp_fraction=cp_frac,
            invocations_on_cp=inv_on_cp,
            contended_on_cp=cont_on_cp,
            invocation_increase=(inv_on_cp / avg_inv) if avg_inv > 0 else 0.0,
            size_increase=(cp_frac / avg_hold_frac) if avg_hold_frac > 0 else 0.0,
            cp_crossings=lock_crossings.get(obj, 0),
            total_invocations=total_inv,
            contended_invocations=cont_inv,
            avg_invocations=avg_inv,
            total_wait_time=total_wait,
            avg_wait_fraction=wait_fracs / nthreads,
            total_hold_time=total_hold,
            avg_hold_fraction=avg_hold_frac,
        )
    return out


def compute_thread_stats_columnar(
    ct: ColumnarTimelines, cp: CriticalPath
) -> list[ThreadStats]:
    """Per-thread breakdown: execution vs each kind of blocking, CP share."""
    cp_by_tid: dict[int, float] = {}
    for p in cp.pieces:
        cp_by_tid[p.tid] = cp_by_tid.get(p.tid, 0.0) + p.duration
    wait_durations = ct.w_end - ct.w_start
    stats = []
    for i, t in enumerate(ct.tids):
        tid = int(t)
        lo, hi = int(ct.wait_lo[i]), int(ct.wait_hi[i])
        kinds = ct.w_kind[lo:hi]
        durs = wait_durations[lo:hi]
        # dict-insertion order = first appearance of each kind
        by_kind: dict[WaitKind, float] = {}
        if hi > lo:
            codes, first = np.unique(kinds, return_index=True)
            for k in np.argsort(first):
                code = codes[k]
                by_kind[WAIT_KIND_CODES[code]] = _exact_sum(durs[kinds == code])
        total_wait = sum(by_kind.values())
        lifetime = float(ct.t_end[i] - ct.t_start[i])
        stats.append(
            ThreadStats(
                tid=tid,
                name=ct.names[i],
                lifetime=lifetime,
                exec_time=lifetime - total_wait,
                lock_wait=by_kind.get(WaitKind.LOCK, 0.0),
                barrier_wait=by_kind.get(WaitKind.BARRIER, 0.0),
                cond_wait=by_kind.get(WaitKind.CONDITION, 0.0),
                join_wait=by_kind.get(WaitKind.JOIN, 0.0),
                cp_time=cp_by_tid.get(tid, 0.0),
            )
        )
    return stats
