"""Columnar TYPE 1 / TYPE 2 metrics, bit-identical to
:func:`repro.check.refengine.compute_metrics`.

Bit-identity constrains the implementation everywhere floats are summed:
the reference pipeline accumulates left to right, and IEEE addition is not
associative, so every per-group total here is a sequential ``np.cumsum``
(empirically identical to a Python ``sum`` loop), never ``np.sum`` /
``np.add.reduceat`` (pairwise summation).  The hold/critical-path
overlap sweep accumulates per hold in piece order via a multiplicity
loop for the same reason.
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


def _overlap_group(
    h_s: np.ndarray,
    h_e: np.ndarray,
    contended: np.ndarray,
    p_s: np.ndarray,
    p_e: np.ndarray,
) -> tuple[float, int, int]:
    """Vectorized :func:`repro.core.metrics._hold_cp_overlap`.

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
    zero = h_e == h_s
    on_cp = (acc > 0) | (zero & (k > 0))
    return (
        _exact_sum(acc),
        int(np.count_nonzero(on_cp)),
        int(np.count_nonzero(on_cp & contended)),
    )


def compute_metrics_columnar(
    trace: Trace,
    ct: ColumnarTimelines,
    cp: CriticalPath,
) -> dict[int, LockMetrics]:
    """TYPE 1 / TYPE 2 statistics for every lock-like object in the trace."""
    nthreads = max(1, len(ct.tids))
    cp_length = cp.length
    pieces_by_thread = cp.pieces_by_thread()
    piece_arrays: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for tid, plist in pieces_by_thread.items():
        plist.sort(key=lambda p: (p.start, p.end))
        piece_arrays[tid] = (
            np.fromiter((p.start for p in plist), dtype=np.float64, count=len(plist)),
            np.fromiter((p.end for p in plist), dtype=np.float64, count=len(plist)),
        )
    lock_crossings: dict[int, int] = {}
    for j in cp.junctions:
        if j.kind == WaitKind.LOCK:
            lock_crossings[j.obj] = lock_crossings.get(j.obj, 0) + 1

    durations = ct.h_end - ct.h_start
    hold_waits = ct.h_start - ct.h_acquire
    lifetimes = ct.t_end - ct.t_start

    out: dict[int, LockMetrics] = {}
    for info in trace.locks:
        obj = info.obj
        cp_hold = 0.0
        inv_on_cp = 0
        cont_on_cp = 0
        total_inv = 0
        cont_inv = 0
        total_wait = 0.0
        total_hold = 0.0
        wait_fracs = 0.0
        hold_fracs = 0.0
        for i, t in enumerate(ct.tids):
            tid = int(t)
            group = ct.hold_groups.get((tid, obj))
            if group is None:
                t_hold = 0.0
                t_wait = 0.0
            else:
                lo, hi = group
                t_hold = _exact_sum(durations[lo:hi])
                t_wait = _exact_sum(hold_waits[lo:hi])
                total_inv += hi - lo
                cont_inv += int(np.count_nonzero(ct.h_contended[lo:hi]))
            total_hold += t_hold
            total_wait += t_wait
            lifetime = float(lifetimes[i])
            if lifetime > 0:
                wait_fracs += t_wait / lifetime
                hold_fracs += t_hold / lifetime
            pieces = piece_arrays.get(tid)
            if pieces is not None and group is not None and group[1] > group[0]:
                lo, hi = group
                o, cnt, c = _overlap_group(
                    ct.h_start[lo:hi],
                    ct.h_end[lo:hi],
                    ct.h_contended[lo:hi],
                    pieces[0],
                    pieces[1],
                )
                cp_hold += o
                inv_on_cp += cnt
                cont_on_cp += c
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
