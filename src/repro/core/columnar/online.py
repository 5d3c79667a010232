"""Vectorized batch kernel for :class:`repro.core.online.OnlineAnalyzer`.

``observe_batch`` used to replay each lock-verb row through
``observe()`` one ``Event`` object at a time; this module consumes a
whole record batch per lock with the same array primitives as the
offline columnar engine, carrying the tiny per-lock dict state
(pending acquires, open holds, last release, running chain) across
batches so a chunked stream produces the same counters as event-at-a-
time feeding.

The chain heuristic exploits that holds are non-negative: between two
chain resets the running chain only grows, so the segment's maximum is
its final value — one grouped sum per reset segment instead of a
running max per release.
"""

from __future__ import annotations

import numpy as np

from repro.arrayops import latest_prior
from repro.trace.events import EventType

__all__ = ["consume_lock_batch"]

_ACQUIRE = int(EventType.ACQUIRE)
_OBTAIN = int(EventType.OBTAIN)
_RELEASE = int(EventType.RELEASE)


def _batch_sum(values: np.ndarray) -> float:
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def _slot_batch(
    pos: np.ndarray,
    tid: np.ndarray,
    time: np.ndarray,
    setters: np.ndarray,
    getters: np.ndarray,
    carry: dict[int, float],
) -> np.ndarray:
    """Replay a per-tid pop-on-get slot dict over one lock's rows.

    Returns each getter's popped value (default: its own time).  A
    getter sees an in-batch setter iff the latest prior setter of its
    tid is more recent than the latest prior getter (getters always
    pop); with neither in the batch, the slot still holds whatever
    ``carry`` brought in from earlier batches.  ``carry`` is updated in
    place to the post-batch slot state.
    """
    values = time[getters].copy()
    if len(getters) == 0:
        # No pops: in-batch setters still land in the carried slots.
        for p in setters:
            carry[int(tid[p])] = float(time[p])
        return values
    # latest_prior returns row *positions* (elements of its marker_pos
    # argument), -1 where no prior marker exists.
    if len(setters):
        s_pos = latest_prior(setters, tid[setters], getters, tid[getters])
    else:
        s_pos = np.full(len(getters), -1, dtype=np.int64)
    g_pos = latest_prior(getters, tid[getters], getters, tid[getters])
    from_batch = s_pos > g_pos  # -1 sentinels make the comparison safe
    if np.any(from_batch):
        values[from_batch] = time[s_pos[from_batch]]
    for q in np.flatnonzero((s_pos < 0) & (g_pos < 0)):
        got = carry.get(int(tid[getters[q]]))
        if got is not None:
            values[q] = got

    # Post-batch slot state per tid: the last setter survives iff no
    # getter follows it; any getter at all empties the slot first.
    last_set: dict[int, float] = {}
    last_set_pos: dict[int, int] = {}
    for p in setters:
        last_set[int(tid[p])] = float(time[p])
        last_set_pos[int(tid[p])] = int(p)
    for p in getters:
        t = int(tid[p])
        if last_set_pos.get(t, -1) < int(p):
            carry.pop(t, None)
            last_set.pop(t, None)
            last_set_pos.pop(t, None)
    carry.update(last_set)
    return values


def consume_lock_batch(ls, etype, tid, time, arg) -> None:
    """Feed one lock's rows (batch order) into its ``OnlineLockStats``.

    Bit-for-bit counter parity with ``observe()`` (invocations,
    contended); float accumulators land within summation-reorder noise.
    """
    n = len(etype)
    pos = np.arange(n, dtype=np.int64)
    tid = tid.astype(np.int64)
    acquires = pos[etype == _ACQUIRE]
    obtains = pos[etype == _OBTAIN]
    releases = pos[etype == _RELEASE]

    acq_vals = _slot_batch(pos, tid, time, acquires, obtains, ls._pending_acquire)
    start_vals = _slot_batch(pos, tid, time, obtains, releases, ls._obtain_time)

    contended = arg[obtains] != 0
    ls.invocations += len(obtains)
    ls.contended += int(np.count_nonzero(contended))
    ls.wait_time += _batch_sum(time[obtains][contended] - acq_vals[contended])

    holds = time[releases] - start_vals
    ls.hold_time += _batch_sum(holds)

    # Chain resets: uncontended OBTAIN at or after the last RELEASE seen
    # (in-batch latest prior release, else the carried one).
    unc = obtains[~contended]
    if len(unc) and len(releases):
        prev = np.searchsorted(releases, unc) - 1
        prev_rel = np.where(
            prev >= 0, time[releases[np.maximum(prev, 0)]], ls._last_release
        )
        resets = unc[time[unc] >= prev_rel]
    elif len(unc):
        resets = unc[time[unc] >= ls._last_release]
    else:
        resets = unc
    if len(releases):
        csum = np.cumsum(holds)
        # Segment boundaries: number of releases before each reset.
        k = np.searchsorted(releases, resets)
        bounds = np.concatenate(([0], k, [len(releases)]))
        for j in range(len(bounds) - 1):
            lo, hi = int(bounds[j]), int(bounds[j + 1])
            if hi <= lo:
                continue
            seg = float(csum[hi - 1]) - (float(csum[lo - 1]) if lo else 0.0)
            base = ls.chain_time if j == 0 else 0.0
            ls.max_chain_time = max(ls.max_chain_time, base + seg)
        last_lo = int(bounds[-2])
        tail = float(csum[-1]) - (float(csum[last_lo - 1]) if last_lo else 0.0)
        ls.chain_time = (ls.chain_time if len(resets) == 0 else 0.0) + tail
        ls._last_release = float(time[releases[-1]])
    elif len(resets):
        ls.chain_time = 0.0
