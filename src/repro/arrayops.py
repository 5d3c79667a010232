"""Shared array primitives for the columnar engine and trace validator.

Pure numpy, no imports from the rest of the package, so both
:mod:`repro.trace.validate` and :mod:`repro.core.columnar` can use it
without an import cycle.  Three tools cover every dict the object
engine keeps while scanning the trace:

* :func:`latest_prior` — "latest earlier event with the same key", the
  vectorized form of ``last_release[obj]`` / ``exits[tid]`` /
  ``last_event[tid]`` style lookups.  One ``np.maximum.accumulate`` over
  an encoded (key, position) stream answers every query at once.
* :func:`lifo_match` — parenthesis matching per key, the vectorized form
  of the per-``(tid, obj)`` ``open_holds`` stacks.  Depth levels come
  from a segmented cumsum; the k-th push at ``(key, level)`` matches the
  k-th pop at the same pair.
* :func:`exact_group_sums` — per-group sums computed with ``np.cumsum``
  so each group's floats are added left to right, exactly like the
  object engine's ``for``-loop accumulators.  ``np.add.reduceat`` would
  be faster but uses pairwise summation and is *not* bit-identical.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "dense_keys",
    "exact_group_sums",
    "group_bounds",
    "latest_prior",
    "lifo_match",
    "segmented_cumsum",
]


def dense_keys(*cols: np.ndarray) -> np.ndarray:
    """Collapse parallel key columns into one dense non-negative int64 key.

    All columns must be the same length; the result assigns equal rows
    equal ids without overflow regardless of the input value ranges.
    """
    key: np.ndarray | None = None
    for col in cols:
        uniq, inv = np.unique(np.asarray(col), return_inverse=True)
        inv = inv.astype(np.int64, copy=False)
        key = inv if key is None else key * np.int64(len(uniq)) + inv
    if key is None:
        raise ValueError("dense_keys needs at least one column")
    return key


def latest_prior(
    marker_pos: np.ndarray,
    marker_key: np.ndarray,
    query_pos: np.ndarray,
    query_key: np.ndarray,
) -> np.ndarray:
    """For each query, the position of the latest marker strictly before it
    carrying the same key, or ``-1`` when none exists.

    ``marker_pos`` / ``query_pos`` are global record positions (unique,
    non-negative, no marker sharing a position with a query unless the
    marker should be visible to later queries only — positions are
    compared strictly, so a marker *at* a query's own position is never
    returned).  Keys are arbitrary integers; they are densified here so
    callers can pack whatever fits.
    """
    nq = len(query_pos)
    out = np.full(nq, -1, dtype=np.int64)
    if nq == 0 or len(marker_pos) == 0:
        return out

    marker_pos = np.asarray(marker_pos, dtype=np.int64)
    query_pos = np.asarray(query_pos, dtype=np.int64)
    nm = len(marker_pos)
    key = dense_keys(np.concatenate([np.asarray(marker_key), np.asarray(query_key)]))
    pos = np.concatenate([marker_pos, query_pos])
    is_marker = np.zeros(nm + nq, dtype=bool)
    is_marker[:nm] = True

    # Sort by (key, pos, is_marker): one record can be both a marker and
    # a query (a COND_WAKE is an event of its own thread), and "prior"
    # is strict, so at equal positions the query must come first to keep
    # the marker out of its own running maximum.
    order = np.lexsort((is_marker, pos, key))
    span = np.int64(int(pos.max()) + 1)
    enc = np.where(is_marker[order], key[order] * span + pos[order] + 1, 0)
    running = np.maximum.accumulate(enc)
    prior = np.empty_like(running)
    prior[0] = 0
    prior[1:] = running[:-1]

    qmask = ~is_marker[order]
    pq = prior[qmask] - 1  # encoded latest prior entry, -1 when none
    qkey = key[order][qmask]
    valid = (pq >= 0) & (pq // span == qkey)
    result_sorted = np.where(valid, pq % span, -1)

    orig_idx = order[qmask] - nm
    out[orig_idx] = result_sorted
    return out


def group_bounds(sorted_key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start offsets and keys of each run in an already-sorted key array."""
    if len(sorted_key) == 0:
        return np.zeros(0, dtype=np.int64), sorted_key
    starts = np.flatnonzero(np.concatenate([[True], sorted_key[1:] != sorted_key[:-1]]))
    return starts.astype(np.int64), sorted_key[starts]


def segmented_cumsum(values: np.ndarray, seg_starts: np.ndarray) -> np.ndarray:
    """Cumulative sum restarting at each segment boundary.

    Only safe for *integer* values (exact arithmetic): implemented as a
    global cumsum minus the per-segment offset.
    """
    if len(values) == 0:
        return values.copy()
    total = np.cumsum(values)
    seg_lens = np.diff(np.append(seg_starts, len(values)))
    base_vals = np.zeros(len(seg_starts), dtype=total.dtype)
    if len(seg_starts) > 1:
        base_vals[1:] = total[seg_starts[1:] - 1]
    return total - np.repeat(base_vals, seg_lens)


def lifo_match(
    pos: np.ndarray,
    key: np.ndarray,
    is_open: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Stack-discipline matching of opens/closes per key.

    ``pos`` are unique global positions; events are stacked per ``key``
    in position order.  Returns ``(close_for_open, open_for_close)``:
    for each open event (in input order) the input index of its matching
    close or ``-1`` if never closed, and for each close the index of its
    open or ``-1`` for a pop on an empty stack (an error in the object
    engine).  Indices refer to the *input* arrays.
    """
    n = len(pos)
    close_for_open = np.full(n, -1, dtype=np.int64)
    open_for_close = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return close_for_open, open_for_close

    pos = np.asarray(pos, dtype=np.int64)
    key = dense_keys(key)
    delta = np.where(is_open, 1, -1).astype(np.int64)

    order = np.lexsort((pos, key))
    k_s = key[order]
    d_s = delta[order]
    seg_starts, _ = group_bounds(k_s)
    depth_after = segmented_cumsum(d_s, seg_starts)
    depth_before = depth_after - d_s
    level = np.where(d_s > 0, depth_before, depth_after)

    # A pop below depth 0 has no matching push by construction; matching
    # on (key, level, rank) below leaves it unmatched because ranks are
    # counted per non-negative level only.
    open_sel = d_s > 0
    close_sel = ~open_sel

    def ranked(sel: np.ndarray) -> np.ndarray:
        """Rank within (key, level) in position order, for selected rows."""
        kk = k_s[sel]
        ll = level[sel]
        sub = dense_keys(kk, ll)
        sub_order = np.argsort(sub, kind="stable")  # rows already pos-sorted per key
        sorted_sub = sub[sub_order]
        starts, _ = group_bounds(sorted_sub)
        rank_sorted = segmented_cumsum(np.ones(len(sorted_sub), dtype=np.int64), starts) - 1
        rank = np.empty(len(sorted_sub), dtype=np.int64)
        rank[sub_order] = rank_sorted
        return rank

    open_rank = ranked(open_sel)
    close_rank = ranked(close_sel)

    open_key3 = np.stack(
        [k_s[open_sel], level[open_sel], open_rank], axis=1
    ) if open_sel.any() else np.zeros((0, 3), dtype=np.int64)
    close_key3 = np.stack(
        [k_s[close_sel], level[close_sel], close_rank], axis=1
    ) if close_sel.any() else np.zeros((0, 3), dtype=np.int64)

    combined = dense_keys(
        np.concatenate([open_key3[:, 0], close_key3[:, 0]]),
        np.concatenate([open_key3[:, 1], close_key3[:, 1]]),
        np.concatenate([open_key3[:, 2], close_key3[:, 2]]),
    )
    no = int(open_sel.sum())
    ok3 = combined[:no]
    ck3 = combined[no:]
    if len(ok3) == 0:
        return close_for_open, open_for_close
    # Negative-level closes must never match anything (their level can
    # coincide with a later open's level after the depth went negative,
    # but the object engine aborts at the first bad pop anyway; we just
    # need them flagged unmatched so the caller can raise).
    neg_close = level[close_sel] < 0

    o_order = np.argsort(ok3, kind="stable")
    idx = np.searchsorted(ok3[o_order], ck3)
    idx_clipped = np.minimum(idx, len(ok3) - 1)
    hit = (idx < len(ok3)) & (ok3[o_order][idx_clipped] == ck3) & ~neg_close

    open_input_idx = order[open_sel]
    close_input_idx = order[close_sel]
    matched_open = np.where(hit, open_input_idx[o_order][idx_clipped], -1)
    open_for_close[close_input_idx] = matched_open
    ok_closes = matched_open >= 0
    close_for_open[matched_open[ok_closes]] = close_input_idx[ok_closes]
    return close_for_open, open_for_close


def exact_group_sums(values: np.ndarray, seg_starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Left-to-right float sum of each ``[start, end)`` segment.

    One ``np.cumsum`` per segment keeps IEEE addition order identical to
    the object engine's accumulator loops.  Call sites have few segments
    (locks × threads), so the Python loop is cheap.
    """
    out = np.zeros(len(seg_starts), dtype=np.float64)
    for i, (lo, hi) in enumerate(zip(seg_starts, ends)):
        if hi > lo:
            out[i] = np.cumsum(values[lo:hi])[-1]
    return out
