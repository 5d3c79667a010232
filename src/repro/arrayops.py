"""Shared array primitives for the columnar engine and trace validator.

Pure numpy, no imports from the rest of the package, so both
:mod:`repro.trace.validate` and :mod:`repro.core.columnar` can use it
without an import cycle.  Every grouping is one ``np.argsort`` over one
int64 key:

* :func:`dense_keys` packs integer key columns in mixed radix over
  ``value - column min``.  The packed key is lexicographically
  order-preserving: rows compare exactly as the column tuples do, so it
  can stand in for a multi-key ``lexsort`` or a ``np.unique`` inverse.
  When the product of the column ranges would not fit in int64 with
  headroom, the columns are densified with ``np.unique`` first, which
  keeps the same order.  :func:`lex_order` is the stable row order: a
  radix sort for keys below 2**16, else a fast unstable argsort with the
  row index as the last digit.
* :func:`latest_prior` — "latest earlier event with the same key", the
  vectorized form of ``last_release[obj]`` / ``exits[tid]`` /
  ``last_event[tid]`` style lookups: one argsort by ``(key, pos,
  is_marker)`` and one ``np.maximum.accumulate`` answer every query.
* :func:`prev_same_key` — the previous row with the same key, the
  vectorized form of a per-key slot dict that each row reads or sets.
* :func:`lifo_match` — parenthesis matching per key, the vectorized form
  of the per-``(tid, obj)`` ``open_holds`` stacks.  Depth levels come
  from a segmented cumsum; within one ``(key, level)`` group opens and
  closes alternate, so each close matches the row just before it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "dense_keys",
    "group_bounds",
    "latest_prior",
    "lex_order",
    "lifo_match",
    "prev_same_key",
    "segmented_cumsum",
]

#: Largest packed key range; keeps every key below 2**62.
_KEY_LIMIT = 1 << 62


def _digits(col: np.ndarray) -> tuple[np.ndarray, int]:
    """``col - min(col)`` as a new int64 array and its range, or the
    ``np.unique`` inverse and its size for non-integer columns and huge
    ranges."""
    col = np.asarray(col)
    if col.dtype.kind in "biu":
        lo, hi = int(col.min()), int(col.max())
        if hi - lo < _KEY_LIMIT and hi < 1 << 63:
            digit = col.astype(np.int64)
            if lo:
                digit -= lo
            return digit, hi - lo + 1
    uniq, inv = np.unique(col, return_inverse=True)
    return inv.astype(np.int64, copy=False), len(uniq)


def _pack(cols: tuple[np.ndarray, ...]) -> tuple[np.ndarray, int]:
    """The packed key of non-empty ``cols`` and its (exclusive) bound."""
    key, radix = _digits(cols[0])
    for col in cols[1:]:
        digit, span = _digits(col)
        if radix * span >= _KEY_LIMIT:  # densify both sides: each < n
            uniq, key = np.unique(key, return_inverse=True)
            radix = len(uniq)
            if radix * span >= _KEY_LIMIT:
                uniq, digit = np.unique(digit, return_inverse=True)
                span = len(uniq)
        key *= span
        key += digit
        radix *= span
    return key, radix


def dense_keys(*cols: np.ndarray) -> np.ndarray:
    """Pack parallel key columns into one non-negative int64 key.

    All columns must be the same length.  Equal rows get equal keys and
    key order is the lexicographic order of the rows (first column most
    significant), for any input value ranges.
    """
    if not cols:
        raise ValueError("dense_keys needs at least one column")
    if len(cols[0]) == 0:
        return np.zeros(0, dtype=np.int64)
    return _pack(cols)[0]


def lex_order(*cols: np.ndarray) -> np.ndarray:
    """Stable lexicographic row order of key columns (first column most
    significant), i.e. ``np.lexsort(cols[::-1])``, as one argsort."""
    n = len(cols[0])
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    key, radix = _pack(cols)
    if radix <= 1 << 16:  # numpy's stable sort of 16-bit keys is a radix sort
        return np.argsort(key.astype(np.uint16), kind="stable")
    if radix * n < _KEY_LIMIT:  # the row index as last digit: unique keys
        key *= n
        key += np.arange(n)
        return np.argsort(key)
    return np.argsort(key, kind="stable")


def latest_prior(
    marker_pos: np.ndarray,
    marker_key: np.ndarray,
    query_pos: np.ndarray,
    query_key: np.ndarray,
) -> np.ndarray:
    """For each query, the position of the latest marker strictly before it
    carrying the same key, or ``-1`` when none exists.

    ``marker_pos`` / ``query_pos`` are global record positions
    (non-negative).  Positions are compared strictly, so a marker *at* a
    query's own position is never returned: one record can be both a
    marker and a query (a COND_WAKE is an event of its own thread).
    Keys are arbitrary integers.
    """
    nq, nm = len(query_pos), len(marker_pos)
    out = np.full(nq, -1, dtype=np.int64)
    if nq == 0 or nm == 0:
        return out
    pos = np.concatenate([marker_pos, query_pos]).astype(np.int64, copy=False)
    key = np.concatenate([np.asarray(marker_key), np.asarray(query_key)])
    # At equal (key, pos) queries sort first, so "prior" stays strict.
    order = np.argsort(dense_keys(key, pos, np.arange(nm + nq) < nm))
    is_marker = order < nm
    # The latest marker at or before each sorted row; for a query row it
    # is strictly before, and it is the answer iff it has the same key.
    last = np.maximum.accumulate(np.where(is_marker, np.arange(nm + nq), -1))
    q = np.flatnonzero(~is_marker)
    m = last[q]
    same = (m >= 0) & (key[order[m]] == key[order[q]])
    out[order[q[same]] - nm] = pos[order[m[same]]]
    return out


def prev_same_key(key: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row, the index of the row just before it (in ``pos``
    order) with the same key, or ``-1`` when it is its key's first row;
    and the row order sorted by ``(key, pos)``.  ``pos`` must be unique.
    """
    key = np.asarray(key)
    order = np.argsort(dense_keys(key, pos))
    same = key[order[1:]] == key[order[:-1]]
    prev = np.full(len(key), -1, dtype=np.int64)
    prev[order[1:][same]] = order[:-1][same]
    return prev, order


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

    order = lex_order(key, pos)
    k_s = np.asarray(key)[order]
    opens = np.asarray(is_open, dtype=bool)[order]
    seg_starts, _ = group_bounds(k_s)
    # An open's level is the depth before it, a close's the depth after.
    level = segmented_cumsum(np.where(opens, 1, -1), seg_starts) - opens

    # Depth moves in unit steps from 0, so within one (key, level >= 0)
    # group, in position order, opens and closes alternate starting with
    # an open: each close matches the row just before it.  A close at a
    # negative level popped an empty stack and stays unmatched.
    grouped = lex_order(k_s, level)
    closes = np.flatnonzero(~opens[grouped] & (level[grouped] >= 0))
    c_in = order[grouped[closes]]
    o_in = order[grouped[closes - 1]]
    open_for_close[c_in] = o_in
    close_for_open[o_in] = c_in
    return close_for_open, open_for_close
