"""Trace well-formedness checking.

The backward critical-path walk assumes structural invariants that the
instrumentation layer must uphold (every OBTAIN pairs with a preceding
ACQUIRE, mutex ownership is exclusive, barrier cohorts are complete...).
``validate_trace`` checks them all and reports every violation, which makes
it both a guard for the analyzer and a test oracle for the tracers.

The checks run on the trace's numpy columns, so validation stays cheaper
than the analysis it guards and is always on.  Every per-key counter the
rules need (pending ACQUIREs, held levels, blocked waiters, begun joins)
is a +1/-1 walk floored at zero, which in closed form is
``S - min(0, running min of S)`` for the per-key cumulative sum ``S``; a
decrement that finds the counter at zero is exactly a step where that
floor drops.  Mutex ownership is two :func:`~repro.arrayops.latest_prior`
queries.  Python strings are built only for rows that have a problem.
The result is the per-event reference in :mod:`repro.check.refvalidate`
message for message, order included (the ``validator-equiv`` oracle
invariant); rows with an unknown event type are reported on their own,
before any other check runs.
"""

from __future__ import annotations

import numpy as np

from repro.arrayops import dense_keys, group_bounds, latest_prior, lex_order, segmented_cumsum
from repro.errors import TraceValidationError
from repro.trace.events import NO_OBJECT, EventType, ObjectKind
from repro.trace.trace import Trace

__all__ = ["validate_trace", "trace_problems"]

_KNOWN_TYPES = np.array([int(e) for e in EventType], dtype=np.uint8)
_LOCK_KINDS = np.array(
    [int(k) for k in ObjectKind if k.is_lock_like], dtype=np.uint8
)

# A problem found on one row: (row, rank within the row, message).  Rows
# are in seq order, so sorting these reproduces the event-loop order.
_Found = list[tuple[int, int, str]]


def validate_trace(trace: Trace) -> None:
    """Raise :class:`TraceValidationError` if the trace is malformed."""
    problems = trace_problems(trace)
    if problems:
        raise TraceValidationError(problems)


def trace_problems(trace: Trace) -> list[str]:
    """Return a list of human-readable structural problems (empty if OK)."""
    rec = trace.records
    unknown = np.flatnonzero(~np.isin(rec["etype"], _KNOWN_TYPES))
    if len(unknown):
        return [
            f"seq {int(rec['seq'][i])}: unknown event type {int(rec['etype'][i])}"
            for i in unknown
        ]
    problems: list[str] = []
    problems += _check_thread_lifecycles(trace)
    problems += _check_lock_protocol(trace)
    problems += _check_barriers(trace)
    problems += _check_condition_variables(trace)
    problems += _check_joins(trace)
    return problems


def _floored_counter(
    key: np.ndarray, up: np.ndarray, order: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Replay one counter per key: +1 on ``up`` rows, else -1 floored at 0.

    Rows are taken in input order; ``order`` is their stable sort by key
    when the caller already has it.  Returns ``(level, underflow, first,
    final)``: the counter after each row, the rows whose decrement found
    it at zero (both in input order), and per key the input index of its
    first row and the counter after its last row.
    """
    n = len(key)
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.astype(bool), empty, empty
    if order is None:
        order = lex_order(key)
    starts, _ = group_bounds(key[order])
    step = np.where(up[order], 1, -1).astype(np.int32)
    total = segmented_cumsum(step, starts)
    del step
    # Segmented running minimum: lower each key's run below every earlier
    # run (|total| <= n), so one global accumulate never crosses a run.
    shift = np.repeat(
        np.arange(len(starts), dtype=np.int64) * (2 * n + 1),
        np.diff(np.append(starts, n)),
    )
    floor = np.minimum.accumulate(total - shift)
    floor += shift
    del shift
    np.minimum(floor, 0, out=floor)
    drops = np.empty(n, dtype=bool)
    drops[1:] = floor[1:] < floor[:-1]
    drops[starts] = floor[starts] < 0
    level_sorted = (total - floor).astype(np.int32)
    del total, floor
    level = np.empty(n, dtype=np.int32)
    level[order] = level_sorted
    underflow = np.empty(n, dtype=bool)
    underflow[order] = drops
    final = level_sorted[np.append(starts[1:], n) - 1]
    return level, underflow, order[starts], final


def _open_at_end(first: np.ndarray, final: np.ndarray) -> list[tuple[int, int]]:
    """``(first row, level)`` of the keys left non-zero, in first-seen order
    (the insertion order of the reference's counter dicts)."""
    left = np.flatnonzero(final != 0)
    left = left[np.argsort(first[left], kind="stable")]
    return list(zip(first[left].tolist(), final[left].tolist()))


def _sorted_messages(found: _Found) -> list[str]:
    found.sort(key=lambda item: (item[0], item[1]))
    return [msg for _, _, msg in found]


def _check_thread_lifecycles(trace: Trace) -> list[str]:
    problems: list[str] = []
    rec = trace.records
    if len(rec) == 0:
        return problems
    tid = rec["tid"]
    etype = rec["etype"]
    order = lex_order(tid)
    bounds, tids = group_bounds(tid[order])
    first_type = etype[order[bounds]]
    last_type = etype[order[np.append(bounds[1:], len(tid)) - 1]]
    start, exit_ = int(EventType.THREAD_START), int(EventType.THREAD_EXIT)
    starts = np.bincount(np.searchsorted(tids, tid[etype == start]), minlength=len(tids))
    exits = np.bincount(np.searchsorted(tids, tid[etype == exit_]), minlength=len(tids))
    bad = (first_type != start) | (last_type != exit_) | (starts != 1) | (exits != 1)
    for i in np.flatnonzero(bad):
        t = int(tids[i])
        if first_type[i] != start:
            name = EventType(int(first_type[i])).name
            problems.append(f"T{t}: first event is {name}, expected THREAD_START")
        if last_type[i] != exit_:
            name = EventType(int(last_type[i])).name
            problems.append(f"T{t}: last event is {name}, expected THREAD_EXIT")
        if starts[i] != 1:
            problems.append(f"T{t}: {int(starts[i])} THREAD_START events, expected 1")
        if exits[i] != 1:
            problems.append(f"T{t}: {int(exits[i])} THREAD_EXIT events, expected 1")
    created = set(rec["arg"][etype == int(EventType.THREAD_CREATE)].tolist())
    for child in sorted(created.difference(tids.tolist())):
        problems.append(f"THREAD_CREATE names T{child} which emitted no events")
    return problems


def _object_kinds(trace: Trace, objs: np.ndarray) -> np.ndarray:
    """Kind of each row's object; unknown ids count as mutexes."""
    out = np.full(len(objs), int(ObjectKind.MUTEX), dtype=np.uint8)
    if not trace.objects:
        return out
    ids = np.array(sorted(trace.objects), dtype=np.int64)
    kinds = np.array([int(trace.objects[i].kind) for i in ids.tolist()], dtype=np.uint8)
    pos = np.minimum(np.searchsorted(ids, objs), len(ids) - 1)
    hit = ids[pos] == objs
    out[hit] = kinds[pos[hit]]
    return out


def _check_lock_protocol(trace: Trace) -> list[str]:
    rec = trace.records
    etype = rec["etype"]
    obj = rec["obj"]
    acquire, obtain, release = (
        int(EventType.ACQUIRE), int(EventType.OBTAIN), int(EventType.RELEASE)
    )
    rows = np.flatnonzero((etype >= acquire) & (etype <= release) & (obj != NO_OBJECT))
    if len(rows) == 0:
        return []
    found: _Found = []
    seq = rec["seq"]
    kind = _object_kinds(trace, obj[rows])
    lock_like = np.isin(kind, _LOCK_KINDS)
    for r in rows[~lock_like].tolist():
        found.append((r, 0, (
            f"seq {int(seq[r])}: {EventType(int(etype[r])).name} on non-lock "
            f"object {trace.object_name(int(obj[r]))}"
        )))
    rows = rows[lock_like]
    is_mutex = kind[lock_like] == int(ObjectKind.MUTEX)
    del kind, lock_like
    r_type = etype[rows]
    r_obj = obj[rows]
    r_tid = rec["tid"][rows]
    key = dense_keys(r_obj, r_tid)
    # One stable sort by key serves both counters below: a stable order
    # stays stable when rows are masked out of it.
    by_key = lex_order(key)

    def counter(sub_mask: np.ndarray, up: np.ndarray):
        order = (np.cumsum(sub_mask) - 1)[by_key[sub_mask[by_key]]]
        sub = np.flatnonzero(sub_mask)
        return (sub, *_floored_counter(key[sub], up[sub], order))

    def where(r: int) -> tuple[int, int, str]:
        return int(seq[r]), int(rec["tid"][r]), trace.object_name(int(obj[r]))

    # Pending ACQUIREs per (object, thread): ACQUIRE +1, OBTAIN -1.
    sub, level, under, first, final = counter(r_type != release, r_type == acquire)
    for r in rows[sub[(r_type[sub] == acquire) & (level > 1)]].tolist():
        s, t, name = where(r)
        found.append((r, 0, f"seq {s}: T{t} double-ACQUIRE on {name}"))
    for r in rows[sub[under]].tolist():
        s, t, name = where(r)
        found.append((r, 0, f"seq {s}: T{t} OBTAIN without ACQUIRE on {name}"))
    pending_left = [(int(rows[sub[i]]), n) for i, n in _open_at_end(first, final)]

    # Held levels per (object, thread): OBTAIN +1, RELEASE -1.
    sub, _, under, first, final = counter(r_type != acquire, r_type == obtain)
    for r in rows[sub[under]].tolist():
        s, t, name = where(r)
        found.append((r, 0, f"seq {s}: T{t} RELEASE without OBTAIN on {name}"))
    held_left = [(int(rows[sub[i]]), n) for i, n in _open_at_end(first, final)]
    del sub, level, under, first, final, key, by_key

    # Mutex ownership.  A RELEASE clears the owner iff it comes from the
    # thread of the latest prior OBTAIN; an OBTAIN collides iff the latest
    # prior OBTAIN-or-clearing-RELEASE on its mutex is an OBTAIN.
    mutex_rows = np.flatnonzero(is_mutex)
    obtains = mutex_rows[r_type[mutex_rows] == obtain]
    releases = mutex_rows[r_type[mutex_rows] == release]
    del mutex_rows, is_mutex
    owner = latest_prior(obtains, r_obj[obtains], releases, r_obj[releases])
    clears = releases[(owner >= 0) & (r_tid[np.maximum(owner, 0)] == r_tid[releases])]
    del owner, releases
    markers = np.concatenate([obtains, clears])
    prior = latest_prior(markers, r_obj[markers], obtains, r_obj[obtains])
    del markers, clears
    collide = prior >= 0
    collide[collide] = r_type[prior[collide]] == obtain
    for i, p in zip(obtains[collide].tolist(), prior[collide].tolist()):
        s, t, name = where(int(rows[i]))
        found.append((int(rows[i]), 1, (
            f"seq {s}: T{t} OBTAIN on {name} while held by T{int(r_tid[p])}"
        )))

    problems = _sorted_messages(found)
    for r, n in held_left:
        _, t, name = where(r)
        problems.append(f"T{t} exited holding {name} ({n} levels)")
    for r, _ in pending_left:
        _, t, name = where(r)
        problems.append(f"T{t} exited with pending ACQUIRE on {name}")
    return problems


def _check_barriers(trace: Trace) -> list[str]:
    rec = trace.records
    etype = rec["etype"]
    arrive_t, depart_t = int(EventType.BARRIER_ARRIVE), int(EventType.BARRIER_DEPART)
    rows = np.flatnonzero((etype == arrive_t) | (etype == depart_t))
    if len(rows) == 0:
        return []
    b_obj, gen, b_tid = rec["obj"][rows], rec["arg"][rows], rec["tid"][rows]
    order = np.lexsort((b_tid, gen, b_obj))
    b_obj, gen, b_tid = b_obj[order], gen[order], b_tid[order]
    arrive = etype[rows[order]] == arrive_t
    del rows, order
    new_pair = np.ones(len(gen), dtype=bool)
    new_pair[1:] = (b_obj[1:] != b_obj[:-1]) | (gen[1:] != gen[:-1])
    new_tid = new_pair.copy()
    new_tid[1:] |= b_tid[1:] != b_tid[:-1]
    # A cohort matches iff every (barrier, generation, thread) arrives as
    # often as it departs.
    tid_starts = np.flatnonzero(new_tid)
    balance = np.add.reduceat(np.where(arrive, 1, -1), tid_starts)
    unbalanced = np.repeat(balance != 0, np.diff(np.append(tid_starts, len(gen))))
    pair_starts = np.flatnonzero(new_pair)
    pair_ends = np.append(pair_starts[1:], len(gen))
    bad = np.logical_or.reduceat(unbalanced, pair_starts)
    problems = []
    for lo, hi in zip(pair_starts[bad].tolist(), pair_ends[bad].tolist()):
        tids, arr = b_tid[lo:hi], arrive[lo:hi]
        a, d = tids[arr].tolist(), tids[~arr].tolist()
        problems.append(
            f"barrier {trace.object_name(int(b_obj[lo]))} generation {int(gen[lo])}: "
            f"arrivals {a} != departures {d}"
        )
    return problems


def _check_condition_variables(trace: Trace) -> list[str]:
    rec = trace.records
    etype = rec["etype"]
    block_t, wake_t = int(EventType.COND_BLOCK), int(EventType.COND_WAKE)
    rows = np.flatnonzero((etype == block_t) | (etype == wake_t))
    if len(rows) == 0:
        return []
    seq, tid, obj, arg = rec["seq"], rec["tid"], rec["obj"], rec["arg"]
    is_block = etype[rows] == block_t
    _, under, first, final = _floored_counter(dense_keys(obj[rows], tid[rows]), is_block)
    found: _Found = []
    for r in rows[under].tolist():
        found.append((r, 0, (
            f"seq {int(seq[r])}: T{int(tid[r])} COND_WAKE without COND_BLOCK on "
            f"{trace.object_name(int(obj[r]))}"
        )))
    wakes = rows[~is_block]
    unknown = wakes[~np.isin(arg[wakes], tid)]
    for r in unknown.tolist():
        found.append((r, 1, (
            f"seq {int(seq[r])}: COND_WAKE names unknown signaller T{int(arg[r])}"
        )))
    problems = _sorted_messages(found)
    for i, _ in _open_at_end(first, final):
        r = int(rows[i])
        problems.append(
            f"T{int(tid[r])} exited still blocked on condition "
            f"{trace.object_name(int(obj[r]))}"
        )
    return problems


def _check_joins(trace: Trace) -> list[str]:
    rec = trace.records
    etype = rec["etype"]
    begin_t, end_t = int(EventType.JOIN_BEGIN), int(EventType.JOIN_END)
    rows = np.flatnonzero((etype == begin_t) | (etype == end_t))
    if len(rows) == 0:
        return []
    seq, tid, arg = rec["seq"], rec["tid"], rec["arg"]
    exits = np.flatnonzero(etype == int(EventType.THREAD_EXIT))[::-1]
    exited, last = np.unique(tid[exits], return_index=True)
    exit_seq = seq[exits[last]]
    is_begin = etype[rows] == begin_t
    _, under, _, _ = _floored_counter(dense_keys(tid[rows], arg[rows]), is_begin)
    found: _Found = []
    for r in rows[under].tolist():
        found.append((r, 0, (
            f"seq {int(seq[r])}: T{int(tid[r])} JOIN_END without JOIN_BEGIN "
            f"on T{int(arg[r])}"
        )))
    ends = rows[~is_begin]
    if len(exited):
        pos = np.minimum(np.searchsorted(exited, arg[ends]), len(exited) - 1)
        known = exited[pos] == arg[ends]
        early = known & (exit_seq[pos] > seq[ends])
    else:
        known = early = np.zeros(len(ends), dtype=bool)
    for r in ends[~known].tolist():
        found.append((r, 1, (
            f"seq {int(seq[r])}: T{int(tid[r])} joined T{int(arg[r])} which never exited"
        )))
    for r in ends[early].tolist():
        found.append((r, 1, (
            f"seq {int(seq[r])}: T{int(tid[r])} JOIN_END precedes "
            f"T{int(arg[r])} THREAD_EXIT"
        )))
    return _sorted_messages(found)
