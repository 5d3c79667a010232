"""Waker resolution: the wake rules and their result types.

For every event that ends a blocked interval, determine which thread (and
which of its events) enabled it — the paper's §IV.B rules:

* lock OBTAIN (contended): "the thread holding the same lock adjacently
  before the blocked thread" — i.e. the RELEASE event immediately
  preceding the OBTAIN on that object;
* BARRIER_DEPART: "the thread reaching the same barrier lastly" — the
  cohort's final BARRIER_ARRIVE;
* COND_WAKE: "the thread signaling the same condition variable" — the
  matching COND_SIGNAL / COND_BROADCAST;
* JOIN_END: the joined thread's THREAD_EXIT;
* THREAD_START: the parent's THREAD_CREATE (used when the backward walk
  reaches the beginning of a non-root thread).

:func:`repro.core.columnar.resolve_wakers_columnar` applies the rules;
:meth:`~repro.core.columnar.ColumnarWakers.to_table` materializes the
:class:`WakerTable` below.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["WakeInfo", "WakerTable"]


@dataclass(frozen=True, slots=True)
class WakeInfo:
    """The waking event: who enabled a wake, and when."""

    waker_tid: int
    waker_time: float
    waker_seq: int


@dataclass(frozen=True, slots=True)
class WakerTable:
    """Every resolved waker of one trace.

    ``wakes`` maps the *seq of a wake event* (OBTAIN with contended flag,
    BARRIER_DEPART, COND_WAKE, JOIN_END) to its waker; ``creations`` maps
    a child tid to the parent's THREAD_CREATE info.
    """

    wakes: dict[int, WakeInfo]
    creations: dict[int, WakeInfo]
