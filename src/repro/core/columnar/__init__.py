"""Columnar (numpy) implementation of the analysis.

The per-event reference pipeline (:mod:`repro.check.refengine`)
materializes one :class:`~repro.trace.events.Event` per record — three
full passes of Python object construction on a path the trace reader
already hands us as a structured array.  This package keeps the columns:

* :mod:`repro.core.columnar.wakers` resolves every waker with sorted
  searchsorted/argsort passes instead of two dict-driven event loops;
* :mod:`repro.core.columnar.timelines` builds blocked intervals and
  lock-hold intervals as flat arrays (one slot-matching pass per wait
  kind, one LIFO paren-matching pass for holds), with a thin view layer
  that materializes :class:`~repro.core.model.Wait` /
  :class:`~repro.core.model.HoldInterval` objects only where the DAG,
  what-if and viz layers need them;
* :mod:`repro.core.columnar.walk` drives the paper's backward walk with
  per-thread index arrays instead of dict lookups;
* :mod:`repro.core.columnar.metrics` computes the TYPE 1 / TYPE 2 tables
  with per-group ``np.cumsum`` so every float is summed in exactly the
  order the reference pipeline uses — the output is *bit-identical*, which
  the ``engine-equiv`` invariant of ``repro.check`` enforces on every
  fuzzed seed;
* :mod:`repro.core.columnar.online` is the batch kernel behind
  :meth:`repro.core.online.OnlineAnalyzer.observe_batch`.

:func:`repro.core.analyzer.analyze` runs these stages in order (see
``docs/algorithm.md``).
"""

from repro.core.columnar.metrics import (
    compute_metrics_columnar,
    compute_thread_stats_columnar,
)
from repro.core.columnar.timelines import ColumnarTimelines, build_timelines_columnar
from repro.core.columnar.wakers import ColumnarWakers, resolve_wakers_columnar
from repro.core.columnar.walk import backward_walk_columnar

__all__ = [
    "ColumnarTimelines",
    "ColumnarWakers",
    "backward_walk_columnar",
    "build_timelines_columnar",
    "compute_metrics_columnar",
    "compute_thread_stats_columnar",
    "resolve_wakers_columnar",
]
