"""Feeding the aggregator: background ingest and store-wide catch-up.

Two paths produce observations:

* :class:`FleetIngestor` — a single daemon thread the service owns.
  Every trace-store write (upload or finalized stream session) enqueues
  the stored entry; the thread analyzes it off the request path and
  folds the result into the aggregator (a writer that already analyzed
  the trace, like ``finalize(analyze=True)``, hands over its report).
  Each digest is analyzed at most once ever — the observation persists
  in fleet state, so a service restart does not re-analyze the store.
* :func:`ingest_store` — synchronous catch-up over a whole trace store
  (the ``fleet`` CLI working against a data directory, or a service
  that inherited a store populated before fleet observability existed).
  Already-observed digests are skipped, so repeated invocations are
  incremental, not rescans.
"""

from __future__ import annotations

import logging
import queue
import threading
import time
from typing import Any

from repro.errors import ReproError
from repro.fleet.aggregate import FleetAggregator
from repro.fleet.fingerprint import workload_of

__all__ = ["FleetIngestor", "ingest_store", "observe_stored_trace"]

log = logging.getLogger("repro.fleet")


def observe_stored_trace(
    aggregator: FleetAggregator,
    entry,
    *,
    save: bool = True,
    report: dict[str, Any] | None = None,
    meta: dict[str, Any] | None = None,
) -> Any | None:
    """Analyze one stored trace and observe it; None if already observed.

    ``entry`` is a :class:`repro.service.store.StoredTrace` (or anything
    with ``digest``/``path``/``name`` attributes).  A caller that already
    analyzed the trace passes its ``report`` (an ``analyze`` report dict)
    and the trace's ``meta``; the trace is then not read again.
    """
    if aggregator.has(entry.digest):
        return None
    if report is None:
        from repro.core.analyzer import analyze
        from repro.trace.reader import read_trace

        trace = read_trace(entry.path)
        report = analyze(trace).report.to_dict()
        meta = trace.meta
    return aggregator.observe(
        report,
        digest=entry.digest,
        workload=workload_of(meta, entry.name),
        save=save,
    )


def ingest_store(
    aggregator: FleetAggregator, store, *, metrics=None
) -> dict[str, int]:
    """Catch the aggregator up with every trace in a store (incremental)."""
    observed = skipped = errors = 0
    for entry in store.list():
        try:
            t0 = time.perf_counter()
            obs = observe_stored_trace(aggregator, entry, save=False)
        except ReproError as exc:
            errors += 1
            log.warning("fleet ingest failed for %s: %s", entry.digest, exc)
            if metrics is not None:
                metrics.count_fleet(errors=1)
            continue
        if obs is None:
            skipped += 1
            if metrics is not None:
                metrics.count_fleet(duplicates=1)
        else:
            observed += 1
            if metrics is not None:
                metrics.count_fleet(observed=1, seconds=time.perf_counter() - t0)
    if observed:
        aggregator.save()
    return {"observed": observed, "skipped": skipped, "errors": errors}


class FleetIngestor:
    """Single background worker turning store writes into observations."""

    def __init__(self, aggregator: FleetAggregator, metrics=None):
        self.aggregator = aggregator
        self.metrics = metrics
        self._queue: queue.Queue = queue.Queue()
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="fleet-ingest", daemon=True
        )
        self._thread.start()

    def enqueue(
        self,
        entry,
        report: dict[str, Any] | None = None,
        meta: dict[str, Any] | None = None,
    ) -> None:
        """Schedule one stored trace for aggregation (idempotent by digest).

        ``report``/``meta`` as for :func:`observe_stored_trace`.
        """
        if not self._closed:
            self._queue.put((entry, report, meta))

    def flush(self, timeout: float = 30.0) -> bool:
        """Wait until every enqueued trace has been processed."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self._queue.unfinished_tasks == 0:
                return True
            time.sleep(0.01)
        return self._queue.unfinished_tasks == 0

    def close(self, timeout: float = 10.0) -> None:
        if self._closed:
            return
        self._closed = True
        self._queue.put(None)
        self._thread.join(timeout=timeout)

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is None:
                    return
                entry, report, meta = item
                t0 = time.perf_counter()
                obs = observe_stored_trace(
                    self.aggregator, entry, report=report, meta=meta
                )
                if self.metrics is not None:
                    if obs is None:
                        self.metrics.count_fleet(duplicates=1)
                    else:
                        self.metrics.count_fleet(
                            observed=1, seconds=time.perf_counter() - t0
                        )
            except Exception as exc:  # noqa: BLE001 — keep the worker alive
                log.warning("fleet ingest error: %s", exc)
                if self.metrics is not None:
                    self.metrics.count_fleet(errors=1)
            finally:
                self._queue.task_done()
