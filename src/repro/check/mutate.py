"""Seeded single-row trace mutants for the validator invariants.

Each mutant changes exactly one record of a valid trace in one of four
ways — drop the row, re-type it, re-tid it, re-object it — the shapes a
lossy or buggy tracer produces.  ``validator-equiv`` runs both
validators on every mutant; ``malformed-rejected`` demands that every
mutant the reference flags is refused by the default ``analyze`` and by
the DAG what-if.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.events import NO_OBJECT, EventType
from repro.trace.trace import Trace

__all__ = ["MUTATIONS", "Mutant", "single_row_mutants"]

MUTATIONS = ("drop", "retype", "retid", "reobj")

_TYPES = np.array([int(e) for e in EventType], dtype=np.uint8)
_FIELDS = {"retype": "etype", "retid": "tid", "reobj": "obj"}


@dataclass(frozen=True)
class Mutant:
    """One mutated copy of a trace and what was done to it."""

    kind: str
    row: int
    trace: Trace

    @property
    def label(self) -> str:
        return f"{self.kind}@{self.row}"


def _other(rng: np.random.Generator, choices: np.ndarray, current: int) -> int:
    """A random element of ``choices`` different from ``current``."""
    pool = choices[choices != current]
    return int(pool[rng.integers(len(pool))])


def single_row_mutants(trace: Trace, count: int, seed: int = 0) -> list[Mutant]:
    """``count`` mutants of ``trace``, cycling through :data:`MUTATIONS`.

    Rows are drawn uniformly with ``np.random.default_rng(seed)``, so a
    (trace, count, seed) triple always yields the same mutants.  A
    re-tid picks another thread of the trace (a fresh id when there is
    only one); a re-object picks another known object or ``NO_OBJECT``.
    """
    n = len(trace.records)
    if n == 0:
        return []
    rng = np.random.default_rng(seed)
    tids = np.unique(trace.records["tid"])
    if len(tids) < 2:
        tids = np.append(tids, tids.max() + 1)
    objs = np.array(sorted(trace.objects) + [NO_OBJECT], dtype=np.int64)
    choices = {"retype": _TYPES, "retid": tids, "reobj": objs}
    out: list[Mutant] = []
    for k in range(count):
        kind = MUTATIONS[k % len(MUTATIONS)]
        row = int(rng.integers(n))
        if kind == "drop":
            records = np.delete(trace.records, row)
        else:
            field = _FIELDS[kind]
            records = trace.records.copy()
            records[field][row] = _other(rng, choices[kind], int(records[field][row]))
        mutant = Trace(
            records=records,
            objects=dict(trace.objects),
            threads=dict(trace.threads),
            meta=dict(trace.meta),
        )
        out.append(Mutant(kind, row, mutant))
    return out
