"""Benchmark inputs: simulator-generated traces, their provenance and the
in-process reference results that every program output is checked against.

Traces are generated during set-up, which is not timed.  The same
``--seed`` gives the same traces; each trace gets its own simulator seed
derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

#: name -> (workload, threads, constructor params).  Sizes are the ones the
#: benchmark's workloads are defined on; see README.md.
SHAPES = {
    # OpenLDAP: ~13k events, fine-grained locks, rwlocks and condvars.
    "ldap16": ("openldap", 16, {}),
    # Radiosity: task queues and barriers.  ~21k and ~198k events.
    "rad8": ("radiosity", 8, {"total_tasks": 200}),
    "rad16": ("radiosity", 16, {"total_tasks": 1920}),
}


@dataclass
class Input:
    name: str
    shape: str  # a SHAPES key
    path: Path
    trace: object  # repro.trace.Trace
    digest: str

    def describe(self) -> dict:
        return {
            "file": self.path.name,
            "events": len(self.trace),
            "threads": len(self.trace.threads),
            "locks": len(self.trace.locks),
            "digest": self.digest,
        }


def generate(shape: str, sim_seed: int, out_dir: Path, label: str) -> Input:
    """Simulate one ``SHAPES`` workload and write it as ``<label>.clt``."""
    from repro.trace.digest import trace_digest
    from repro.trace.writer import write_trace
    from repro.workloads import get_workload

    workload, threads, params = SHAPES[shape]
    trace = get_workload(workload)(**params).run(nthreads=threads, seed=sim_seed).trace
    path = write_trace(trace, out_dir / f"{label}.clt")
    return Input(label, shape, Path(path), trace, trace_digest(trace))


def sim_seed(seed: int, index: int) -> int:
    """Simulator seed of the ``index``-th trace of a run with ``seed``."""
    return seed * 1000 + index


def reference_analysis(path: Path) -> dict:
    """The in-process ``analyze`` job result, with the rendered report.

    Validation is skipped here: the simulator's traces are valid, and
    validation never changes a report, only whether one is produced.
    """
    from repro.service.jobs import execute

    return execute("analyze", [str(path)], {"render": True, "validate": False})


def without_render(result: dict) -> dict:
    return {k: v for k, v in result.items() if k != "rendered"}


def canonical(result: dict) -> str:
    """A result as the JSON the service would send, for exact comparison."""
    import json

    return json.dumps(result, sort_keys=True)
