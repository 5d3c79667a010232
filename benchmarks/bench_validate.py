"""Trace validation cost against the analysis it guards.

Standalone script (CI runs it directly)::

    PYTHONPATH=src python benchmarks/bench_validate.py --quick
    PYTHONPATH=src python benchmarks/bench_validate.py --json BENCH_VALIDATE.json

``analyze`` validates every trace before analyzing it, so the
validator's cost is paid on every default run.  On a ~198k-event
Radiosity trace (16 threads, ``total_tasks=1920``, the shape of the
end-to-end benchmark's large CLI input) this records, in-process and
after a warm-up:

* ``validate_s`` — median wall time of ``trace_problems``;
* ``analyze_novalidate_s`` — median of ``analyze(validate=False)``;
* ``ratio`` — the first over the second (asserted ``<= --max-ratio``);
* the tracemalloc peak of each, in MB;
* ``stages_s`` — median and quartiles of each default pipeline stage
  (validate, wakers, timelines, walk, metrics) timed one after another,
  so a change's saving can be placed stage by stage;
* the mutant agreement count: seeded single-row mutants of the same
  trace (``repro.check.mutate``) on which the columnar validator must
  return exactly the per-event reference's problem list (asserted).

The two timings alternate run by run, so a drift in machine speed hits
both sides alike.  ``--quick`` uses an 8-thread ~21k-event trace.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc

import numpy as np

from repro.check.mutate import single_row_mutants
from repro.check.refvalidate import reference_trace_problems
from repro.core.analyzer import analyze
from repro.core.columnar import (
    build_timelines_columnar,
    compute_metrics_columnar,
    compute_thread_stats_columnar,
    resolve_wakers_columnar,
)
from repro.core.columnar.walk import compute_critical_path_columnar
from repro.trace.validate import trace_problems
from repro.workloads import get_workload

#: (threads, Radiosity params, timed runs per side) for the full and the
#: --quick trace.
SHAPES = {
    "full": (16, {"total_tasks": 1920}, 7),
    "quick": (8, {"total_tasks": 200}, 3),
}
SEED = 0  # simulator and mutant seed
MUTANTS = 8  # each costs one per-event reference validation
STAGES = ("validate", "wakers", "timelines", "walk", "metrics")


def _quartiles(xs: list[float]) -> dict:
    q1, med, q3 = np.percentile(xs, [25, 50, 75])
    return {"median": round(float(med), 4), "q1": round(float(q1), 4),
            "q3": round(float(q3), 4)}


def _stage_times(trace) -> list[float]:
    """One pass of the default ``analyze`` pipeline, timed per stage."""
    marks = [time.perf_counter()]
    trace_problems(trace)
    marks.append(time.perf_counter())
    cw = resolve_wakers_columnar(trace)
    marks.append(time.perf_counter())
    ct = build_timelines_columnar(trace, cw)
    marks.append(time.perf_counter())
    cp = compute_critical_path_columnar(trace, ct)
    marks.append(time.perf_counter())
    compute_metrics_columnar(trace, ct, cp)
    compute_thread_stats_columnar(ct, cp)
    marks.append(time.perf_counter())
    return np.diff(marks).tolist()


def _peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return round(tracemalloc.get_traced_memory()[1] / 1e6, 2)
    finally:
        tracemalloc.stop()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="~21k-event trace, fewer repeats (CI smoke)")
    ap.add_argument("--max-ratio", type=float, default=None,
                    help="fail if validate_s / analyze_novalidate_s exceeds this")
    ap.add_argument("--json", metavar="PATH", default=None,
                    help="also write the numbers as JSON")
    args = ap.parse_args(argv)

    shape = "quick" if args.quick else "full"
    threads, params, repeats = SHAPES[shape]

    trace = get_workload("radiosity")(**params).run(nthreads=threads, seed=SEED).trace
    print(f"radiosity {threads} threads {params}, seed {SEED}: {len(trace)} events")

    problems = trace_problems(trace)  # warm-up
    if problems:
        print(f"FAIL: the generated trace is invalid: {problems[:3]}", file=sys.stderr)
        return 1
    analyze(trace, validate=False)
    t_val, t_ana = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        trace_problems(trace)
        t_val.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        analyze(trace, validate=False)
        t_ana.append(time.perf_counter() - t0)
    validate_s = statistics.median(t_val)
    analyze_s = statistics.median(t_ana)
    ratio = validate_s / analyze_s
    peak_val = _peak_mb(lambda: trace_problems(trace))
    peak_ana = _peak_mb(lambda: analyze(trace, validate=False))
    print(f"validate_s {validate_s:.4f}  analyze_novalidate_s {analyze_s:.4f}  "
          f"ratio {ratio:.3f}  (median of {repeats})")
    print(f"tracemalloc peak: validate {peak_val} MB, analyze {peak_ana} MB")
    per_stage = list(zip(*(_stage_times(trace) for _ in range(repeats))))
    stages = {name: _quartiles(list(ts)) for name, ts in zip(STAGES, per_stage)}
    print("stages (median s): " + "  ".join(
        f"{name} {q['median']:.4f}" for name, q in stages.items()))

    agree = flagged = 0
    for m in single_row_mutants(trace, MUTANTS, seed=SEED):
        ref = reference_trace_problems(m.trace)
        flagged += bool(ref)
        if trace_problems(m.trace) == ref:
            agree += 1
        else:
            print(f"FAIL: validators disagree on mutant {m.label}", file=sys.stderr)
    print(f"mutants: {agree}/{MUTANTS} agree with the reference "
          f"({flagged} flagged invalid)")

    failed = agree != MUTANTS
    if args.max_ratio is not None and ratio > args.max_ratio:
        print(f"FAIL: validation/analysis ratio {ratio:.3f} above "
              f"--max-ratio {args.max_ratio}", file=sys.stderr)
        failed = True

    if args.json:
        doc = {
            "bench": "validate",
            "quick": args.quick,
            "workload": "radiosity",
            "threads": threads,
            "params": params,
            "seed": SEED,
            "events": len(trace),
            "repeats": repeats,
            "validate_s": round(validate_s, 4),
            "analyze_novalidate_s": round(analyze_s, 4),
            "ratio": round(ratio, 3),
            "validate_quartiles_s": _quartiles(t_val),
            "analyze_novalidate_quartiles_s": _quartiles(t_ana),
            "validate_peak_mb": peak_val,
            "analyze_novalidate_peak_mb": peak_ana,
            "stages_s": stages,
            "mutants": MUTANTS,
            "mutants_flagged": flagged,
            "mutants_agree": agree,
            "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                     "numpy": np.__version__},
        }
        with open(args.json, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(f"numbers written to {args.json}")
    if failed:
        return 1
    print("ok: columnar validator matches the reference on every mutant"
          + (f", ratio <= {args.max_ratio}" if args.max_ratio is not None else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
