"""Columnar engine vs the per-event reference pipeline, wall clock.

Standalone script (not a pytest bench — CI runs it directly)::

    PYTHONPATH=src python benchmarks/bench_columnar.py --quick
    PYTHONPATH=src python benchmarks/bench_columnar.py --min-columnar-speedup 5

Builds a multi-phase SyntheticLocks trace, then times
``analyze(trace, validate=False)`` (the columnar engine) against
``repro.check.refengine.reference_analyze`` (the per-event reference the
oracle checks it against) and checks both renders are byte-identical —
a perf harness that silently changed the answer would be worse than no
harness.  Validation is left out of both timings: it is the same for
either pipeline (``benchmarks/bench_validate.py`` times it).

``--min-columnar-speedup`` gates the columnar-vs-reference ratio; both
runs are sequential, so the gate does not depend on the CPU count.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.check.refengine import reference_analyze
from repro.core.analyzer import analyze
from repro.workloads import SyntheticLocks


def build_trace(quick: bool):
    if quick:
        params = dict(ops_per_thread=800, nlocks=6, barrier_every=100)
        nthreads = 6
    else:
        params = dict(ops_per_thread=9000, nlocks=8, barrier_every=250)
        nthreads = 8
    wl = SyntheticLocks(**params)
    return wl.run(nthreads=nthreads, seed=0).trace


def _time(fn, repeats: int) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small trace, machinery check only (CI smoke job)")
    ap.add_argument("--repeats", type=int, default=None,
                    help="timing repeats, best-of (default: 3, 1 with --quick)")
    ap.add_argument("--min-columnar-speedup", type=float, default=None,
                    metavar="X", help="fail unless the columnar engine beats "
                    "the reference pipeline by at least X times")
    ap.add_argument("--json", metavar="PATH", default=None,
                    help="also write the numbers as JSON (perf trajectory)")
    args = ap.parse_args(argv)
    repeats = args.repeats if args.repeats is not None else (1 if args.quick else 3)

    trace = build_trace(args.quick)
    print(f"trace: {len(trace)} events, {len(trace.threads)} threads")

    t_ref, ref = _time(lambda: reference_analyze(trace), repeats)
    t_col, col = _time(lambda: analyze(trace, validate=False), repeats)

    if col.report.render(None) != ref.report.render(None):
        print("FAIL: columnar report differs from the reference pipeline",
              file=sys.stderr)
        return 1
    col_speedup = t_ref / t_col if t_col > 0 else float("inf")
    print(f"reference pipeline {t_ref:8.3f}s")
    print(f"columnar engine    {t_col:8.3f}s   ({col_speedup:.2f}x over reference)")

    if args.json:
        with open(args.json, "w") as f:
            json.dump(
                {
                    "bench": "columnar",
                    "quick": args.quick,
                    "events": len(trace),
                    "threads": len(trace.threads),
                    "repeats": repeats,
                    "reference_s": round(t_ref, 4),
                    "columnar_s": round(t_col, 4),
                    "columnar_speedup": round(col_speedup, 3),
                    "identical_render": True,
                },
                f,
                indent=2,
            )
            f.write("\n")
        print(f"numbers written to {args.json}")

    if args.min_columnar_speedup is not None:
        if col_speedup < args.min_columnar_speedup:
            print(f"FAIL: columnar speedup {col_speedup:.2f}x < required "
                  f"{args.min_columnar_speedup:.2f}x", file=sys.stderr)
            return 1
    print("ok: columnar output is byte-identical to the reference")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
