"""End-to-end benchmark of the critical lock analyzer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cli-analyze --seed 1 --seconds 20 --trace 0

``--trace 0`` times the program from outside with default flags and prints
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs the traced
in-process replay and prints the per-layer metrics.  Every output is
checked; the last stdout line is the JSON result, and the exit code is
non-zero when any check failed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import traceback

import cli_analyze
import service_jobs
import stream_live
from common import Run
from program import ROOT, SRC, program_present
from spans import Recorder

WORKLOADS = {
    "cli-analyze": cli_analyze,
    "service-jobs": service_jobs,
    "stream-live": stream_live,
}


def span_name(metric: str) -> str:
    """``trace.validate_s`` -> ``trace.validate``; ``service.run_s.analyze``
    -> ``service.run.analyze``."""
    if "_s." in metric:
        return metric.replace("_s.", ".", 1)
    return metric.removesuffix("_s")


def layer_metrics(run: Run, spec: list[dict]) -> tuple[dict, list[str]]:
    """Every per-layer metric: a counter the workload set, else the mean
    self time per call of the matching span, else 0 (layer not exercised)."""
    selfs = run.recorder.by_name()
    out, lines = {}, []
    for m in spec:
        name = m["name"]
        if name in run.counters:
            value, note = float(run.counters[name]), ""
        elif span_name(name) in selfs:
            calls = selfs[span_name(name)]
            value, note = statistics.fmean(calls), f"mean self time of {len(calls)} calls"
        else:
            value, note = 0.0, "not exercised by this workload"
        out[name] = {"value": value, "unit": m["unit"]}
        lines.append(f"  {name:<34} {value:>12.6g} {m['unit']:<6} {note}")
    return out, lines


def machine() -> str:
    import numpy

    return (f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not program_present() or not spec_path.is_file():
        print(f"error: no program under {SRC} (run from the root of a checkout)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated run still stops the service it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # The service is stopped with SIGINT.  A shell starts background jobs
    # with SIGINT ignored, and children inherit that; handling it here
    # gives them the default back.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    base = ROOT / ".perfbench"
    workdir = base / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    # Temporary files of the benchmark and of the program stay in the checkout.
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    run = Run(args.seed, args.seconds, workdir, Recorder(enabled=args.trace == 1))
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s window, "
          f"trace {args.trace}; {machine()}", flush=True)
    module = WORKLOADS[args.workload]
    try:
        if run.traced:
            module.trace_layers(run)
        else:
            module.measure(run)
    except Exception:
        traceback.print_exc()
        print("error: the run did not complete; no result", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    run.detail("failed_frac", run.failed / max(run.attempted, 1),
               f"({run.failed} of {run.attempted} operations)")
    for name, value, unit in run.details:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<34} {shown:>12} {unit}")
    if run.traced:
        metrics, lines = layer_metrics(run, spec["per_layer"])
        print("per-layer:")
        print("\n".join(lines))
        spans_path = base / f"spans-{args.workload}-seed{args.seed}.jsonl"
        run.recorder.dump(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = {m["name"]: {"value": run.e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        print("end-to-end:")
        for name, m in metrics.items():
            print(f"  {name:<34} {m['value']:>12.6g} {m['unit']}")
    for problem in run.problems:
        print(f"FAILED: {problem}")
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
