"""Workload ``cli-analyze``: ``repro analyze <file>``, one process at a time.

Two traces: *small* (OpenLDAP, 16 threads, ~13k events) and *large*
(Radiosity, 16 threads, ~198k events).  A round analyzes the small trace
``SMALL_PER_ROUND`` times, around one analysis of the large one; rounds
repeat while they fit in the window.  Every stdout must equal the in-process
``analyze(trace).render()``.
"""

from __future__ import annotations

import statistics
import time

from common import Run, Window
from inputs import generate, reference_analysis, sim_seed
from program import run_python
from stages import analysis_with_overhead

#: Set-up (interpreter start + ``repro --version``) is timed this many times.
SETUP_REPEATS = 5
#: Small-trace processes per round: they are short, so they need more
#: samples than the large one to give a steady median.  They are spread
#: before and after the large one, over the whole round.
SMALL_PER_ROUND = 3


def _inputs(run: Run):
    small = generate("ldap16", sim_seed(run.seed, 1), run.input_dir, "small")
    large = generate("rad16", sim_seed(run.seed, 2), run.input_dir, "large")
    for inp in (small, large):
        run.provenance(inp)
    return small, large


def _analyze_process(run: Run, inp, expected: str):
    fin = run_python(["-m", "repro", "analyze", str(inp.path)])
    ok = fin.returncode == 0 and fin.stdout == expected
    run.op(ok, f"repro analyze {inp.name}: exit {fin.returncode}, "
               f"stdout {'matches' if fin.stdout == expected else 'differs'}; "
               f"{fin.stderr.strip()[-200:]}")
    return fin


def _setup(run: Run) -> None:
    samples = []
    for _ in range(SETUP_REPEATS):
        fin = run_python(["-m", "repro", "--version"])
        run.op(fin.returncode == 0 and fin.stdout.startswith("critical-lock-analysis"),
               f"repro --version: exit {fin.returncode}")
        samples.append(fin.wall_s)
    run.setup(samples)


def measure(run: Run) -> None:
    small, large = _inputs(run)
    expected = {inp.name: reference_analysis(inp.path)["rendered"] + "\n"
                for inp in (small, large)}
    _setup(run)
    walls: dict[str, list[float]] = {"small": [], "large": []}
    rss, rounds = [], []
    window = Window(run.seconds)
    while window.fits(rounds):
        start = time.perf_counter()
        for inp in [small, large] + [small] * (SMALL_PER_ROUND - 1):
            fin = _analyze_process(run, inp, expected[inp.name])
            walls[inp.name].append(fin.wall_s)
            rss.append(fin.maxrss_mb)
        rounds.append(time.perf_counter() - start)
    large_s = run.timing("cli_large_s", "cli_large_tail_s", walls["large"])
    run.timing("cli_small_s", "cli_small_tail_s", walls["small"])
    run.e2e.update({
        "analysis_p50_s": large_s["p50"],
        "peak_rss_mb": max(rss),
    })
    run.detail("cli_peak_rss_mb", max(rss), "MB (largest analyze process)")


#: ``cli.import_s`` is the mean of this many import-only processes.
IMPORT_REPEATS = 3


def trace_layers(run: Run) -> None:
    """Per-stage breakdown of the same inputs, in-process, plus the import
    cost of a CLI process and one untraced CLI run to account against."""
    small, large = _inputs(run)
    rec = run.recorder
    imports = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        fin = run_python(["-c", "import repro.cli"])
        rec.add("cli.import", start, start + fin.wall_s)
        run.op(fin.returncode == 0, f"import repro.cli: exit {fin.returncode}")
        imports.append(fin.wall_s)
    traced_walls, untraced_walls = [], []
    for inp in (small, large):
        _, traced, untraced = analysis_with_overhead(run, inp.path, inp.name)
        traced_walls.append(traced)
        untraced_walls.append(untraced)
    large_traced = traced_walls[1]
    cli_large = _analyze_process(run, large, reference_analysis(large.path)["rendered"] + "\n")
    overhead = sum(traced_walls) / sum(untraced_walls) - 1.0
    accounted = (statistics.fmean(imports) + large_traced) / cli_large.wall_s
    run.counters["tracing.overhead_frac"] = overhead
    run.counters["cli.accounted_frac"] = accounted
    run.detail("cli_large_s", cli_large.wall_s, "s (one untraced process)")
    run.detail("cli.import_s + large stage spans", statistics.fmean(imports) + large_traced, "s")
    run.detail("cli.accounted_frac", accounted, "of cli_large_s")
    run.detail("tracing.overhead_frac", overhead, "traced/untraced in-process wall - 1")
