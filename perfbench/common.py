"""State shared by one benchmark run: its settings, counts and results."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import Recorder, summarize


@dataclass
class Run:
    """One ``run.py`` invocation: settings in, outcome out.

    ``e2e`` holds the end-to-end metrics (``BENCHMARK.json``
    ``end_to_end``), ``counters`` the per-layer values that are not span
    times, and ``details`` every named figure printed for people.
    """

    seed: int
    seconds: float
    workdir: Path
    recorder: Recorder
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    e2e: dict[str, float] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    details: list[tuple[str, object, str]] = field(default_factory=list)

    @property
    def traced(self) -> bool:
        return self.recorder.enabled

    @property
    def input_dir(self) -> Path:
        path = self.workdir / "inputs"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def op(self, ok: bool, what: str) -> None:
        """Count one attempted operation; a failed or mismatched one is kept."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def provenance(self, inp) -> None:
        """Print the shape of a generated input."""
        shape = inp.describe()
        print(
            f"input {shape['file']}: {shape['events']} events, {shape['threads']} threads, "
            f"{shape['locks']} locks, digest {shape['digest'][:16]}",
            flush=True,
        )

    def detail(self, name: str, value, unit: str) -> None:
        self.details.append((name, value, unit))

    def timing(self, p50_name: str, tail_name: str | None, values: list[float],
               unit: str = "s") -> dict[str, float]:
        """Record the median and tail of a sample set as named details, with
        the sample count and the tail's percentile."""
        if not values:
            raise RuntimeError(f"no {p50_name} samples were measured")
        s = summarize(values)
        self.detail(p50_name, s["p50"], f"{unit} (median, n={s['n']})")
        if tail_name:
            self.detail(tail_name, s["tail"], f"{unit} (p{s['tail_pct']:.0f}, n={s['n']})")
        return s

    def setup(self, samples: list[float]) -> None:
        self.e2e["setup_s"] = statistics.median(samples)
        self.detail("setup_s", self.e2e["setup_s"], f"s (median of {len(samples)})")


class Window:
    """The measured window: ``seconds`` of wall time, counted from start.

    Work comes in units (a round of processes, a client iteration, one
    stream).  A unit starts only if, at the mean duration of the units so
    far, it ends inside the window; the first unit always runs.
    """

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.perf_counter()

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def fits(self, unit_times: list[float]) -> bool:
        if not unit_times:
            return True
        return self.elapsed + statistics.fmean(unit_times) <= self.seconds
