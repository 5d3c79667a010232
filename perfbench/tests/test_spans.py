"""Tests of the benchmark's own arithmetic: span self time, the tail rule
and the balanced median.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.
"""

import statistics
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import (  # noqa: E402
    TAIL_BEYOND,
    Recorder,
    balanced_median,
    self_time,
    summarize,
    tail,
)


class TestSelfTime:
    def test_no_children(self):
        assert self_time(1.0, 4.0, []) == 3.0

    def test_disjoint_children_are_subtracted(self):
        assert self_time(0.0, 10.0, [(1.0, 2.0), (5.0, 8.0)]) == pytest.approx(6.0)

    def test_overlapping_children_count_once(self):
        # Children measured elsewhere (server-side phases) may overlap.
        assert self_time(0.0, 10.0, [(1.0, 5.0), (3.0, 7.0)]) == pytest.approx(4.0)

    def test_nested_and_unsorted_children(self):
        assert self_time(0.0, 10.0, [(6.0, 9.0), (2.0, 4.0), (2.5, 3.0)]) == pytest.approx(5.0)

    def test_children_are_clipped_to_the_parent(self):
        assert self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]) == pytest.approx(2.0)

    def test_child_covering_the_parent_leaves_nothing(self):
        assert self_time(2.0, 6.0, [(1.0, 7.0)]) == 0.0


class TestRecorder:
    def test_nesting_sets_parent_and_request(self):
        rec = Recorder()
        with rec.span("job", "r1") as job:
            with rec.span("stage") as stage:
                pass
        assert rec.spans[stage].parent == job
        assert rec.spans[stage].request == "r1"
        assert rec.spans[job].parent is None

    def test_self_times_subtract_children(self):
        rec = Recorder()
        root = rec.add("root", 0.0, 10.0)
        rec.add("a", 1.0, 3.0, parent=root)
        rec.add("b", 4.0, 8.0, parent=root)
        selfs = rec.self_times()
        assert selfs[root] == pytest.approx(4.0)
        assert rec.by_name() == {"root": [pytest.approx(4.0)], "a": [2.0], "b": [4.0]}

    def test_threads_keep_separate_parent_stacks(self):
        rec = Recorder()
        parents = {}

        def work(name):
            with rec.span(name) as outer:
                with rec.span(f"{name}.inner") as inner:
                    parents[name] = (outer, rec.spans[inner].parent)

        threads = [threading.Thread(target=work, args=(f"t{i}",)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert all(outer == parent for outer, parent in parents.values())

    def test_disabled_recorder_records_nothing(self):
        rec = Recorder(enabled=False)
        with rec.span("x") as sid:
            assert sid is None
        assert rec.add("y", 0.0, 1.0) is None
        assert rec.spans == []

    def test_dump_writes_one_line_per_span(self, tmp_path):
        rec = Recorder()
        with rec.span("a"):
            with rec.span("b"):
                pass
        out = tmp_path / "spans.jsonl"
        rec.dump(out)
        assert len(out.read_text().splitlines()) == 2


class TestTail:
    def test_up_to_twice_the_beyond_count_the_median_is_used(self):
        values = [float(v) for v in range(2 * TAIL_BEYOND)]
        assert tail(values) == (statistics.median(values), 50.0)

    def test_exactly_ten_samples_lie_beyond_the_tail(self):
        values = [float(v) for v in range(100)]
        value, pct = tail(values)
        assert sum(1 for v in values if v > value) == TAIL_BEYOND
        assert pct == 90.0

    def test_smallest_sample_count_with_a_real_tail(self):
        values = [float(v) for v in range(2 * TAIL_BEYOND + 1)]
        value, pct = tail(values)
        assert value == 10.0
        assert pct == pytest.approx(100.0 * 11 / 21)

    def test_order_of_samples_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 3.0] * 10
        assert tail(values) == tail(sorted(values))

    def test_single_sample(self):
        assert tail([2.5]) == (2.5, 50.0)

    def test_summarize_reports_count_and_percentile(self):
        s = summarize([float(v) for v in range(40)])
        assert s["n"] == 40
        assert s["tail_pct"] == 75.0
        assert s["tail"] == 29.0
        assert s["p50"] == 19.5


class TestBalancedMedian:
    def test_kinds_weigh_equally_whatever_their_counts(self):
        fast, slow = [1.0, 1.1, 0.9], [3.0, 3.1, 2.9, 3.0, 3.2]
        assert balanced_median({"a": fast, "b": slow}) == pytest.approx(2.0)
        assert balanced_median({"a": fast * 3, "b": slow}) == pytest.approx(2.0)

    def test_one_kind_is_its_median(self):
        assert balanced_median({"a": [4.0, 1.0, 2.0]}) == 2.0
