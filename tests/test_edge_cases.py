"""Edge-case sweep: error paths and options not covered elsewhere."""

import pytest

from repro.cli import main
from repro.core.analyzer import analyze
from repro.errors import DeadlockError, ReproError, TraceValidationError
from repro.sim import Program
from repro.trace.builder import TraceBuilder
from repro.viz.timeline import render_timeline

from tests.conftest import make_micro_program


class TestErrorTypes:
    def test_hierarchy(self):
        from repro import errors

        for name in (
            "TraceError", "TraceFormatError", "TraceValidationError",
            "SimulationError", "DeadlockError", "SyncUsageError",
            "AnalysisError", "WakerResolutionError", "WorkloadError",
        ):
            assert issubclass(getattr(errors, name), ReproError)

    def test_validation_error_truncates_message(self):
        problems = [f"problem {i}" for i in range(20)]
        err = TraceValidationError(problems)
        assert "+15 more" in str(err)
        assert len(err.problems) == 20

    def test_deadlock_error_lists_threads(self):
        err = DeadlockError({3: "mutex A", 1: "barrier B"})
        assert "T1: barrier B" in str(err)
        assert "T3: mutex A" in str(err)


class TestTimelineOptions:
    def test_show_cp_false_has_no_uppercase_marks(self):
        trace = make_micro_program().run().trace
        chart = render_timeline(trace, width=40, show_cp=False)
        body = "\n".join(ln for ln in chart.splitlines() if "|" in ln)
        assert "A" not in body and "#" not in body
        assert "a" in body  # lock letters still rendered, lowercase

    def test_tiny_width(self):
        trace = make_micro_program().run().trace
        assert render_timeline(trace, width=2).count("|") >= 8

    def test_width_one_returns_placeholder(self):
        trace = make_micro_program().run().trace
        assert render_timeline(trace, width=1) == "(empty trace)"


class TestReportOptions:
    def test_render_unlimited(self):
        report = analyze(make_micro_program().run().trace).report
        assert "L1" in report.render(n=None)

    def test_top_locks_zero(self):
        report = analyze(make_micro_program().run().trace).report
        assert report.top_locks(0) == []


class TestCLIErrors:
    def test_whatif_unknown_lock(self, tmp_path, capsys):
        path = tmp_path / "m.clt"
        main(["run", "micro", "-t", "2", "-o", str(path)])
        capsys.readouterr()
        assert main(["whatif", str(path), "nope"]) == 1
        assert "no lock named" in capsys.readouterr().err

    def test_analyze_invalid_trace_fails_validation(self, tmp_path, capsys):
        from repro.trace import write_trace

        b = TraceBuilder()
        t = b.thread()
        t.start(at=0.0)  # no exit
        bad = b.build(validate=False)
        path = write_trace(bad, tmp_path / "bad.clt")
        assert main(["analyze", str(path)]) == 1
        assert "invalid trace" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["whatif", "{path}", "L1"], ["replay", "{path}"]]
    )
    def test_whatif_and_replay_validate_the_trace(self, tmp_path, capsys, argv):
        from repro.trace import write_trace

        b = TraceBuilder()
        t = b.thread()
        lock = b.mutex("L1")
        t.start(at=0.0)
        t.acquire(lock, at=1.0)  # never released
        t.exit(at=3.0)
        path = write_trace(b.build(validate=False), tmp_path / "bad.clt")
        assert main([a.format(path=path) for a in argv]) == 1
        assert "invalid trace" in capsys.readouterr().err

    def test_analyze_no_validate_succeeds(self, tmp_path, capsys):
        from repro.trace import write_trace

        b = TraceBuilder()
        t = b.thread()
        t.start(at=0.0)
        bad = b.build(validate=False)
        path = write_trace(bad, tmp_path / "bad.clt")
        assert main(["analyze", str(path), "--no-validate"]) == 0

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "fig99"]) == 1
        assert "unknown experiment" in capsys.readouterr().err


class TestSimulatorEdges:
    def test_zero_thread_program(self):
        result = Program().run()
        assert result.completion_time == 0.0
        assert len(result.trace) == 0

    def test_thousands_of_simultaneous_wakeups(self):
        prog = Program()
        bar = prog.barrier(200, "big")

        def body(env, i):
            yield env.barrier_wait(bar)
            yield env.compute(1.0)

        prog.spawn_workers(200, body)
        assert prog.run().completion_time == 1.0

    def test_long_handoff_chain_no_recursion(self):
        # 2000 sequential lock handoffs at distinct times must not hit
        # recursion limits (the engine is queue-driven, not recursive).
        prog = Program()
        lock = prog.mutex("L")

        def body(env, i):
            yield env.compute(i * 1e-6)
            yield env.acquire(lock)
            yield env.release(lock)

        prog.spawn_workers(2000, body)
        result = prog.run()
        analysis = analyze(result.trace)
        assert analysis.critical_path.coverage_error == pytest.approx(0.0, abs=1e-9)

    def test_handle_repr_and_sim_meta(self):
        prog = Program(name="x")
        h = prog.spawn(lambda env: (yield env.compute(1.0)), name="w")
        assert "w" in repr(h)
        result = prog.run()
        assert result.nthreads == 1
