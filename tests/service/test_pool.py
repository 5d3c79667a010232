"""Worker pool: process fan-out, failure isolation, crash recovery.

Process-pool tests share one module-scoped pool (spawn startup is not
free); the crash test gets its own pool so a respawn there can never
perturb the others.
"""

import os
import statistics
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.service.pool import WorkerPool


class Recorder:
    """Collects pool events and lets tests await a job's completion."""

    def __init__(self):
        self.events = []
        self._cond = threading.Condition()

    def __call__(self, event, job_id, payload):
        with self._cond:
            self.events.append((event, job_id, payload))
            self._cond.notify_all()

    def wait_for(self, job_id, timeout=60.0):
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                for event, jid, payload in self.events:
                    if jid == job_id and event in ("done", "error", "crashed"):
                        return event, payload
                remaining = deadline - time.monotonic()
                assert remaining > 0, f"timed out waiting for {job_id}: {self.events}"
                self._cond.wait(remaining)


@pytest.fixture(scope="module")
def shared():
    recorder = Recorder()
    pool = WorkerPool(workers=2, on_event=recorder)
    yield pool, recorder
    pool.close()


def test_job_runs_in_worker_process(shared):
    pool, recorder = shared
    pool.submit("proc", "selftest", [], {"echo": "x"})
    event, payload = recorder.wait_for("proc")
    assert event == "done"
    assert payload["pid"] != os.getpid()
    assert payload["echo"] == "x"


def test_job_error_is_isolated(shared):
    pool, recorder = shared
    pool.submit("boom", "selftest", [], {"fail": "kaput"})
    event, payload = recorder.wait_for("boom")
    assert event == "error"
    assert "kaput" in payload
    # The pool is still usable afterwards.
    pool.submit("after-error", "selftest", [], {})
    assert recorder.wait_for("after-error")[0] == "done"


def test_parallel_fanout(shared):
    pool, recorder = shared
    for i in range(6):
        pool.submit(f"fan{i}", "selftest", [], {"sleep": 0.05})
    results = [recorder.wait_for(f"fan{i}") for i in range(6)]
    assert all(event == "done" for event, _ in results)
    assert pool.pending == 0


def test_worker_crash_marks_job_failed_and_pool_survives():
    recorder = Recorder()
    with WorkerPool(workers=1, on_event=recorder) as pool:
        pool.submit("victim", "selftest", [], {"crash": True})
        event, payload = recorder.wait_for("victim")
        assert event == "crashed"
        assert "died" in payload
        # Supervisor replaced the dead worker; new jobs still complete.
        pool.submit("survivor", "selftest", [], {"echo": "alive"})
        event, payload = recorder.wait_for("survivor")
        assert event == "done"
        assert payload["echo"] == "alive"
        assert pool.restarts == 1


def test_collector_wakes_on_each_result():
    """The collector sleeps on the result pipe, not on a polling tick: 20
    back-to-back no-op jobs through one worker take well under the up to
    0.4 s that a 20 ms tick adds (one tick per result that finds the
    collector asleep)."""
    recorder = Recorder()
    with WorkerPool(workers=1, on_event=recorder) as pool:
        pool.submit("warm", "selftest", [], {})
        assert recorder.wait_for("warm")[0] == "done"
        t0 = time.perf_counter()
        for i in range(20):
            pool.submit(f"b2b{i}", "selftest", [], {})
            assert recorder.wait_for(f"b2b{i}")[0] == "done"
        assert time.perf_counter() - t0 < 0.2


def test_idle_collector_answers_a_job_at_once():
    """A job submitted to an idle pool is answered in about one pipe round
    trip.  Under a 20 ms polling tick it would wait out the rest of the
    tick, a median near 10 ms."""
    recorder = Recorder()
    with WorkerPool(workers=1, on_event=recorder) as pool:
        pool.submit("warm", "selftest", [], {})
        assert recorder.wait_for("warm")[0] == "done"
        latencies = []
        for i in range(20):
            time.sleep(0.025)  # let the collector go idle first
            t0 = time.perf_counter()
            pool.submit(f"idle{i}", "selftest", [], {})
            assert recorder.wait_for(f"idle{i}")[0] == "done"
            latencies.append(time.perf_counter() - t0)
        assert statistics.median(latencies) < 0.005, latencies


def test_collector_stops_with_its_last_worker():
    recorder = Recorder()
    pool = WorkerPool(workers=1, on_event=recorder, max_restarts=0)
    pool.submit("victim", "selftest", [], {"crash": True})
    assert recorder.wait_for("victim")[0] == "crashed"
    pool._collector.join(timeout=10)
    assert not pool._collector.is_alive()  # no worker left to wait for
    pool.close()


def test_inline_mode_runs_synchronously():
    recorder = Recorder()
    pool = WorkerPool(workers=0, on_event=recorder)
    assert pool.inline
    pool.submit("inline", "selftest", [], {"echo": "here"})
    # No waiting: inline submit executes before returning.
    event, payload = recorder.events[-1][0], recorder.events[-1][2]
    assert event == "done"
    assert payload["pid"] == os.getpid()
    pool.close()


def test_inline_mode_isolates_errors():
    recorder = Recorder()
    pool = WorkerPool(workers=0, on_event=recorder)
    pool.submit("bad", "selftest", [], {"fail": "nope"})
    assert recorder.events[-1][0] == "error"
    pool.close()


def test_submit_after_close_rejected():
    pool = WorkerPool(workers=0)
    pool.close()
    with pytest.raises(ServiceError, match="closed"):
        pool.submit("late", "selftest", [], {})


def test_negative_workers_rejected():
    with pytest.raises(ServiceError, match="workers"):
        WorkerPool(workers=-1)
