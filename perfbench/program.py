"""Launching the program under test: ``python -m repro`` from the checkout.

The program is a pure-Python package under ``src/``; nothing is built.
Every child process is waited for with ``os.wait4`` so that its peak
resident set size is known, and the service runs in its own process
group so that a forced stop also takes its worker processes down.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file() and (SRC / "repro" / "cli.py").is_file()


def child_env() -> dict[str, str]:
    env = dict(os.environ)  # TMPDIR points into the checkout (see run.py)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@dataclass
class Finished:
    wall_s: float
    returncode: int
    stdout: str
    stderr: str
    maxrss_mb: float


def _reap(proc: subprocess.Popen) -> tuple[int, float]:
    """Wait for ``proc``; returns its exit code and peak RSS in MB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def run_python(args: list[str], timeout: float = 170.0) -> Finished:
    """Run ``python <args>`` to completion and time it from launch to exit."""
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=subprocess.PIPE, stderr=err,
            env=child_env(), cwd=ROOT,
        )
        timer = _deadline(proc, timeout)
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            code, rss = _reap(proc)
        except BaseException:  # interrupted: take the child down with us
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        err.seek(0)
        return Finished(wall, code, out.decode("utf-8"), err.read().decode("utf-8", "replace"), rss)


def _deadline(proc: subprocess.Popen, timeout: float) -> threading.Timer:
    """Kill a child that outlives its timeout (a hung program fails the run)."""
    timer = threading.Timer(timeout, proc.kill)
    timer.daemon = True
    timer.start()
    return timer


class Server:
    """One ``repro serve`` subprocess with default flags and a fresh data dir."""

    def __init__(self, data_dir: Path, log_path: Path):
        self.data_dir = data_dir
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.url = ""
        self.setup_s = 0.0
        self.maxrss_mb = 0.0

    def start(self, timeout: float = 60.0) -> None:
        """Launch and wait until ``/healthz`` answers and a worker ran a job.

        ``setup_s`` is the time from launch until then.
        """
        from repro.errors import ServiceError
        from repro.service.client import ServiceClient

        self.data_dir.mkdir(parents=True)
        self._log = open(self.log_path, "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--data-dir", str(self.data_dir)],
            stdout=subprocess.PIPE, stderr=self._log, env=child_env(), cwd=ROOT,
            start_new_session=True,
        )
        timer = _deadline(self.proc, timeout)  # a service that never comes up
        try:
            line = self.proc.stdout.readline().decode("utf-8")
            if " on http://" not in line:
                self._log.flush()
                raise RuntimeError(f"service did not start: {line!r}\n"
                                   + self.log_path.read_text(errors="replace")[-2000:])
            self.url = line.split(" on ", 1)[1].split()[0]
            client = ServiceClient(self.url)
            while True:
                try:
                    client.health()
                    break
                except ServiceError:
                    if time.perf_counter() > start + timeout:
                        raise
                    time.sleep(0.005)
            client.wait(client.submit("selftest", [], {}), timeout=timeout, poll=0.005)
        finally:
            timer.cancel()
        self.setup_s = time.perf_counter() - start

    def stop(self) -> None:
        """Interrupt the service, wait for it, and record its peak RSS.

        Anything the service leaves running in its process group (a worker
        its pool did not stop) is killed.
        """
        if self.proc is None or self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        timer = _deadline(self.proc, 10.0)
        try:
            _, self.maxrss_mb = _reap(self.proc)
        finally:
            timer.cancel()
            _kill_group(self.proc.pid)
            self.proc.stdout.close()
            self._log.close()


def _group_alive(pgid: int) -> bool:
    """Is any process of group ``pgid`` still running (not a zombie)?"""
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, _ppid, pgrp = stat.read_text().rsplit(")", 1)[1].split()[:3]
        except (OSError, IndexError, ValueError):
            continue  # the process ended while we looked
        if int(pgrp) == pgid and state != "Z":
            return True
    return False


def _kill_group(pgid: int, timeout: float = 10.0) -> None:
    """SIGKILL what is left of a process group and wait until it is gone."""
    deadline = time.monotonic() + timeout
    while _group_alive(pgid):
        if time.monotonic() > deadline:
            raise RuntimeError(f"processes of group {pgid} survived SIGKILL")
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def start_servers(count: int, workdir: Path) -> tuple[list[float], Server]:
    """Start the service ``count`` times; keep the last one running.

    Returns every start's set-up time and the running server.
    """
    setups = []
    for i in range(count):
        server = Server(workdir / f"service-{i}", workdir / f"service-{i}.log")
        try:
            server.start()
        except BaseException:
            server.stop()
            raise
        setups.append(server.setup_s)
        if i < count - 1:
            server.stop()
    return setups, server
