"""Process plumbing: the server subprocess, resident memory, environment.

The server is started exactly as a user would start it — the
``repro-color serve`` CLI (``python -m repro.cli serve``) in its own
process — so its event loop does not share an interpreter lock with
the load generator.
"""

from __future__ import annotations

import os
import platform
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )


def environment() -> Dict[str, object]:
    from repro.model.batch import load_numpy, numpy_accelerated

    numpy = load_numpy()
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__ if numpy is not None else None,
        "numpy_accelerated": numpy_accelerated(),
    }


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid``, from ``/proc``."""
    kids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name may hold spaces or parens: split after the
        # last ')'; the parent pid is the second field after it.
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == pid:
            kids.append(int(entry.name))
    return kids


_TICK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def cpu_seconds(pids: List[int]) -> float:
    """User plus system CPU time of ``pids`` (all threads), in seconds.

    On a virtual machine these clocks do not run while the host has
    taken the CPU away (steal time), so CPU cost per operation stays
    comparable between runs when wall-clock figures do not.
    """
    total = 0
    for pid in pids:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / _TICK


class StealMeter:
    """Share of all CPU time the host took away (``steal`` in
    ``/proc/stat``) between construction and :meth:`stop`."""

    def __init__(self) -> None:
        self._start = self._read()
        self.share = 0.0

    @staticmethod
    def _read() -> tuple:
        try:
            fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]
        except OSError:
            return (0, 0)
        values = [int(v) for v in fields]
        return (values[7] if len(values) > 7 else 0, sum(values))

    def stop(self) -> float:
        steal, total = self._read()
        elapsed = total - self._start[1]
        self.share = (steal - self._start[0]) / elapsed if elapsed > 0 else 0.0
        return self.share


def peak_rss_mb(pids: List[int]) -> float:
    """Sum of the peak resident set sizes (``VmHWM``) of ``pids``."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
        if match:
            total_kb += int(match.group(1))
    return total_kb / 1024.0


class Server:
    """One ``repro-color serve`` subprocess on an ephemeral port."""

    def __init__(self, *args: str):
        self.args = list(args)
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.stderr: List[str] = []
        self._reader: Optional[threading.Thread] = None

    def start(self, workers: int, timeout: float = 60.0) -> float:
        """Spawn and wait until ``/healthz`` reports ``workers`` pool
        workers; returns the spawn-to-ready time in seconds."""
        from repro.errors import ServiceError
        from repro.service.client import ServiceClient

        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--pool-workers", str(workers), *self.args],
            cwd=str(ROOT),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stderr.readline()
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(match.group(1))
        self.stderr.append(line)
        self._reader = threading.Thread(
            target=lambda: self.stderr.extend(self.proc.stderr), daemon=True
        )
        self._reader.start()
        deadline = started + timeout
        with ServiceClient(port=self.port, timeout=5.0) as client:
            while time.perf_counter() < deadline:
                try:
                    reply = client.healthz()
                except ServiceError:
                    reply = None
                if reply is not None and reply.ok and (
                    reply.body.get("pool", {}).get("workers") == workers
                ):
                    return time.perf_counter() - started
                time.sleep(0.005)
        self.stop()
        raise RuntimeError("server did not become ready")

    def pids(self) -> List[int]:
        """The server and its pool workers."""
        return [self.proc.pid, *child_pids(self.proc.pid)] if self.proc else []

    def stop(self, timeout: float = 30.0) -> Optional[int]:
        """SIGTERM (graceful drain), then SIGKILL if it hangs; waits for
        the process and returns its exit code."""
        if self.proc is None:
            return None
        workers = child_pids(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for pid in workers:
            # The server reaps its pool on a clean drain; a worker that
            # outlived it (a crashed server) is killed here.
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if self._reader is not None:
            self._reader.join(timeout=5.0)
        code = self.proc.returncode
        self.proc = None
        return code
