"""Host speed gauge: CPU cost normalised to a reference host speed.

On a shared host the CPU time of the same work moves by a third or
more between runs: other tenants load the same physical cores, caches
and memory bus, and clock frequencies follow them.  CPU clocks do not
stop for that, so CPU cost per operation inherits it.

While a workload runs, the gauge times a fixed reference job —
benchmark code only, so no change to the program moves it — in short
bursts and records each burst's thread CPU time.  The host's slowness
over the run is the mean burst time over the reference burst time, and
CPU figures divided by it are what they would have been on the
reference host.  A change to the program still moves them in full.

Where the work runs in other processes (server, pool workers) the
bursts run in a gauge process of their own (:class:`Gauge`), a few
times a second.  Where it runs in the benchmark's own thread (the
explorer), they run inline, between steps of the work itself
(:class:`InlineGauge`): a gauge on another CPU does not see what slows
a single thread's CPU.

Run directly (``python3 -m perfbench.gauge``) it is the gauge process:
it prints one burst time in seconds per line until it is killed.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent

#: Mean thread CPU seconds of one burst on the host the references were
#: taken on (2-vCPU Intel Xeon VM, Python 3.11.7), for each way of
#: running the gauge: normalised figures read as if measured there.
REFERENCE_BURST_S = 0.034
INLINE_REFERENCE_BURST_S = 0.0075
PAUSE_S = 0.18
_ROUNDS = 32_000
_INLINE_ROUNDS = 8_000


def _job(rounds: int) -> int:
    """The reference job: interpreter-bound Python in the idiom of the
    program — tuples hashed into dicts and sets, small calls."""
    counts = {}
    seen = set()
    state = (1, 2, 3, 4, 5)
    for i in range(rounds):
        state = state[1:] + ((state[0] * 31 + state[2] + i) % 1009,)
        counts[state[0]] = counts.get(state[0], 0) + 1
        seen.add(state)
    return len(seen) + max(counts.values())


def burst(rounds: int = _ROUNDS) -> float:
    """Thread CPU seconds of one run of the reference job.  The
    collector is off meanwhile: its passes would time the heap of the
    process, not the host."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.thread_time()
        _job(rounds)
        return time.thread_time() - started
    finally:
        if enabled:
            gc.enable()


def main() -> None:
    while True:
        took = burst()
        print(f"{took:.9f}", flush=True)
        time.sleep(PAUSE_S)


def _slowness(bursts: List[float], reference: float) -> float:
    if not bursts:
        raise RuntimeError("the host speed gauge took no burst")
    return sum(bursts) / len(bursts) / reference


class Gauge:
    """Runs the gauge process for the duration of a ``with`` block."""

    def __init__(self) -> None:
        self.bursts: List[float] = []
        self._proc: Optional[subprocess.Popen] = None
        self._reader: Optional[threading.Thread] = None

    def __enter__(self) -> "Gauge":
        env = dict(os.environ, PYTHONPATH=str(ROOT))
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.gauge"], cwd=str(ROOT), env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        return self

    def _read(self) -> None:
        for line in self._proc.stdout:
            self.bursts.append(float(line))

    def __exit__(self, *exc) -> None:
        self._proc.kill()
        self._proc.wait()
        self._reader.join(timeout=5.0)
        self._proc.stdout.close()

    def slowness(self) -> float:
        """Mean burst time over the reference's: 1.0 on the reference
        host, 2.0 on one half as fast."""
        return _slowness(self.bursts, REFERENCE_BURST_S)


class InlineGauge:
    """Bursts run by the caller, in the thread doing the work."""

    def __init__(self) -> None:
        self.bursts: List[float] = []

    def tick(self) -> None:
        self.bursts.append(burst(_INLINE_ROUNDS))

    @property
    def spent(self) -> float:
        """CPU seconds the bursts took, to take out of the work's."""
        return sum(self.bursts)

    def slowness(self) -> float:
        return _slowness(self.bursts, INLINE_REFERENCE_BURST_S)


if __name__ == "__main__":
    main()
