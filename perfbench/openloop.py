"""Load generation over :class:`repro.service.client.ServiceClient`.

:class:`OpenLoop` sends request ``i`` at its due time ``t0 + i / rate``
whether or not earlier requests have come back — independent users
arriving on a fixed schedule.  It has at most ``connections``
keep-alive connections (one thread each), so when every connection is
busy the next request goes out late; its latency is still timed from
its *due* time, which charges a stall to every request queued behind
it.  How late the sends ran (``lag``) is reported, and a phase whose
lateness keeps growing is flagged: its backlog grew, so the latencies
it measured are not steady state.

:func:`closed_loop` keeps ``connections`` requests in flight back to
back for a fixed window — callers that each wait for their reply —
which is where goodput (verified replies within a latency limit, per
second) is measured.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ServiceError
from repro.service.client import ServiceClient


@dataclass
class Sample:
    index: int
    due: float  # perf_counter seconds; equals ``sent`` in a closed loop
    sent: float
    done: float
    status: int  # HTTP status, or 0 when the exchange raised
    body: Any
    error: str = ""
    request_id: str = ""
    span_id: str = ""
    wall_sent: float = 0.0  # epoch seconds, for joining server spans

    @property
    def latency(self) -> float:
        """From due time to reply."""
        return self.done - self.due

    @property
    def service_time(self) -> float:
        """From send to reply (what the client itself waited)."""
        return self.done - self.sent

    @property
    def lag(self) -> float:
        return self.sent - self.due


#: Builds the ``X-Repro-Trace-Id`` header for a request, or ``None``
#: for untraced sends; returns ``(header, request_id, span_id)``.
HeaderFactory = Callable[[], Optional[tuple]]


def _send(
    client: ServiceClient,
    index: int,
    due: float,
    payload: Dict[str, Any],
    headers: Optional[HeaderFactory],
) -> Sample:
    header = headers() if headers is not None else None
    wall = time.time()
    sent = time.perf_counter()
    try:
        reply = client.color(payload, trace_header=header[0] if header else None)
        status, body, error = reply.status, reply.body, ""
    except ServiceError as exc:
        status, body, error = 0, None, f"{type(exc).__name__}: {exc}"
    done = time.perf_counter()
    return Sample(
        index=index,
        due=due,
        sent=sent,
        done=done,
        status=status,
        body=body,
        error=error,
        request_id=header[1] if header else "",
        span_id=header[2] if header else "",
        wall_sent=wall,
    )


def due_times(t0: float, rate: float, count: int) -> List[float]:
    """The fixed send schedule: request ``i`` is due at ``t0 + i/rate``."""
    return [t0 + i / rate for i in range(count)]


class OpenLoop:
    """Fixed-rate sender over at most ``connections`` connections."""

    def __init__(
        self,
        port: int,
        requests: Sequence[Dict[str, Any]],
        rate: float,
        *,
        connections: int,
        headers: Optional[HeaderFactory] = None,
        timeout: float = 30.0,
    ):
        self.port = port
        self.requests = requests
        self.rate = rate
        self.connections = connections
        self.headers = headers
        self.timeout = timeout
        self._next = 0
        self._lock = threading.Lock()

    def _claim(self) -> Optional[int]:
        with self._lock:
            index = self._next
            if index >= len(self.requests):
                return None
            self._next += 1
            return index

    def run(self) -> List[Sample]:
        samples: List[Sample] = []
        t0 = time.perf_counter() + 0.05
        due = due_times(t0, self.rate, len(self.requests))

        def worker() -> None:
            with ServiceClient(port=self.port, timeout=self.timeout) as client:
                while True:
                    index = self._claim()
                    if index is None:
                        return
                    wait = due[index] - time.perf_counter()
                    if wait > 0:
                        time.sleep(wait)
                    sample = _send(
                        client, index, due[index], self.requests[index],
                        self.headers,
                    )
                    samples.append(sample)  # list.append is atomic

        threads = [
            threading.Thread(target=worker, name=f"openloop-{k}", daemon=True)
            for k in range(self.connections)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        samples.sort(key=lambda s: s.index)
        return samples


def closed_loop(
    port: int,
    request_for: Callable[[int], Dict[str, Any]],
    seconds: float,
    *,
    connections: int,
    timeout: float = 30.0,
) -> tuple:
    """Back-to-back sends on ``connections`` connections for ``seconds``.

    Returns ``(samples, start)``: every exchange started inside the
    window, and the window's start on the ``perf_counter`` clock.  The
    last in-flight replies are awaited; goodput counts only replies
    that completed inside the window.
    """
    samples: List[Sample] = []
    lock = threading.Lock()
    counter = [0]
    start = time.perf_counter()
    stop = start + seconds

    def worker() -> None:
        with ServiceClient(port=port, timeout=timeout) as client:
            while time.perf_counter() < stop:
                with lock:
                    index = counter[0]
                    counter[0] += 1
                now = time.perf_counter()
                samples.append(_send(client, index, now, request_for(index), None))

    threads = [
        threading.Thread(target=worker, name=f"closedloop-{k}", daemon=True)
        for k in range(connections)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    samples.sort(key=lambda s: s.index)
    return samples, start
