"""The two serving workloads: ``serve-cold`` and ``serve-hot``.

Both drive ``repro-color serve --pool-workers <nproc>`` (the multi-core
setup ``docs/POOL.md`` recommends) in a subprocess with fast5 on
``C_1024`` under a Bernoulli schedule, the request shape whose cold
miss crosses every service stage.

* ``serve-cold`` sends only unique requests at about half the server's
  capacity: the cache only takes writes and evictions, and every request
  runs the engines in a pool worker.
* ``serve-hot`` sends at a higher rate; about nine in ten requests
  repeat a working set that fits in the cache (reads), the rest are
  unique (writes).  HTTP, schema, cache lookup, digest re-verification
  and serialisation dominate.

Each run has an open-loop phase at the workload's fixed rate (latency
from each request's due time) followed by a closed-loop phase at
``nproc`` connections (goodput: verified replies within the latency
limit, per second).  Every reply is checked, and a seeded sample is
recomputed in-process and compared bit for bit.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from perfbench import proc
from perfbench.gauge import Gauge
from perfbench.openloop import OpenLoop, Sample, closed_loop
from perfbench.spans import SpanTree, from_chrome, ledger, timed
from perfbench.stats import activation_rates, mean, median, percentile, trend_grew

from repro.obs.trace import FlightRecorder, SpanRecord, TraceContext
from repro.service.client import ServiceClient
from repro.service.schema import ColorRequest, ColorResponse


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    rate: float  # open-loop requests per second
    limit_ms: float  # goodput latency limit
    unique_share: float  # share of requests with a never-seen key
    working_set: int  # distinct repeated requests (0: none)


# Rates are fixed, measured on a 2-CPU box: closed-loop capacity on
# cold requests was about 65/s and on the hot mix about 290/s; each
# workload runs at about half of its capacity.
COLD = ServeWorkload("serve-cold", rate=32.0, limit_ms=100.0,
                     unique_share=1.0, working_set=0)
HOT = ServeWorkload("serve-hot", rate=150.0, limit_ms=50.0,
                    unique_share=0.1, working_set=128)
WORKLOADS = {w.name: w for w in (COLD, HOT)}

#: Small enough that both workloads evict within one run (a long-lived
#: server is always evicting), large enough that the hot working set
#: (128 keys, each re-read about once a second) never is.
CACHE_SIZE = 256
SETUP_REPEATS = 7
OPEN_SHARE = 0.6  # of the measured seconds; the rest is closed loop
SAMPLE_CHECKS = 6  # replies recomputed in-process per run
REQUEST_SHAPE = {
    "algorithm": "fast5",
    "n": 1024,
    "inputs": "random",
    "schedule": "bernoulli",
    "schedule_params": {"p": 0.5},
}

#: Span name → ledger stage.  ``coalesce.queue`` is synthesized by the
#: benchmark: the gap from a request's start to its batch's start.  A
#: coalesced follower's batch is its leader's (see :func:`_ledger`).
STAGES = {
    "client.color": "http.transport_ms",
    "request": "server.request_self_ms",
    "coalesce.queue": "coalesce.queue_wait_ms",
    "coalesce.batch": "coalesce.batch_self_ms",
    "pool.task": "pool.task_self_ms",
    "engine_kernel_build": "engine.kernel_build_ms",
    "engine_run": "engine.run_ms",
}


def _payload(seed: int) -> Dict[str, Any]:
    return {**REQUEST_SHAPE, "seed": seed}


class Traffic:
    """The seeded request streams of one run."""

    def __init__(self, workload: ServeWorkload, seed: int, open_count: int):
        rng = random.Random(f"perfbench/{workload.name}/{seed}")
        # One draw of distinct seeds serves every unique request.
        pool = iter(rng.sample(range(1, 2**31), 40_000))
        self.warm = [_payload(next(pool)) for _ in range(max(4, workload.working_set))]
        ws = self.warm[: workload.working_set]

        def stream(count: int) -> List[Dict[str, Any]]:
            # Exactly round(10 * unique_share) unique keys in every block
            # of ten, at seeded positions, so the read/write mix (and with
            # it the cost per request) does not drift from seed to seed.
            per_block = round(10 * workload.unique_share)
            out = []
            for start in range(0, count, 10):
                unique = set(rng.sample(range(10), per_block))
                for k in range(min(10, count - start)):
                    if k in unique or not ws:
                        out.append(_payload(next(pool)))
                    else:
                        out.append(ws[rng.randrange(len(ws))])
            return out

        self.open = stream(open_count)
        self.closed = stream(30_000)
        self.sample_indices = sorted(rng.sample(range(open_count), SAMPLE_CHECKS))


def _header_factory() -> Tuple[str, str, str]:
    ctx = TraceContext.new_root().child()
    return ctx.to_header(), ctx.trace_id, ctx.span_id


def _metrics_sum(text: str, name: str) -> float:
    """Sum of every sample of one Prometheus series family."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name) and not line.startswith("#"):
            head, _, value = line.rpartition(" ")
            if head == name or head.startswith(name + "{"):
                total += float(value)
    return total


class Checker:
    """Counts attempted and failed operations and wrong answers."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong: List[str] = []
        self._keys: Dict[int, str] = {}

    def key(self, payload: Dict[str, Any]) -> str:
        seed = payload["seed"]
        if seed not in self._keys:
            self._keys[seed] = ColorRequest.from_json_dict(payload).request_key
        return self._keys[seed]

    def reply_ok(self, payload: Dict[str, Any], sample: Sample) -> bool:
        """A 200 whose verdict is ok, whose seal verifies and which
        answers this request.  Anything else is a failed operation; a
        200 that fails a check is also a wrong answer."""
        self.attempted += 1
        if sample.status != 200:
            self.failed += 1
            return False
        body = sample.body
        problem = ""
        try:
            response = ColorResponse.from_dict(body)
            if not response.digest_ok:
                problem = "content digest mismatch"
            elif not response.verdict.get("ok"):
                problem = f"verdict not ok: {response.verdict}"
            elif response.request_key != self.key(payload):
                problem = "reply answers another request"
        except (KeyError, TypeError, ValueError) as exc:
            problem = f"malformed reply: {exc}"
        if problem:
            self.failed += 1
            self.wrong.append(f"seed {payload['seed']}: {problem}")
            return False
        return True


def _replay(recorder: FlightRecorder, sample: Sample, payload: Dict[str, Any],
            checker: Checker) -> Dict[str, float]:
    """Recompute one served request in-process through the public
    schema, registry, engine and sealing functions; compare the result
    with the served reply bit for bit.  Returns the stage timings."""
    from repro.campaign.registry import (
        resolve_inputs,
        resolve_schedule,
        resolve_topology,
    )
    from repro.service.coalesce import execute_requests

    times = {}
    with timed(recorder, "replay", trace_id=sample.request_id or None) as root:
        with timed(recorder, "schema.parse", parent=root) as sp:
            request = ColorRequest.from_json_dict(json.loads(json.dumps(payload)))
        times["schema.parse_us"] = sp
        with timed(recorder, "inputs.build", parent=root) as sp:
            resolve_topology(request.topology, request.n)
            resolve_inputs(request.inputs, request.n, request.seed)
            resolve_schedule(request.schedule, seed=request.seed,
                             **dict(request.schedule_params))
        times["inputs.build_ms"] = sp
        with timed(recorder, "engine.execute", parent=root):
            results, engine = execute_requests([request])
        with timed(recorder, "seal", parent=root) as sp:
            response = ColorResponse.from_execution(request, results[0], engine=engine)
        times["seal.ms"] = sp
        with timed(recorder, "serialise", parent=root) as sp:
            json.dumps(response.to_dict(), sort_keys=True)
        times["serialise.ms"] = sp
    served = ColorResponse.from_dict(sample.body).deterministic_dict()
    if response.deterministic_dict() != served:
        checker.failed += 1
        checker.wrong.append(f"seed {payload['seed']}: served reply differs "
                             "from the in-process execution")
    scale = {"schema.parse_us": 1e6}
    return {k: s.duration * scale.get(k, 1e3) for k, s in times.items()}


def _phase_stats(samples: List[Sample]) -> Dict[str, float]:
    lat = [s.latency for s in samples]
    p50, p95 = percentile(lat, 50), percentile(lat, 95)
    lags = [s.lag for s in samples]
    return {
        "p50": p50.value,
        "p95": p95.value,
        "count": p95.count,
        "beyond_p95": p95.beyond,
        "lag_p95": percentile(lags, 95).value,
    }


def _serve_once(workload: ServeWorkload, seed: int, seconds: float,
                traced: bool, recorder: FlightRecorder) -> Dict[str, Any]:
    """One full pass of the workload on a fresh server."""
    workers = proc.nproc()
    open_seconds = seconds * OPEN_SHARE
    traffic = Traffic(workload, seed, int(workload.rate * open_seconds))
    args = ["--cache-size", str(CACHE_SIZE)]
    if traced:
        args += ["--trace", "on", "--trace-buffer", "65536"]
    setups = []
    for k in range(SETUP_REPEATS):
        server = proc.Server(*args)
        wall = server.start(workers)
        setups.append((proc.cpu_seconds(server.pids()), wall))
        if k < SETUP_REPEATS - 1:
            server.stop()
    checker = Checker()
    try:
        # Warm-up: every worker builds its kernels; serve-hot also
        # loads its working set into the cache.
        warm = OpenLoop(server.port, traffic.warm, rate=1e6,
                        connections=workers).run()
        for payload, sample in zip(traffic.warm, warm):
            checker.reply_ok(payload, sample)
        with ServiceClient(port=server.port) as client:
            before = client.healthz().body["cache"]
        headers = _header_factory if traced else None
        pids = server.pids()
        cpu_before = proc.cpu_seconds(pids)
        steal = proc.StealMeter()
        opened = OpenLoop(server.port, traffic.open, workload.rate,
                          connections=workers, headers=headers).run()
        # Cost is taken over the open loop: a fixed number of requests at
        # a fixed rate, whatever the host's speed.
        cpu = proc.cpu_seconds(pids) - cpu_before
        steal.stop()
        closed, window_start = closed_loop(
            server.port, lambda i: traffic.closed[i],
            seconds - open_seconds, connections=workers,
        )
        with ServiceClient(port=server.port) as client:
            health = client.healthz().body
            metrics_text = client.metrics_text()
            server_spans = from_chrome(client.debug_trace()) if traced else []
        rss = proc.peak_rss_mb(server.pids())
    finally:
        exit_code = server.stop()
    if exit_code != 0:
        checker.wrong.append(f"server exited with status {exit_code}")

    ok_open = [checker.reply_ok(traffic.open[s.index], s) for s in opened]
    window_end = window_start + (seconds - open_seconds)
    good = 0
    for s in closed:
        if checker.reply_ok(traffic.closed[s.index], s):
            if s.done <= window_end and s.service_time * 1e3 <= workload.limit_ms:
                good += 1
    # Failed requests count as missing any latency limit: they stay in
    # the open-loop latency sample with an infinite latency.
    for s, ok in zip(opened, ok_open):
        if not ok:
            s.done = float("inf")
    replays = [
        _replay(recorder, opened[i], traffic.open[i], checker)
        for i in traffic.sample_indices
        if ok_open[i]
    ]
    cache = health["cache"]
    hits = cache["hits"] - before["hits"]
    misses = cache["misses"] - before["misses"]
    phase = _phase_stats(opened)
    return {
        "setup_s": median([cpu for cpu, _ in setups]),
        "setup_wall_s": median([wall for _, wall in setups]),
        "cpu_ms_per_op": cpu * 1e3 / max(1, sum(ok_open)),
        "steal": steal.share,
        "phase": phase,
        "goodput": good / (seconds - open_seconds),
        "rss": rss,
        "opened": opened,
        "server_spans": server_spans,
        "checker": checker,
        "replays": replays,
        "backlog_grew": trend_grew([s.lag for s in opened], 2.0 / workload.rate),
        "cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache_evictions": cache["evictions"] - before["evictions"],
        "occupancy": (
            _metrics_sum(metrics_text, "service_batch_occupancy_sum")
            / max(1.0, _metrics_sum(metrics_text, "service_batch_occupancy_count"))
        ),
        "retries": _metrics_sum(metrics_text, "pool_task_retries_total"),
        "restarts": _metrics_sum(metrics_text, "pool_worker_restarts_total"),
        "engines": [s.body.get("engine") for s in opened
                    if isinstance(s.body, dict) and not s.body.get("cached")],
    }


def _ledger(run: Dict[str, Any], recorder: FlightRecorder) -> Dict[str, float]:
    """The per-request ledger over the open-loop phase, averaged over
    the requests whose client latency lies in the middle fifth (40th to
    60th percentile), so that the stages account for the median.

    The coalescer records a batch (and the pool task and engine spans
    under it) only under its leader's request; each other member of the
    batch gets a ``coalesce.follower`` event naming the leader's batch.
    A follower waited on that batch exactly as the leader did, so the
    batch is linked into the follower's tree too and its stages are
    charged to both."""
    client_spans = []
    for s in run["opened"]:
        if not s.request_id or s.done == float("inf"):
            continue
        client_spans.append(SpanRecord(
            name="client.color", trace_id=s.request_id, span_id=s.span_id,
            parent_id=None, start=s.wall_sent, duration=s.service_time,
        ))
    tree = SpanTree(client_spans + list(run["server_spans"]))
    followers = set()
    for request in tree.named("request"):
        kids = tree.kids(request)
        batch = next((k for k in kids if k.name == "coalesce.batch"), None)
        if batch is None:
            event = next((k for k in kids if k.name == "coalesce.follower"), None)
            if event is None:
                continue
            batch = tree.by_id.get(event.attributes.get("leader_span_id"))
            if batch is None:
                continue
            tree.link(request, batch)
            followers.add(request.trace_id)
        # The gap between a request's start and its batch's start is
        # queue wait (admission queue and coalescing window).
        tree.link(request, SpanRecord(
            name="coalesce.queue", trace_id=request.trace_id,
            span_id=request.span_id + ".queue", parent_id=request.span_id,
            start=request.start,
            duration=max(0.0, batch.start - request.start),
        ))
    for span in client_spans:
        recorder.record(span)
    rows = sorted(
        ((root.duration, root.trace_id in followers, ledger(tree, root, STAGES))
         for root in client_spans),
        key=lambda row: row[0],
    )
    if not rows:
        return {}
    band = rows[int(len(rows) * 0.4): max(int(len(rows) * 0.6), int(len(rows) * 0.4) + 1)]
    out = {
        "ledger.client_ms": mean([total for total, _, _ in band]) * 1e3,
        "ledger.requests": float(len(band)),
        "ledger.followers": float(sum(1 for _, follower, _ in band if follower)),
    }
    names = {**{v: v for v in STAGES.values()},
             "unattributed": "ledger.unattributed_ms", "other": "ledger.other_ms"}
    for stage, name in names.items():
        out[name] = mean([row.get(stage, 0.0) for _, _, row in band]) * 1e3
    return out


def _engine_runs(run: Dict[str, Any]) -> List[tuple]:
    """``(engine, activations, seconds)`` per traced request that ran
    exactly one engine: its ``engine_run`` span joined to its reply."""
    by_request = {s.request_id: s for s in run["opened"] if s.request_id}
    tree = SpanTree(run["server_spans"])
    out = []
    for request in tree.named("request"):
        sample = by_request.get(request.trace_id)
        runs = [d for d in tree.descendants(request) if d.name == "engine_run"]
        if sample is None or not isinstance(sample.body, dict) or len(runs) != 1:
            continue
        out.append((runs[0].attributes.get("engine", ""),
                    sample.body["activations"]["total"], runs[0].duration))
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        recorder: FlightRecorder) -> Dict[str, Any]:
    workload = WORKLOADS[workload_name]
    with Gauge() as gauge:
        plain = _serve_once(workload, seed, seconds, traced=False, recorder=recorder)
    slowness = gauge.slowness()
    checkers = [plain["checker"]]
    phase = plain["phase"]
    result: Dict[str, Any] = {
        "end_to_end": {
            "setup_s": plain["setup_s"] / slowness,
            "cpu_ms_per_op": plain["cpu_ms_per_op"] / slowness,
            "peak_rss_mb": plain["rss"],
        },
        "wall": {
            "latency_p50_ms": phase["p50"] * 1e3,
            "latency_p95_ms": phase["p95"] * 1e3,
            "goodput_per_s": plain["goodput"],
            "steal_frac": plain["steal"],
            "setup_s": plain["setup_wall_s"],
        },
        "notes": {
            "rate_per_s": workload.rate,
            "limit_ms": workload.limit_ms,
            "samples": phase["count"],
            "beyond_p95": phase["beyond_p95"],
            "backlog_grew": plain["backlog_grew"],
            "slowness": slowness,
        },
    }
    if trace:
        with Gauge() as traced_gauge:
            traced = _serve_once(workload, seed, seconds, traced=True, recorder=recorder)
        checkers.append(traced["checker"])
        tphase = traced["phase"]
        engines = traced["engines"]
        layers = {
            "coalesce.occupancy_mean": traced["occupancy"],
            "cache.hit_ratio": traced["cache_hit_ratio"],
            "cache.evictions": float(traced["cache_evictions"]),
            "pool.retries": traced["retries"],
            "pool.restarts": traced["restarts"],
            "gen.lag_ms": tphase["lag_p95"] * 1e3,
            "gen.backlog_grew": float(traced["backlog_grew"]),
            "latency.samples": float(tphase["count"]),
            "latency.beyond_p95": float(tphase["beyond_p95"]),
            "cpu.ms_per_op": plain["cpu_ms_per_op"],
            "gauge.slowness": slowness,
            "trace.overhead_frac": (
                traced["cpu_ms_per_op"] / traced_gauge.slowness()
                / (plain["cpu_ms_per_op"] / slowness) - 1.0),
        }
        for engine in ("fast", "wide", "batch"):
            layers[f"engine.mix.{engine}"] = (
                engines.count(engine) / len(engines) if engines else 0.0
            )
        layers.update(_ledger(traced, recorder))
        layers.update(activation_rates(_engine_runs(traced)))
        replays = traced["replays"]
        for key in ("schema.parse_us", "inputs.build_ms", "seal.ms", "serialise.ms"):
            layers[key] = median([r[key] for r in replays]) if replays else 0.0
        result["per_layer"] = layers
        result["program_spans"] = traced["server_spans"]
    result["attempted"] = sum(c.attempted for c in checkers)
    result["failed"] = sum(c.failed for c in checkers)
    result["wrong"] = [w for c in checkers for w in c.wrong]
    return result
