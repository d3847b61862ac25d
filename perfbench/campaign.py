"""The ``campaign`` workload: ``run_campaign`` on the warm worker pool.

What ``repro-color campaign`` does by default — ``PoolBackend`` with
``nproc`` workers, ``engine="auto"`` and a journal — on two grids each
round: ``C_65536`` under sync and Bernoulli schedules, which
``select_engine`` routes to the wide engine, and ``C_8192`` under
round-robin, an opaque schedule it routes to the scalar fast kernels.
Engine steps dominate; there is no HTTP, and pool IPC is a small share
of each task.

Every task must terminate with a proper coloring inside its palette.
A task that reports no termination is a failed operation; one whose
coloring is improper or outside its palette is a wrong answer.

Known defect, kept out of the measured grid and probed instead: the
engines stop a run after ``idle_limit`` (10 000) consecutive steps that
activate no working process, and round-robin on ``C_n`` leaves up to
``n - 1`` such steps between two activations of the last working
processes.  Above ``n = 10 000`` a round-robin run that would terminate
can be cut off and reported as not terminated (on ``C_65536`` about
one task in four).  Every workload must run without failed
operations, so round-robin stays at ``n = 8192``, where the gap is
always under the limit; traced runs run the known reproducer
(:data:`CUTOFF_PROBE`) and report whether it is still cut off.

The grids are run round after round (fresh seeds each round, one
journal per grid and round) on one warm pool until the measured time
is used up.
"""

from __future__ import annotations

import concurrent.futures
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from perfbench import proc
from perfbench.spans import SpanTree, timed
from perfbench.gauge import Gauge
from perfbench.stats import activation_rates, median, percentile

from repro.campaign import CampaignSpec, PoolBackend, run_campaign
from repro.campaign.registry import (
    resolve_algorithm,
    resolve_schedule,
    resolve_topology,
)
from repro.model.select import select_engine
from repro.obs.metrics import MetricsRegistry, collecting
from repro.obs.trace import FlightRecorder, tracing
from repro.pool import WorkerPool

#: ``fast6`` (Algorithm 1's pair coloring with Algorithm 3's identifier
#: reduction) is the wait-free fast algorithm.  ``fast5`` (Algorithm 3)
#: is not wait-free (docs/FINDINGS.md) and livelocks, rarely, even under
#: the synchronous schedule — e.g. ``C_4096``, random identifiers with
#: seed 54841810 — and every task here must terminate.
ALGORITHMS = ("fast6",)
#: ``(ns, schedules, seeds per round)`` of each grid of a round: the
#: wide grid and the fast grid take about the same worker time.
GRIDS = (
    ((65536,), (("sync", {}), ("bernoulli", {"p": 0.5})), 2),
    ((8192,), (("round-robin", {}),), 4),
)
#: fast6, C_16384, round-robin, random identifiers of this seed: cut
#: off by ``idle_limit`` at step 91 839 whatever ``max_time`` is.
CUTOFF_PROBE = ((16384,), (("round-robin", {}),), (1319032806,))
SETUP_REPEATS = 7
TASK_LIMIT_S = 5.0  # a task slower than this does not count as goodput
#: A trivial task per worker proves the pool spawned and warm.
_WARM_TASK = {
    "algorithm": "fast5", "topology": "cycle", "n": 16, "inputs": "random",
    "schedule": "sync", "schedule_params": [], "seed": 0, "max_time": 1000,
    "engine": "fast",
}


def _specs(seed: int, round_index: int) -> List[CampaignSpec]:
    rng = random.Random(f"perfbench/campaign/{seed}/{round_index}")
    return [
        CampaignSpec.build(ALGORITHMS, ns, ["random"], list(schedules),
                           rng.sample(range(1, 2**31), seeds))
        for ns, schedules, seeds in GRIDS
    ]


def _warm_pool(workers: int) -> WorkerPool:
    """A pool that has run one task on every worker."""
    pool = WorkerPool(workers)
    futures = [pool.submit_task(dict(_WARM_TASK)) for _ in range(workers)]
    for future in concurrent.futures.as_completed(futures):
        future.result()
    return pool


def _setup_time(workers: int) -> Tuple[float, float]:
    """Spawn a fresh interpreter that imports the campaign stack and
    warms a pool, as ``repro-color campaign`` does before its first
    task.  Returns the CPU seconds the interpreter and its workers spent
    until it reported ready, and the wall-clock seconds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(proc.ROOT / "src"), str(proc.ROOT)]))
    script = (
        "import sys\n"
        "import repro.campaign\n"
        "from perfbench.campaign import _warm_pool\n"
        f"pool = _warm_pool({workers})\n"
        "print('ready', flush=True)\n"
        "sys.stdin.readline()\n"
        "pool.shutdown()\n"
    )
    started = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", script], env=env,
                             cwd=str(proc.ROOT), stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, text=True)
    try:
        line = child.stdout.readline()
        took = time.perf_counter() - started
        cpu = proc.cpu_seconds([child.pid, *proc.child_pids(child.pid)])
        child.stdin.close()
        child.stdout.read()
    finally:
        child.wait()
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"campaign setup failed: {line!r}")
    return cpu, took


def engine_mix(specs: List[CampaignSpec]) -> Dict[str, str]:
    """``select_engine``'s choice for every task of the grids, by hash.
    Pool workers do not report their selections to the parent, so the
    mix is derived here from the same public rule."""
    return {
        task.task_hash: select_engine(
            resolve_algorithm(task.algorithm)(),
            resolve_topology(task.topology, task.n),
            resolve_schedule(task.schedule, seed=task.seed,
                             **dict(task.schedule_params)),
        )
        for spec in specs for task in spec.expand()
    }


def _check(record: Dict[str, Any]) -> Tuple[str, str]:
    """``(failure, wrong answer)`` of one task record, each empty when
    there is none."""
    where = f"task {record.get('hash')}"
    if record.get("status") != "ok":
        return f"{where} failed: {record.get('error')}", ""
    result = record.get("result") or {}
    for flag in ("proper", "palette_ok"):
        if not result.get(flag):
            return f"{where}: {flag} is false", f"{where}: {flag} is false"
    if not result.get("terminated"):
        return f"{where}: not terminated at step {result.get('final_time')}", ""
    return "", ""


def _campaign_once(seed: int, seconds: float, traced: bool,
                   recorder: FlightRecorder, out_dir: Path) -> Dict[str, Any]:
    workers = proc.nproc()
    setups = [_setup_time(workers) for _ in range(SETUP_REPEATS)]
    pool = _warm_pool(workers)
    backend = PoolBackend(workers=workers, pool=pool)
    registry = MetricsRegistry()
    program = FlightRecorder(1 << 17) if traced else None
    records: List[Dict[str, Any]] = []
    mix: Dict[str, str] = {}
    wall = 0.0
    round_costs: List[float] = []
    rounds = 0
    try:
        # One unmeasured round fills the workers' import and kernel caches.
        for spec in _specs(seed, -1):
            run_campaign(spec, backend=backend)
        worker_pids = proc.child_pids(os.getpid())
        steal = proc.StealMeter()
        while wall < seconds:
            specs = _specs(seed, rounds)
            if traced:
                mix.update(engine_mix(specs))
            cpu_started = time.process_time() + proc.cpu_seconds(worker_pids)
            done = 0
            for grid, spec in enumerate(specs):
                journal = out_dir / f"journal-{seed}-{int(traced)}-{rounds}-{grid}.jsonl"
                with timed(recorder, "run_campaign", round=rounds, grid=grid) as sp, \
                        collecting(registry):
                    if program is not None:
                        with tracing(program):
                            outcome = run_campaign(spec, backend=backend,
                                                   journal_path=journal)
                    else:
                        outcome = run_campaign(spec, backend=backend,
                                               journal_path=journal)
                wall += sp.duration
                journal.unlink()
                records.extend(outcome.records)
                done += len(outcome.records)
            cpu = time.process_time() + proc.cpu_seconds(worker_pids) - cpu_started
            round_costs.append(cpu / done)
            rounds += 1
        steal.stop()
        rss = proc.peak_rss_mb([os.getpid(), *proc.child_pids(os.getpid())])
        cutoffs = 0.0
        if traced:
            ns, schedules, seeds = CUTOFF_PROBE
            probe = run_campaign(
                CampaignSpec.build(ALGORITHMS, ns, ["random"], list(schedules), seeds),
                backend=backend,
            )
            cutoffs = float(sum(1 for r in probe.records
                                if not (r.get("result") or {}).get("terminated")))
    finally:
        pool.shutdown()
    checks = [_check(record) for record in records]
    good = [
        r for r, (failure, _) in zip(records, checks)
        if not failure and float(r.get("elapsed", 0.0)) <= TASK_LIMIT_S
    ]
    return {
        "setup_s": median([cpu_s for cpu_s, _ in setups]),
        "setup_wall_s": median([wall_s for _, wall_s in setups]),
        # Per round: CPU of the campaign process and its workers per
        # attempted task.
        "cpu_ms_per_op": median(round_costs) * 1e3,
        "steal": steal.share,
        "records": records,
        "elapsed": [float(r.get("elapsed", 0.0)) for r in records],
        "wall": wall,
        "rounds": rounds,
        "goodput": len(good) / wall,
        "rss": rss,
        "mix": mix,
        "cutoffs": cutoffs,
        "failures": [failure for failure, _ in checks if failure],
        "wrong": [wrong for _, wrong in checks if wrong],
        "metrics": registry.snapshot(),
        "spans": program.snapshot() if program is not None else [],
        "workers": workers,
    }


def _histogram_mean(snapshot: Dict[str, Any], name: str) -> float:
    samples = snapshot.get(name, {}).get("samples", [])
    count = sum(s["count"] for s in samples)
    return sum(s["sum"] for s in samples) / count if count else 0.0


def run(seed: int, seconds: float, trace: bool, recorder: FlightRecorder,
        out_dir: Path) -> Dict[str, Any]:
    with Gauge() as gauge:
        plain = _campaign_once(seed, seconds, False, recorder, out_dir)
    slowness = gauge.slowness()
    p50 = percentile(plain["elapsed"], 50)
    p95 = percentile(plain["elapsed"], 95)
    result: Dict[str, Any] = {
        "end_to_end": {
            "setup_s": plain["setup_s"] / slowness,
            "cpu_ms_per_op": plain["cpu_ms_per_op"] / slowness,
            "peak_rss_mb": plain["rss"],
        },
        "wall": {
            "latency_p50_ms": p50.value * 1e3,
            "latency_p95_ms": p95.value * 1e3,
            "goodput_per_s": plain["goodput"],
            "steal_frac": plain["steal"],
            "setup_s": plain["setup_wall_s"],
        },
        "notes": {
            "tasks": len(plain["records"]),
            "failed_tasks": len(plain["failures"]),
            "rounds": plain["rounds"],
            "samples": p95.count,
            "beyond_p95": p95.beyond,
            "slowness": slowness,
        },
    }
    runs = [plain]
    if trace:
        with Gauge() as traced_gauge:
            traced = _campaign_once(seed, seconds, True, recorder, out_dir)
        runs.append(traced)
        records = traced["records"]
        workers = traced["workers"]
        busy = sum(traced["elapsed"])
        tree = SpanTree(traced["spans"])
        tasks = tree.named("pool.task")
        activations = {
            r["hash"]: r["result"]["mean_activation"] * r["task"]["n"]
            for r in records if r.get("result")
        }
        engine_runs = []
        for execute in tree.named("campaign.execute"):
            spans = [d for d in tree.descendants(execute) if d.name == "engine_run"]
            done = activations.get(execute.attributes.get("task_hash"))
            if len(spans) == 1 and done is not None:
                engine_runs.append((spans[0].attributes.get("engine", ""), done,
                                    spans[0].duration))
        choices = list(traced["mix"].values())
        layers = {
            "campaign.worker_busy_frac": busy / (traced["wall"] * workers),
            "campaign.dispatch_s": (traced["wall"] * workers - busy) / len(records),
            "journal.append_ms": _histogram_mean(
                traced["metrics"], "campaign_journal_append_seconds") * 1e3,
            "pool.task_self_ms": median([tree.self_time(t) for t in tasks]) * 1e3
            if tasks else 0.0,
            "pool.retries": float(sum(max(0, r.get("attempts", 1) - 1) for r in records)),
            "pool.restarts": float(sum(r.get("timeouts", 0) + r.get("crashes", 0)
                                       for r in records)),
            "engine.run_ms": median([s.duration for s in tree.spans
                                     if s.name == "engine_run"]) * 1e3,
            "engine.kernel_build_ms": median(
                [s.duration for s in tree.spans if s.name == "engine_kernel_build"]
                or [0.0]) * 1e3,
            "cpu.ms_per_op": plain["cpu_ms_per_op"],
            "gauge.slowness": slowness,
            "trace.overhead_frac": (
                traced["cpu_ms_per_op"] / traced_gauge.slowness()
                / (plain["cpu_ms_per_op"] / slowness) - 1.0),
            "latency.samples": float(p95.count),
            "latency.beyond_p95": float(p95.beyond),
            "campaign.failed_tasks": float(len(traced["failures"])),
            "campaign.idle_cutoff_probe": traced["cutoffs"],
        }
        layers.update(activation_rates(engine_runs))
        for engine in ("fast", "wide", "batch"):
            layers[f"engine.mix.{engine}"] = choices.count(engine) / len(choices)
        result["per_layer"] = layers
        result["program_spans"] = traced["spans"]
    result["attempted"] = sum(len(r["records"]) for r in runs)
    result["failures"] = [f for r in runs for f in r["failures"]]
    result["failed"] = len(result["failures"])
    result["wrong"] = [w for r in runs for w in r["wrong"]]
    return result
