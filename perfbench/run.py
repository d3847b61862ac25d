"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Workloads: ``serve-cold``, ``serve-hot``, ``campaign``, ``explore``
(``all`` runs each in turn, each in a fresh interpreter, so that no
workload's memory or imports count against another).  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` runs the workload twice —
untraced, then traced — and prints the per-layer metrics (layers a
workload does not exercise read 0).  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
``failed`` counts failed operations (errors, timeouts, tasks that did
not terminate, wrong answers) and ``correct`` is false when any output
was wrong; the exit status is 0 only when ``correct`` is true.  Spans
(the benchmark's own, merged with the program's) are written to
``.bench_build/perfbench/trace-<workload>-<seed>.json`` on traced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics, each defined over the workload's own unit of
#: work (a request, a campaign task, a query set).  Set-up and cost are
#: CPU time of the processes doing the work, divided by the host's
#: slowness over the run (:mod:`perfbench.gauge`): on a shared virtual
#: machine the host takes CPUs away (steal) for seconds at a time, and
#: other tenants slow the CPUs it leaves by a third or more.
END_TO_END = {
    "setup_s": "s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}

#: What the user waits for, in wall-clock time (untraced pass), with the
#: steal share of the same interval.  Printed on every run; not bounded.
WALL = {
    "wall.latency_p50_ms": "ms",
    "wall.latency_p95_ms": "ms",
    "wall.goodput_per_s": "1/s",
    "wall.steal_frac": "ratio",
    "wall.setup_s": "s",
}

#: Per-layer metrics, by the module whose work they count.
PER_LAYER = {
    **WALL,
    # CPU of the processes doing the work, per operation (untraced pass)
    "cpu.ms_per_op": "ms",
    "gauge.slowness": "ratio",
    # client / HTTP and service.server
    "http.transport_ms": "ms",
    "server.request_self_ms": "ms",
    # service.coalesce
    "coalesce.queue_wait_ms": "ms",
    "coalesce.batch_self_ms": "ms",
    "coalesce.occupancy_mean": "count",
    # service.cache
    "cache.hit_ratio": "ratio",
    "cache.evictions": "count",
    # pool
    "pool.task_self_ms": "ms",
    "pool.retries": "count",
    "pool.restarts": "count",
    # service.schema, campaign.registry, analysis.verify
    "schema.parse_us": "us",
    "inputs.build_ms": "ms",
    "seal.ms": "ms",
    "serialise.ms": "ms",
    # model.kernels / model.wide
    "engine.kernel_build_ms": "ms",
    "engine.run_ms": "ms",
    "engine.activations_per_s.fast": "1/s",
    "engine.activations_per_s.wide": "1/s",
    "engine.mix.fast": "ratio",
    "engine.mix.wide": "ratio",
    "engine.mix.batch": "ratio",
    # campaign
    "campaign.failed_tasks": "count",
    "campaign.idle_cutoff_probe": "count",
    "campaign.worker_busy_frac": "ratio",
    "campaign.dispatch_s": "s",
    "journal.append_ms": "ms",
    # lowerbounds.explorer
    "explorer.apply_calls": "count",
    "explorer.moves_calls": "count",
    "explorer.configs_seen": "count",
    "explorer.configs_per_s": "1/s",
    "explorer.useful_ratio": "ratio",
    "explorer.exhausted": "count",
    # load generator and ledger
    "gen.lag_ms": "ms",
    "gen.backlog_grew": "count",
    "latency.samples": "count",
    "latency.beyond_p95": "count",
    "ledger.client_ms": "ms",
    "ledger.unattributed_ms": "ms",
    "ledger.other_ms": "ms",
    "ledger.requests": "count",
    "ledger.followers": "count",
    "trace.overhead_frac": "ratio",
}

WORKLOADS = ("serve-cold", "serve-hot", "campaign", "explore")


def _paths_ok() -> bool:
    return (ROOT / "src" / "repro" / "__init__.py").is_file()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Run one workload in this interpreter, importing only its module:
    resident memory is the high-water mark of this process."""
    from repro.obs.trace import FlightRecorder, write_trace_artifact

    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    recorder = FlightRecorder(1 << 16)
    if name == "campaign":
        from perfbench import campaign

        result = campaign.run(seed, seconds, trace, recorder, out_dir)
    elif name == "explore":
        from perfbench import explore

        result = explore.run(seed, seconds, trace, recorder)
    else:
        from perfbench import serve

        result = serve.run(name, seed, seconds, trace, recorder)
    if trace:
        write_trace_artifact(
            out_dir / f"trace-{name}-{seed}.json",
            recorder.snapshot() + list(result.get("program_spans", [])),
        )
    return result


def _run_child(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter; echo its report and
    return its result line."""
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
    )
    lines = child.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"perfbench: workload {name} printed no result "
              f"(exit status {child.returncode})", file=sys.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def _line(result: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    table = PER_LAYER if trace else END_TO_END
    values = dict(result.get("per_layer" if trace else "end_to_end", {}))
    values.update({f"wall.{k}": v for k, v in result["wall"].items()})
    metrics = {
        metric: {"value": float(values.get(metric, 0.0)), "unit": unit}
        for metric, unit in table.items()
    }
    return {
        "correct": not result["wrong"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def _print_table(name: str, line: Dict[str, Any], result: Dict[str, Any]) -> None:
    print(f"== {name}")
    rows = {m: (e["value"], e["unit"]) for m, e in line["metrics"].items()}
    for key, value in result["wall"].items():
        rows.setdefault(f"wall.{key}", (value, WALL[f"wall.{key}"]))
    for metric, (value, unit) in rows.items():
        print(f"  {metric:34s} {value:>16.6g} {unit}")
    notes = result.get("notes", {})
    for key, value in notes.items():
        print(f"  ({key}: {value})")
    print(f"  correct={line['correct']} attempted={line['attempted']} "
          f"failed={line['failed']}")


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _paths_ok():
        print("perfbench: the program's sources (src/repro) are missing; "
              "run from a full checkout", file=sys.stderr)
        return 2
    # Every interpreter the benchmark starts (set-ups, the server, pool
    # workers, the gauge) hashes strings the same way: start-up costs
    # of a fresh interpreter take one of two values 40 % apart
    # depending on its random hash seed.
    os.environ["PYTHONHASHSEED"] = "0"
    # Import the benchmark as the ``perfbench`` package, never its
    # modules as top-level names from the script's own directory.
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        final = _line(result, bool(args.trace))
        _print_table(args.workload, final, result)
        for problem in result["wrong"][:20]:
            print(f"  WRONG: {problem}", file=sys.stderr)
        for problem in result.get("failures", [])[:20]:
            print(f"  FAILED: {problem}", file=sys.stderr)
        # After the workload: the probe imports numpy, which must not
        # count in the workload's resident memory.
        from perfbench.proc import environment

        print(f"environment: {json.dumps(environment(), sort_keys=True)}")
    else:
        lines = {name: _run_child(name, args) for name in WORKLOADS}
        final = {
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {
                f"{w}/{m}": entry
                for w, l in lines.items() for m, entry in l["metrics"].items()
            },
        }
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
