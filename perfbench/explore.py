"""The ``explore`` workload: a fixed set of explorer queries.

Exercises only ``repro.lowerbounds.explorer``; every other layer idles.
Two queries with known verdicts make up the set:

* **proof** — Algorithm 1 on ``C_5`` never outputs a monochromatic edge
  or a color outside its palette: an exhaustive breadth-first search
  that must end with ``exhausted=True`` and no witness;
* **falsification** — ``coloring-pure-greedy`` on ``C_5`` (the
  first-fit 3-color candidate of ``repro.lowerbounds.small_palette``)
  is not wait-free: the safety search comes up empty, then the
  livelock search must return a witness.  The witness is replayed
  through the explorer's transition function (its last configuration
  must repeat an earlier one) and through the execution engine (the
  run must not terminate).  Pure greedy never returns on a
  monochromatic edge — a process returns a color only when no
  neighbour's register shows it — so its defect is liveness only.

The identifiers come from the seed: random distinct values in the same
relative order as ``1..5``, rotated around the cycle.  The algorithms
only compare identifiers, so every seed explores an isomorphic
configuration graph — different inputs, the same amount of work.

Cost is the CPU time of one query set divided by the host's slowness,
gauged inline: every :data:`GAUGE_EVERY` transitions the explorer runs
one burst of the reference job (:class:`perfbench.gauge.InlineGauge`),
whose time is taken out of the query set's.
"""

from __future__ import annotations

import os
import random
import resource
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from perfbench import proc
from perfbench.gauge import InlineGauge
from perfbench.spans import timed
from perfbench.stats import median, percentile

from repro.core.coloring6 import SIX_PALETTE, SixColoring
from repro.lowerbounds.explorer import BoundedExplorer
from repro.lowerbounds.small_palette import (
    PureGreedyColoring,
    coloring_violation_predicate,
)
from repro.model.execution import run_execution
from repro.model.schedule import FiniteSchedule
from repro.model.topology import Cycle
from repro.obs.trace import FlightRecorder

N = 5
PROOF_DEPTH = 60
FALSIFY_DEPTH = 10
#: The safety search of the falsification stops here, a third of the
#: ~32 700 configurations pure greedy reaches within the depth bound;
#: the livelock witness turns up within a few dozen.
FALSIFY_CONFIGS = 10_000
#: A set-up takes 0.2 s of CPU and moves by a third from one to the
#: next on a shared host; the median of fifteen holds still.
SETUP_REPEATS = 15
SET_LIMIT_S = 60.0  # a query set slower than this does not count as goodput
#: Transitions between two gauge bursts: about 50 ms of explorer work
#: to 5 ms of gauge.
GAUGE_EVERY = 2048
#: Seconds of one query set on a 2-vCPU Xeon VM: a run repeats the set
#: ``round(seconds / SET_NOMINAL_S)`` times (at least 2), a count fixed
#: by ``--seconds`` alone.
SET_NOMINAL_S = 5.0
_IMPORTS = (
    "import repro.lowerbounds.explorer, repro.lowerbounds.small_palette, "
    "repro.core.coloring6, repro.model.execution"
)


class GaugedExplorer(BoundedExplorer):
    """Runs a gauge burst every :data:`GAUGE_EVERY` calls into the
    transition function."""

    def __init__(self, *args: Any, gauge: InlineGauge, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.gauge = gauge
        self.apply_calls = 0

    def apply(self, config, subset):
        self.apply_calls += 1
        if self.apply_calls % GAUGE_EVERY == 0:
            self.gauge.tick()
        return super().apply(config, subset)


class CountingExplorer(GaugedExplorer):
    """Also counts calls into ``moves`` (traced runs only)."""

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.moves_calls = 0

    def moves(self, config):
        self.moves_calls += 1
        return super().moves(config)


def identifiers(seed: int) -> List[int]:
    rng = random.Random(f"perfbench/explore/{seed}")
    values = sorted(rng.sample(range(1, 10**9), N))
    shift = rng.randrange(N)
    return values[shift:] + values[:shift]


def _six_predicate(topology):
    def predicate(config) -> Optional[str]:
        outputs = config.output_dict()
        for p, c in outputs.items():
            if c not in SIX_PALETTE:
                return f"{p} out of palette: {c}"
        for p, q in topology.edges():
            if p in outputs and q in outputs and outputs[p] == outputs[q]:
                return f"monochromatic edge ({p},{q})"
        return None

    return predicate


def _replays_livelock(explorer: BoundedExplorer, witness) -> str:
    """Empty string when ``witness`` is a genuine livelock prefix."""
    config = explorer.initial_config()
    seen = [config]
    for step in witness:
        if not step or any(config.outputs[p] is not None for p in step):
            return "witness activates a returned process or nobody"
        config = explorer.apply(config, step)
        seen.append(config)
    if seen[-1] not in seen[:-1]:
        return "witness does not return to an earlier configuration"
    result = run_execution(
        PureGreedyColoring(), explorer.topology, explorer.inputs,
        FiniteSchedule(list(witness)),
    )
    if result.all_terminated:
        return "engine replay of the witness terminated"
    return ""


def query_set(seed: int, recorder: FlightRecorder, gauge: InlineGauge,
              explorer_cls=GaugedExplorer) -> Dict[str, Any]:
    """Answer both queries; returns counts and any wrong verdicts."""
    topology = Cycle(N)
    ids = identifiers(seed)
    wrong: List[str] = []
    stats: Dict[str, Any] = {}
    with timed(recorder, "explore.set") as root:
        proof = explorer_cls(SixColoring(), topology, ids, gauge=gauge)
        with timed(recorder, "explore.proof", parent=root) as sp:
            outcome = proof.find_violation(_six_predicate(topology), max_depth=PROOF_DEPTH)
        stats["proof"] = (outcome.configs_seen, sp, proof)
        if outcome.found or not outcome.exhausted:
            wrong.append(f"proof: found={outcome.found} exhausted={outcome.exhausted}")
        stats["exhausted"] = outcome.exhausted
        greedy = explorer_cls(PureGreedyColoring(), topology, ids, gauge=gauge)
        with timed(recorder, "explore.falsify", parent=root) as sp:
            safety = greedy.find_violation(
                coloring_violation_predicate(topology, 4),
                max_depth=FALSIFY_DEPTH, max_configs=FALSIFY_CONFIGS,
            )
            live = greedy.find_livelock(
                max_depth=FALSIFY_DEPTH, max_configs=FALSIFY_CONFIGS,
            )
        stats["falsify"] = (safety.configs_seen + live.configs_seen, sp, greedy)
        if safety.found:
            wrong.append(f"falsify: unexpected safety witness ({safety.description})")
        if not live.found:
            wrong.append("falsify: no livelock witness")
        else:
            problem = _replays_livelock(greedy, live.witness)
            if problem:
                wrong.append(f"falsify: {problem}")
    stats["seconds"] = root.duration
    stats["wrong"] = wrong
    return stats


def _setup_time() -> Tuple[float, float]:
    """Spawn a fresh interpreter and import the explorer stack; returns
    its CPU seconds and the wall-clock seconds."""
    env = dict(os.environ, PYTHONPATH=str(proc.ROOT / "src"))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", _IMPORTS], env=env, check=True,
                   cwd=str(proc.ROOT))
    took = time.perf_counter() - started
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return cpu, took


def _explore_once(seed: int, seconds: float, recorder: FlightRecorder,
                  counting: bool) -> Dict[str, Any]:
    setups = [_setup_time() for _ in range(SETUP_REPEATS)]
    sets = []
    gauge = InlineGauge()
    cpu_started = time.process_time()
    steal = proc.StealMeter()
    for _ in range(max(2, round(seconds / SET_NOMINAL_S))):
        sets.append(query_set(seed, recorder, gauge,
                              CountingExplorer if counting else GaugedExplorer))
    work = time.process_time() - cpu_started - gauge.spent
    verified = sum(1 for s in sets if not s["wrong"])
    return {
        "setup_s": median([cpu for cpu, _ in setups]),
        "setup_wall_s": median([wall for _, wall in setups]),
        "cpu_ms_per_op": work * 1e3 / max(1, verified),
        "slowness": gauge.slowness(),
        "steal": steal.stop(),
        "sets": sets,
        "spent": sum(s["seconds"] for s in sets),
    }


def run(seed: int, seconds: float, trace: bool,
        recorder: FlightRecorder) -> Dict[str, Any]:
    plain = _explore_once(seed, seconds, recorder, counting=False)
    slowness = plain["slowness"]
    times = [s["seconds"] for s in plain["sets"]]
    good = [s for s in plain["sets"] if not s["wrong"] and s["seconds"] <= SET_LIMIT_S]
    p95 = percentile(times, 95)
    result: Dict[str, Any] = {
        "end_to_end": {
            "setup_s": plain["setup_s"] / slowness,
            "cpu_ms_per_op": plain["cpu_ms_per_op"] / slowness,
            "peak_rss_mb": proc.peak_rss_mb([os.getpid()]),
        },
        "wall": {
            "latency_p50_ms": median(times) * 1e3,
            "latency_p95_ms": p95.value * 1e3,
            "goodput_per_s": len(good) / plain["spent"],
            "steal_frac": plain["steal"],
            "setup_s": plain["setup_wall_s"],
        },
        "notes": {"query_sets": len(times), "samples": p95.count,
                  "slowness": slowness,
                  "raw_cpu_ms_per_set": plain["cpu_ms_per_op"]},
    }
    runs = [plain]
    if trace:
        counted = _explore_once(seed, seconds, recorder, counting=True)
        runs.append(counted)
        last = counted["sets"][-1]
        configs = sum(last[q][0] for q in ("proof", "falsify"))
        applies = sum(last[q][2].apply_calls for q in ("proof", "falsify"))
        moves = sum(last[q][2].moves_calls for q in ("proof", "falsify"))
        query_time = sum(last[q][1].duration for q in ("proof", "falsify"))
        ctimes = [s["seconds"] for s in counted["sets"]]
        result["per_layer"] = {
            "explorer.apply_calls": float(applies),
            "explorer.moves_calls": float(moves),
            "explorer.configs_seen": float(configs),
            "explorer.configs_per_s": configs / query_time,
            "explorer.useful_ratio": configs / applies,
            "explorer.exhausted": float(last["exhausted"]),
            "cpu.ms_per_op": plain["cpu_ms_per_op"],
            "gauge.slowness": slowness,
            "trace.overhead_frac": (
                counted["cpu_ms_per_op"] / counted["slowness"]
                / (plain["cpu_ms_per_op"] / slowness) - 1.0),
            "latency.samples": float(len(ctimes)),
            "latency.beyond_p95": float(percentile(ctimes, 95).beyond),
        }
    result["attempted"] = sum(2 * len(r["sets"]) for r in runs)
    result["wrong"] = [w for r in runs for s in r["sets"] for w in s["wrong"]]
    result["failed"] = len(result["wrong"])
    return result
