"""The asynchronous execution engine (paper Sections 2.1–2.2).

One *asynchronous round* of a process is write-then-read-then-update;
when several processes are activated at the same time ``t``, the system
behaves as if all of them first wrote, then all read, then all updated
(Equation (1)).  :class:`Executor` implements exactly this semantics:

1. restrict ``σ(t)`` to *working* processes — those that have neither
   returned nor been dropped by the schedule (``σ̄`` in the paper);
2. publish the register value of every activated process (batch write);
3. let every activated process read the registers of its topology
   neighbors (local immediate snapshot) and run its private update,
   possibly returning an output.

An execution is deterministic given (algorithm, topology, inputs,
schedule); the engine never consults a clock or RNG.  Crashes need no
engine support: a crashed process is simply one the schedule stops
activating (Section 2.2), though :mod:`repro.model.faults` offers a
convenient wrapper.

The *round complexity* of a terminating execution is the maximum number
of working activations over processes, matching the paper's
``max { i | ∃p : p ∈ σ̄(t_p^{(i)}) }``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from time import time as wall_clock
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import ExecutionError, TimeExhaustedError
from repro.model.registers import RegisterFile
from repro.model.schedule import Schedule
from repro.model.topology import Topology
from repro.model.trace import StepEvent, Trace
from repro.obs.metrics import active_registry, record_execution
from repro.obs.spans import Stopwatch
from repro.obs.trace import current_context, is_recording, record_timed
from repro.types import ProcessId

__all__ = [
    "Executor",
    "ExecutionResult",
    "ENGINES",
    "DEFAULT_IDLE_LIMIT",
    "effective_idle_limit",
    "ensure_engine",
    "run_execution",
    "time_exhausted_error",
]

#: Default safety cap on simulated time, so a buggy non-terminating
#: algorithm under an infinite schedule fails fast instead of hanging.
DEFAULT_MAX_TIME = 1_000_000

#: Default idle cut-off: the number of consecutive steps activating no
#: working process after which a run is abandoned (see
#: :func:`effective_idle_limit`).
DEFAULT_IDLE_LIMIT = 10_000


def effective_idle_limit(idle_limit: int, n: int) -> int:
    """The idle cut-off every engine applies on a system of ``n``.

    A fair schedule may legitimately go ``n − 1`` consecutive steps
    without activating a working process — round-robin does, with one
    process left — so the cut-off is never below ``n``: a run that
    would terminate is not abandoned.  ``0`` disables the cut-off.
    """
    return max(idle_limit, n) if idle_limit else 0


@dataclass
class ExecutionResult:
    """Everything measurable about one finished execution.

    Attributes
    ----------
    outputs:
        ``{p: color}`` for every process that returned.
    activations:
        ``{p: count}`` of *working* activations for every process
        (0 for processes that never woke up).
    return_times:
        ``{p: t}`` time at which each returning process returned.
    final_time:
        The last time index the engine executed (0 if the schedule was
        empty).
    time_exhausted:
        True when the run stopped because ``max_time`` was hit while
        processes were still working — usually a sign of a bug in a
        supposedly wait-free algorithm, or of too small a cap.
    trace:
        The recorded :class:`~repro.model.trace.Trace`, or ``None``.
    final_states:
        Private state of every process when the run stopped (returned
        processes keep their last state), for white-box assertions.
    """

    n: int
    outputs: Dict[ProcessId, Any]
    activations: Dict[ProcessId, int]
    return_times: Dict[ProcessId, int]
    final_time: int
    time_exhausted: bool
    trace: Optional[Trace]
    final_states: Dict[ProcessId, Any] = field(default_factory=dict)

    @property
    def terminated(self) -> Set[ProcessId]:
        """Processes that returned an output."""
        return set(self.outputs)

    @property
    def pending(self) -> Set[ProcessId]:
        """Processes that never returned (crashed, starved, or cut off)."""
        return {p for p in range(self.n) if p not in self.outputs}

    @property
    def all_terminated(self) -> bool:
        """Whether every process returned."""
        return len(self.outputs) == self.n

    @property
    def round_complexity(self) -> int:
        """Max number of working activations of any process (§2.2)."""
        return max(self.activations.values(), default=0)

    def activation_of(self, p: ProcessId) -> int:
        """Working activations of process ``p``."""
        return self.activations.get(p, 0)

    def __repr__(self) -> str:
        return (
            f"ExecutionResult(n={self.n}, terminated={len(self.outputs)}, "
            f"rounds={self.round_complexity}, final_time={self.final_time})"
        )


def time_exhausted_error(result: ExecutionResult) -> TimeExhaustedError:
    """A diagnosable :class:`TimeExhaustedError` for an exhausted run.

    Shared by both engines: the message names the unreturned processes
    with their activation counts (the first thing one needs to tell a
    starved process from a livelocked one), and the error object
    carries the full partial state.
    """
    pending = sorted(result.pending)
    sample = ", ".join(
        f"p{p}(activations={result.activations.get(p, 0)})"
        for p in pending[:8]
    )
    more = "" if len(pending) <= 8 else f", … +{len(pending) - 8} more"
    ctx = current_context()
    return TimeExhaustedError(
        f"max_time exhausted at t={result.final_time} with "
        f"{len(pending)}/{result.n} processes unreturned: {sample}{more}",
        activations=result.activations,
        final_time=result.final_time,
        pending=pending,
        partial_result=result,
        trace_id=ctx.trace_id if ctx is not None else "",
    )


class Executor:
    """Runs one algorithm on one topology under any schedule.

    Parameters
    ----------
    topology:
        The communication graph mediating register visibility.
    algorithm:
        Any object implementing the per-process protocol of
        :class:`repro.core.algorithm.Algorithm`.
    inputs:
        ``inputs[p]`` is the input (identifier ``X_p``) of process ``p``.
    record_trace:
        Record activation sets, writes and returns per step.
    record_registers:
        Additionally snapshot the whole register file each step (implies
        ``record_trace``); needed for execution-wide invariants such as
        Lemma 4.5.
    """

    def __init__(
        self,
        topology: Topology,
        algorithm,
        inputs: Sequence[Any],
        *,
        record_trace: bool = False,
        record_registers: bool = False,
    ):
        if len(inputs) != topology.n:
            raise ExecutionError(
                f"got {len(inputs)} inputs for {topology.n} processes"
            )
        self.topology = topology
        self.algorithm = algorithm
        self.inputs = list(inputs)
        self.record_trace = record_trace or record_registers
        self.record_registers = record_registers

    def run(
        self,
        schedule: Schedule,
        max_time: int = DEFAULT_MAX_TIME,
        idle_limit: int = DEFAULT_IDLE_LIMIT,
        *,
        monitors: Optional[Sequence[Any]] = None,
        raise_on_exhaustion: bool = False,
    ) -> ExecutionResult:
        """Execute the schedule and return the measured result.

        The run stops as soon as every process has returned, when the
        schedule is exhausted, or when ``max_time`` steps have been
        simulated — whichever comes first.  As a simulation cutoff (not
        part of the model), the run also stops after
        ``effective_idle_limit(idle_limit, n)`` consecutive steps in
        which no working process was activated.  This is a heuristic:
        the schedule may still activate a working process later, and
        the run is then abandoned although it could have changed.  The
        cut-off is never below ``n``, so the longest idle gap a fair
        schedule such as round-robin leaves (``n − 1`` steps) never
        triggers it.  Pass ``idle_limit=0`` to disable the cutoff.

        ``monitors`` is an optional sequence of
        :class:`repro.obs.monitors.BoundMonitor`-like observers driven
        live: ``on_run_start`` before the first step, ``observe_step``
        after every step activating at least one working process, and
        ``on_run_end`` with the finished result.  With
        ``raise_on_exhaustion=True``, hitting ``max_time`` with
        processes still working raises a diagnosable
        :class:`~repro.errors.TimeExhaustedError` (carrying per-process
        activation counts, the last time index, the unreturned
        processes, and the partial result) instead of returning a
        result with ``time_exhausted`` set.
        """
        topo = self.topology
        alg = self.algorithm
        n = topo.n
        idle_limit = effective_idle_limit(idle_limit, n)

        registry = active_registry()
        observing = registry is not None or is_recording()
        mons = list(monitors) if monitors else None
        if mons is not None:
            for m in mons:
                m.on_run_start(topo, alg, self.inputs)
        write_watch = Stopwatch() if observing else None
        update_watch = Stopwatch() if observing else None
        started = perf_counter() if observing else 0.0
        wall_started = wall_clock() if observing else 0.0

        states: Dict[ProcessId, Any] = {
            p: alg.initial_state(self.inputs[p]) for p in topo.processes()
        }
        registers = RegisterFile(n)
        outputs: Dict[ProcessId, Any] = {}
        return_times: Dict[ProcessId, int] = {}
        activations: Dict[ProcessId, int] = {p: 0 for p in topo.processes()}
        trace = Trace() if self.record_trace else None

        time = 0
        idle_streak = 0
        time_exhausted = False
        for raw_step in schedule.steps(n):
            if len(outputs) == n:
                break
            time += 1
            if time > max_time:
                time -= 1
                time_exhausted = True
                break

            # The paper's σ̄(t): drop processes whose stopping condition
            # was already fulfilled.
            working = frozenset(p for p in raw_step if p not in outputs)
            if not working:
                # A step activating only finished processes costs no
                # activations; record nothing but keep time advancing.
                idle_streak += 1
                if trace is not None:
                    trace.append(
                        StepEvent(time, working, {}, {},
                                  registers.snapshot() if self.record_registers else None)
                    )
                if idle_limit and idle_streak >= idle_limit:
                    break
                continue
            idle_streak = 0

            # Phase 1 — all activated processes write.
            if write_watch is not None:
                write_watch.tick()
            writes: Dict[ProcessId, Any] = {}
            for p in working:
                value = alg.register_value(states[p])
                writes[p] = value
            registers.write_all(writes.items())
            if write_watch is not None:
                write_watch.tock()

            # Phase 2+3 — each activated process reads its neighbors'
            # registers and performs its private update.  Writes all
            # happened above, and updates only touch private state, so
            # per-process iteration order is immaterial.
            if update_watch is not None:
                update_watch.tick()
            returned: Dict[ProcessId, Any] = {}
            for p in working:
                views = registers.read_many(topo.neighbors(p))
                outcome = alg.step(states[p], views)
                activations[p] += 1
                if outcome.returned:
                    outputs[p] = outcome.output
                    return_times[p] = time
                    returned[p] = outcome.output
                states[p] = outcome.state
            if update_watch is not None:
                update_watch.tock()

            if mons is not None:
                for m in mons:
                    m.observe_step(time, working, returned, activations)

            if trace is not None:
                trace.append(
                    StepEvent(
                        time,
                        working,
                        writes,
                        returned,
                        registers.snapshot() if self.record_registers else None,
                    )
                )

        result = ExecutionResult(
            n=n,
            outputs=outputs,
            activations=activations,
            return_times=return_times,
            final_time=time,
            time_exhausted=time_exhausted,
            trace=trace,
            final_states=states,
        )
        if observing:
            alg_name = type(alg).__name__
            elapsed = perf_counter() - started
            if registry is not None:
                record_execution(
                    registry, "reference", alg_name, result, elapsed=elapsed
                )
            record_timed(
                "engine_run", wall_started, elapsed,
                {"engine": "reference", "algorithm": alg_name,
                 "final_time": result.final_time},
            )
            write_watch.flush(
                "engine_phase", registry, engine="reference", phase="write"
            )
            update_watch.flush(
                "engine_phase", registry, engine="reference", phase="update"
            )
        if mons is not None:
            for m in mons:
                m.on_run_end(result)
        if raise_on_exhaustion and result.time_exhausted:
            raise time_exhausted_error(result)
        return result


#: Engine registry for :func:`run_execution`.  ``"fast"`` is the
#: compiled fast path of :mod:`repro.model.fastpath`; ``"batch"`` is
#: the lockstep ensemble engine of :mod:`repro.model.batch` (for a
#: single run it executes a batch of one, falling back to ``"fast"``
#: where batching doesn't apply); ``"wide"`` is the node-vectorized
#: single-run engine of :mod:`repro.model.wide` (whole activation sets
#: per step, falling back to ``"fast"`` likewise); ``"auto"`` picks
#: among them from the workload shape (:mod:`repro.model.select`).
#: All are observably identical to ``"reference"`` (this module's
#: :class:`Executor`), which is retained everywhere as the semantics
#: oracle.
ENGINES = ("fast", "batch", "wide", "reference", "auto")


def ensure_engine(engine: str) -> str:
    """Validate an engine name eagerly, before any run starts.

    Raises the one-line :class:`ExecutionError` every entry point
    (CLI, service, campaigns, ensembles) surfaces verbatim, instead of
    letting an unknown name travel deep into a run loop and come back
    as a traceback.
    """
    if engine not in ENGINES:
        raise ExecutionError(
            f"unknown engine {engine!r} (known: {', '.join(ENGINES)})"
        )
    return engine


def run_execution(
    algorithm,
    topology: Topology,
    inputs: Sequence[Any],
    schedule: Schedule,
    *,
    max_time: int = DEFAULT_MAX_TIME,
    record_trace: bool = False,
    record_registers: bool = False,
    engine: str = "fast",
    monitors: Optional[Sequence[Any]] = None,
    raise_on_exhaustion: bool = False,
) -> ExecutionResult:
    """One-shot convenience wrapper around an execution engine.

    ``engine="fast"`` (the default) runs the compiled fast path of
    :mod:`repro.model.fastpath`; ``engine="reference"`` runs this
    module's :class:`Executor`.  The two are *observably identical* —
    the differential equivalence harness asserts bit-identical
    :class:`ExecutionResult`\\ s — so the choice is purely about speed
    vs. having the straight-from-the-paper loop in the stack trace.

    Example
    -------
    >>> from repro.core.fast_coloring5 import FastFiveColoring
    >>> from repro.model.topology import Cycle
    >>> from repro.schedulers.synchronous import SynchronousScheduler
    >>> result = run_execution(
    ...     FastFiveColoring(), Cycle(5), [10, 3, 77, 42, 5],
    ...     SynchronousScheduler())
    >>> result.all_terminated
    True
    """
    ensure_engine(engine)
    if engine == "auto":
        from repro.model.select import select_engine

        engine = select_engine(
            algorithm, topology, schedule,
            record_trace=record_trace,
            record_registers=record_registers,
            monitors=monitors,
        )
    if engine == "wide":
        # Same contract gate as batch: the wide kernels produce no
        # trace/register history and run no monitors, so those requests
        # fall back to the fast engine (whose own gate falls further
        # back to the generic loop as needed).
        if not record_trace and not record_registers and not monitors:
            from repro.model.wide import run_wide

            result = run_wide(
                algorithm, topology, inputs, schedule, max_time=max_time
            )
            if result is not None:
                if raise_on_exhaustion and result.time_exhausted:
                    raise time_exhausted_error(result)
                return result
        engine = "fast"
    if engine == "batch":
        # The batch engine covers plain (untraced, unmonitored) runs of
        # kernel-supported configurations; anything else falls back to
        # the fast engine, mirroring the fast engine's own kernel gate.
        if not record_trace and not record_registers and not monitors:
            from repro.model.batch import run_single_batch

            result = run_single_batch(
                algorithm, topology, inputs, schedule, max_time=max_time
            )
            if result is not None:
                if raise_on_exhaustion and result.time_exhausted:
                    raise time_exhausted_error(result)
                return result
        engine = "fast"
    if engine == "fast":
        from repro.model.fastpath import FastExecutor as executor_cls
    elif engine == "reference":
        executor_cls = Executor
    else:
        raise ExecutionError(
            f"unknown engine {engine!r} (known: {', '.join(ENGINES)})"
        )
    executor = executor_cls(
        topology,
        algorithm,
        inputs,
        record_trace=record_trace,
        record_registers=record_registers,
    )
    return executor.run(
        schedule,
        max_time=max_time,
        monitors=monitors,
        raise_on_exhaustion=raise_on_exhaustion,
    )
