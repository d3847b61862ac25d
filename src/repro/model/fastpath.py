"""The compiled fast-path execution engine.

Observably identical to :class:`repro.model.execution.Executor` —
same :class:`~repro.model.execution.ExecutionResult`, bit for bit,
including activation counts, return times, traces and final states —
but engineered for throughput.  The equivalence is not an aspiration:
``tests/model/test_fastpath_equivalence.py`` replays seeded random,
adversarial and synchronous schedules through both engines across
every registered algorithm and asserts identical results, and the
reference engine remains available everywhere (``engine="reference"``)
as the semantics oracle.

Two tiers, selected automatically per run:

**Compiled kernels** (:mod:`repro.model.kernels`).  For the shipped
algorithms on low-degree topologies, a *kernel* is a fused
engine+algorithm loop over parallel arrays of plain ints: no
``NamedTuple`` state objects, no ``StepOutcome`` wrappers, no
per-activation method dispatch.  Kernels are built once per executor
(the "compilation" step: neighbor arrays, specialization choices and
algorithm parameters are all resolved up front) and give a 5–10×
speedup over the reference engine.  Tracing runs bypass kernels —
traces need the exact per-step register payload objects.

**The generic fast path.**  For any other (algorithm, topology) pair,
the same write/read/update semantics as the reference engine with the
per-activation overheads removed:

* each process's neighbor tuple is resolved once at init instead of
  calling ``topology.neighbors(p)`` per activation;
* register indices are validated once and reads go through the
  unchecked batch path of :class:`~repro.model.registers.RegisterFile`;
* ``algorithm.register_value(state)`` is cached per process and only
  recomputed when the state object actually changed;
* schedules are consumed through
  :meth:`~repro.model.schedule.Schedule.steps_fast`, the reusable
  array/range step representation, instead of per-step ``frozenset``
  churn;
* a *quiescent* process — one whose last update was a no-op and whose
  neighborhood registers are unchanged — is not re-stepped when the
  algorithm declares itself view-deterministic
  (:attr:`repro.core.algorithm.Algorithm.view_deterministic`): by
  purity the outcome would be identical, so only the activation
  counter advances.

Fast-engine note: the :class:`~repro.model.registers.RegisterFile`
write *counts* (a diagnostics-only facility, not part of any result)
are not maintained by this engine.
"""

from __future__ import annotations

from time import perf_counter
from time import time as wall_clock
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ExecutionError
from repro.model.execution import (
    DEFAULT_IDLE_LIMIT,
    DEFAULT_MAX_TIME,
    ExecutionResult,
    effective_idle_limit,
    time_exhausted_error,
)
from repro.model.registers import RegisterFile
from repro.model.schedule import Schedule
from repro.model.topology import Topology
from repro.model.trace import StepEvent, Trace
from repro.obs.metrics import active_registry, record_execution
from repro.obs.trace import is_recording, record_timed

__all__ = ["FastExecutor"]


class FastExecutor:
    """Drop-in fast replacement for :class:`~repro.model.execution.Executor`.

    Construction mirrors the reference executor; :meth:`run` returns a
    bit-identical :class:`~repro.model.execution.ExecutionResult`.
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
        # Resolved once: the per-process neighbor tuples the reference
        # engine re-fetches on every activation.
        self._neighbors: List[tuple] = [
            topology.neighbors(p) for p in topology.processes()
        ]
        # Kernel compilation happens once per executor; tracing runs
        # need the generic path (kernels skip payload materialization).
        self._kernel = None
        if not self.record_trace:
            from repro.model.kernels import build_kernel

            self._kernel = build_kernel(algorithm, topology, self.inputs)

    def run(
        self,
        schedule: Schedule,
        max_time: int = DEFAULT_MAX_TIME,
        idle_limit: int = DEFAULT_IDLE_LIMIT,
        *,
        monitors: Optional[Sequence[Any]] = None,
        raise_on_exhaustion: bool = False,
    ) -> ExecutionResult:
        """Execute the schedule; same semantics as ``Executor.run``.

        Monitored runs take the generic fast path — a fused kernel
        cannot call out per step, exactly like tracing runs.  Metric
        emission is computed post hoc from the finished result, so the
        kernel inner loops stay untouched and the disabled-mode cost is
        one registry check per *run*.
        """
        idle_limit = effective_idle_limit(idle_limit, self.topology.n)
        if self._kernel is not None and not monitors:
            registry = active_registry()
            observing = registry is not None or is_recording()
            started = perf_counter() if observing else 0.0
            wall = wall_clock() if observing else 0.0
            result = self._kernel(schedule, max_time, idle_limit)
            if observing:
                elapsed = perf_counter() - started
                alg_name = type(self.algorithm).__name__
                if registry is not None:
                    record_execution(
                        registry, "fast", alg_name, result, elapsed=elapsed
                    )
                record_timed(
                    "engine_run", wall, elapsed,
                    {"engine": "fast", "algorithm": alg_name, "path": "kernel",
                     "final_time": result.final_time},
                )
            if raise_on_exhaustion and result.time_exhausted:
                raise time_exhausted_error(result)
            return result
        return self._run_generic(
            schedule,
            max_time,
            idle_limit,
            monitors=monitors,
            raise_on_exhaustion=raise_on_exhaustion,
        )

    # ------------------------------------------------------------------
    # Generic fast path
    # ------------------------------------------------------------------
    def _run_generic(
        self,
        schedule: Schedule,
        max_time: int,
        idle_limit: int,
        *,
        monitors: Optional[Sequence[Any]] = None,
        raise_on_exhaustion: bool = False,
    ) -> ExecutionResult:
        alg = self.algorithm
        n = self.topology.n
        record_trace = self.record_trace
        record_registers = self.record_registers
        neighbors = self._neighbors

        registers = RegisterFile(n)
        for p in range(n):
            registers.validate_indices(neighbors[p])
        values = registers._values  # unchecked batch read/write target

        states: List[Any] = [alg.initial_state(x) for x in self.inputs]
        # register_value cache, keyed on state object identity.
        reg_cache_state: List[Any] = [None] * n
        reg_cache_value: List[Any] = [None] * n
        # Quiescence bookkeeping (view-deterministic algorithms only):
        # stable[p] means p's last executed step was a no-op from its
        # current state under last_views[p].
        skip_quiescent = getattr(alg, "view_deterministic", False) is True
        stable = [False] * n
        last_views: List[Any] = [None] * n

        done = [False] * n
        outputs: Dict[int, Any] = {}
        return_times: Dict[int, int] = {}
        activations = [0] * n
        trace = Trace() if record_trace else None

        registry = active_registry()
        observing = registry is not None or is_recording()
        started = perf_counter() if observing else 0.0
        wall = wall_clock() if observing else 0.0
        mons = list(monitors) if monitors else None
        if mons is not None:
            for m in mons:
                m.on_run_start(self.topology, alg, self.inputs)

        time = 0
        idle_streak = 0
        time_exhausted = False
        remaining = n

        for raw_step in schedule.steps_fast(n):
            if remaining == 0:
                break
            time += 1
            if time > max_time:
                time -= 1
                time_exhausted = True
                break

            working = [p for p in raw_step if not done[p]]
            if not working:
                idle_streak += 1
                if trace is not None:
                    trace.append(
                        StepEvent(
                            time, frozenset(), {}, {},
                            registers.snapshot() if record_registers else None,
                        )
                    )
                if idle_limit and idle_streak >= idle_limit:
                    break
                continue
            idle_streak = 0

            # Phase 1 — batch write, with the register payload cached
            # until the state object changes.
            writes: Optional[Dict[int, Any]] = {} if record_trace else None
            for p in working:
                state = states[p]
                if reg_cache_state[p] is not state:
                    reg_cache_value[p] = alg.register_value(state)
                    reg_cache_state[p] = state
                value = reg_cache_value[p]
                values[p] = value
                if writes is not None:
                    writes[p] = value

            # Phase 2+3 — snapshot reads and private updates.
            returned: Dict[int, Any] = {}
            for p in working:
                activations[p] += 1
                views = tuple(values[q] for q in neighbors[p])
                if stable[p] and views == last_views[p]:
                    # Quiescent: same state, same views, pure step —
                    # the outcome is the same no-op.  Only the
                    # activation counter advances.
                    continue
                state = states[p]
                outcome = alg.step(state, views)
                if outcome.returned:
                    outputs[p] = outcome.output
                    return_times[p] = time
                    returned[p] = outcome.output
                    done[p] = True
                    remaining -= 1
                    states[p] = outcome.state
                else:
                    new_state = outcome.state
                    if skip_quiescent:
                        stable[p] = new_state == state
                        last_views[p] = views
                    states[p] = new_state

            if mons is not None:
                for m in mons:
                    m.observe_step(time, working, returned, activations)

            if trace is not None:
                trace.append(
                    StepEvent(
                        time,
                        frozenset(working),
                        writes,
                        returned,
                        registers.snapshot() if record_registers else None,
                    )
                )

        result = ExecutionResult(
            n=n,
            outputs=outputs,
            activations={p: activations[p] for p in range(n)},
            return_times=return_times,
            final_time=time,
            time_exhausted=time_exhausted,
            trace=trace,
            final_states={p: states[p] for p in range(n)},
        )
        if observing:
            elapsed = perf_counter() - started
            alg_name = type(alg).__name__
            if registry is not None:
                record_execution(
                    registry, "fast", alg_name, result, elapsed=elapsed
                )
            record_timed(
                "engine_run", wall, elapsed,
                {"engine": "fast", "algorithm": alg_name, "path": "generic",
                 "final_time": result.final_time},
            )
        if mons is not None:
            for m in mons:
                m.on_run_end(result)
        if raise_on_exhaustion and result.time_exhausted:
            raise time_exhausted_error(result)
        return result
