"""``engine="auto"``: adaptive engine selection from workload shape.

The repo ships four executable engines — reference, fast, batch, wide
— with one result contract (bit-identical ``ExecutionResult``) and very
different cost profiles.  ``auto`` makes the choice so callers (the
service, campaigns, notebooks) do not have to: a handful of cheap,
deterministic rules over the *shape* of the workload, never its data.

The rules, in order:

1. Anything that needs per-step observation — an execution trace,
   register snapshots, live monitors — runs on ``fast`` (whose own
   gate degrades to the generic loop when a kernel cannot serve the
   request).  The kernel engines do not produce those artifacts, so
   selecting them would change the contract; this rule is what makes
   ``auto`` contract-safe by construction.
2. Replica ensembles (``replicas > 1``) go to ``batch`` — lockstep
   across replicas amortizes the interpreter loop over the ensemble.
3. Single runs go to ``wide`` when the vectorized step can pay for
   itself: numpy importable, a kernel registered for the exact
   algorithm type (:data:`repro.model.kernels.KERNELS`; every
   registered type runs on every kernel engine), a schedule family
   with a *known* expected activation-set size, ``n`` at least :data:`WIDE_MIN_N` and the
   expected set size at least :data:`WIDE_MIN_STEP_OCCUPANCY`.
4. Everything else — small ``n``, sparse or opaque schedules, unknown
   algorithm types — stays on ``fast``.

Selection is *optimistic*: the chosen engine's own decline/fallback
gates still apply downstream (``run_wide``/``run_single_batch``
returning ``None`` falls back to ``fast`` inside ``run_execution``),
so a rule here never has to be perfectly tight to be safe.  The
decision and its deciding rule are recorded in the shared metrics
registry (``engine_auto_selected_total{engine=…,reason=…}``) so a
campaign's engine mix is auditable after the fact.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

from repro.model.schedule import Schedule
from repro.model.topology import Topology
from repro.obs.metrics import active_registry

__all__ = [
    "WIDE_MIN_N",
    "WIDE_MIN_STEP_OCCUPANCY",
    "select_engine",
]

#: Minimum system size for ``auto`` to pick the wide engine: below
#: this the fast kernel's per-activation loop beats numpy dispatch
#: overhead even on fully-dense schedules.
WIDE_MIN_N = 4096

#: Minimum *expected* activation-set size for the wide engine — the
#: vectorized step must clear the dense-step threshold with room to
#: spare, or the run would execute mostly on the sparse scalar path.
WIDE_MIN_STEP_OCCUPANCY = 256


def _expected_step_occupancy(schedule: Schedule, n: int) -> Optional[float]:
    """Expected activation-set size per step, or ``None`` if unknown.

    Computed from the *exact type* of the schedule (a subclass may
    override step generation, so it gets no credit for its parent's
    shape).  Only the families with vectorized ``steps_wide``
    overrides are recognized; any wrapper or custom adversary is
    opaque and scores ``None``.
    """
    from repro.schedulers.random_async import (
        BernoulliScheduler,
        UniformSubsetScheduler,
    )
    from repro.schedulers.synchronous import SynchronousScheduler

    kind = type(schedule)
    if kind is SynchronousScheduler:
        return float(n)
    if kind is BernoulliScheduler:
        return schedule.p * n
    if kind is UniformSubsetScheduler:
        return (n + 1) / 2
    return None


def _decide(
    algorithm: Any,
    topology: Topology,
    schedule: Schedule,
    *,
    replicas: int,
    record_trace: bool,
    record_registers: bool,
    monitors: Optional[Sequence[Any]],
) -> Tuple[str, str]:
    """The selection rules; returns ``(engine, reason)``."""
    if record_trace or record_registers:
        return "fast", "recording"
    if monitors:
        return "fast", "monitors"
    if replicas > 1:
        return "batch", "replicas"
    from repro.model.kernels import KERNELS, load_numpy

    if load_numpy() is None:
        return "fast", "no-numpy"
    if type(algorithm) not in KERNELS:
        return "fast", "no-wide-kernel"
    n = topology.n
    occupancy = _expected_step_occupancy(schedule, n)
    if occupancy is None:
        return "fast", "opaque-schedule"
    if n < WIDE_MIN_N:
        return "fast", "small-n"
    if occupancy < WIDE_MIN_STEP_OCCUPANCY:
        return "fast", "sparse-schedule"
    return "wide", "dense-large-n"


def select_engine(
    algorithm: Any,
    topology: Topology,
    schedule: Schedule,
    *,
    replicas: int = 1,
    record_trace: bool = False,
    record_registers: bool = False,
    monitors: Optional[Sequence[Any]] = None,
) -> str:
    """Pick a concrete engine for this workload shape.

    Never returns ``"auto"``; never picks an engine whose result
    contract differs from the reference for the given request (traced,
    register-recording, or monitored runs always land on ``fast``,
    which itself degrades to the generic loop as needed).  The chosen
    engine may still decline the configuration downstream and fall
    back — selection is a fast pre-filter, not a guarantee.
    """
    engine, reason = _decide(
        algorithm, topology, schedule,
        replicas=replicas,
        record_trace=record_trace,
        record_registers=record_registers,
        monitors=monitors,
    )
    registry = active_registry()
    if registry is not None:
        registry.inc("engine_auto_selected_total", engine=engine, reason=reason)
    return engine
