"""The kernel registry, the shared build path, and the scalar kernels.

A *kernel* is an engine's inner loop and one algorithm's ``step``
fused into a single function over parallel arrays of plain ints — no
``NamedTuple`` states, no register payload tuples, no ``StepOutcome``
wrappers, no per-activation attribute lookups.  Three engines run
kernels: ``fast`` (the scalar kernels defined here), ``batch``
(:mod:`repro.model.batch`, lockstep across replicas) and ``wide``
(:mod:`repro.model.wide`, vectorized across the nodes of one run).

**One registry.**  :data:`KERNELS` maps an *exact* algorithm type to
its :class:`KernelFamily` — the register family (``"ab"`` for
Algorithms 2 and 3, ``"pair"`` for Algorithm 1 and fast-six) and
whether the identifier-reduction block is compiled in.  A subclass may
override ``step`` and silently change semantics, so it never matches.
The registry names no engine module: the batch and wide runners are
imported only when those engines run, so asking "is there a kernel?"
(:mod:`repro.model.select`) never imports numpy.

**One build path.**  :func:`build_kernels` is the preamble every
engine shares: the degree-≤2 decline (:func:`_degree2_arrays`), the
ablation flags (which must agree across batch replicas), the numpy
gate (:func:`load_numpy` and the exact-int64 identifier check) and the
scalar fallback.  Without numpy, or with identifiers that do not fit
the packed int64 layout, the batch and wide engines run each replica
through its scalar kernel — bit-identical by construction.

Correctness discipline: a kernel must reproduce the reference engine's
:class:`~repro.model.execution.ExecutionResult` *bit-identically* —
outputs, activation counts, return times, final time, the
``time_exhausted`` flag and the per-process final states — pinned by
``tests/model/test_fastpath_equivalence.py`` and
``tests/model/test_batch_equivalence.py``.  A configuration no kernel
can guarantee equivalence for is declined (``None``) and the generic
fast path takes over.
"""

from __future__ import annotations

import os
import weakref
from typing import (
    Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence,
    Tuple, Type,
)

from repro.model.execution import ExecutionResult
from repro.model.topology import Topology
from repro.obs.metrics import active_registry
from repro.obs.spans import span

__all__ = [
    "NUMPY_ENV_FLAG",
    "load_numpy",
    "numpy_accelerated",
    "KernelFamily",
    "KERNELS",
    "register_kernel",
    "build_kernels",
    "build_kernel",
]

#: Set this environment variable to a non-empty value (other than "0")
#: to keep the batch and wide engines off numpy even when it is
#: importable — the switch the no-numpy CI leg and the tier tests use.
NUMPY_ENV_FLAG = "REPRO_BATCH_DISABLE_NUMPY"


def load_numpy():
    """The numpy module, or ``None`` (absent or explicitly disabled)."""
    if os.environ.get(NUMPY_ENV_FLAG, "0") not in ("", "0"):
        return None
    try:
        import numpy
    except ImportError:  # pragma: no cover - depends on environment
        return None
    return numpy


def numpy_accelerated() -> bool:
    """Whether the batch and wide engines will use numpy right now."""
    return load_numpy() is not None


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------

#: Ablation flags each family's identifier-reduction block reads off
#: the algorithm instance (absent flags mean the unablated algorithm).
_ABLATION_FLAGS: Dict[str, Tuple[str, ...]] = {
    "ab": ("green_light", "guarded_adoption"),
    "pair": ("green_light",),
}


class KernelFamily(NamedTuple):
    """How every engine runs one algorithm type."""

    family: str             #: ``"ab"`` or ``"pair"``
    reduction: bool = False  #: identifier-reduction block compiled in

    @property
    def flags(self) -> Tuple[str, ...]:
        """The ablation attributes this kernel binds at build time."""
        return _ABLATION_FLAGS[self.family] if self.reduction else ()


#: Exact algorithm type → :class:`KernelFamily`.
KERNELS: Dict[Type, KernelFamily] = {}


def register_kernel(algorithm_type: Type, family: str, *,
                    reduction: bool = False) -> None:
    """Run ``algorithm_type`` on the shipped kernels of ``family``.

    For algorithms whose ``step`` is exactly one of the shipped
    families' (e.g. a renamed copy); every engine picks it up.
    """
    if family not in _ABLATION_FLAGS:
        raise ValueError(
            f"unknown kernel family {family!r} "
            f"(known: {', '.join(sorted(_ABLATION_FLAGS))})"
        )
    KERNELS[algorithm_type] = KernelFamily(family, reduction)


# ----------------------------------------------------------------------
# The shared build path
# ----------------------------------------------------------------------

def _ids_as_int64(np, inputs_list: Sequence[Sequence[Any]]):
    """The identifiers as a ``(B, n)`` int64 array, or ``None``.

    The numpy runners keep identifiers in int64 lanes and derive bit
    lengths through ``frexp``, which is exact only below ``2**53`` —
    the ``huge`` input family (256-bit ids) must take the scalar tier,
    as must any non-integer identifiers (which numpy would silently
    coerce; ``bool`` is fine, ``True == 1`` survives the round trip).
    """
    try:
        raw = np.asarray(inputs_list)
    except (OverflowError, TypeError, ValueError):
        return None
    if raw.dtype != np.bool_ and not np.issubdtype(raw.dtype, np.integer):
        return None
    arr = raw.astype(np.int64)
    if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= 1 << 53):
        return None
    return arr


def _count_build(alg_name: str, outcome: str) -> None:
    registry = active_registry()
    if registry is not None:
        registry.inc(
            "engine_kernel_builds_total", 1,
            algorithm=alg_name, outcome=outcome,
        )


def build_kernels(
    algorithms: Sequence[Any],
    topology: Topology,
    inputs_list: Sequence[Sequence[Any]],
    vector: Optional[Mapping[str, Callable]] = None,
):
    """Build one configuration's kernels: ``(tier, kernel)`` or ``None``.

    Replica ``i`` is ``(algorithms[i], inputs_list[i])`` over the
    shared ``topology``.  Declines (``None``) when the algorithms do
    not share one registered exact type, the topology has a node of
    degree > 2, or the replicas' ablation flags differ.

    ``vector`` is the calling engine's family → numpy runner table.
    When it is given, numpy is on and the identifiers fit int64 lanes,
    the result is ``("vector", vector[family](np, nb1, nb2, ids,
    reduction=…, **flags))`` with ``ids`` the ``(B, n)`` identifier
    array.  Otherwise it is ``("scalar", kernels)``, one scalar kernel
    per replica.
    """
    alg_type = type(algorithms[0])
    alg_name = alg_type.__name__
    entry = KERNELS.get(alg_type)
    if entry is None:
        _count_build(alg_name, "unregistered")
        return None
    with span("engine_kernel_build", algorithm=alg_name):
        built = _build(entry, algorithms, topology, inputs_list, vector)
    _count_build(alg_name, "compiled" if built is not None else "declined")
    return built


def _build(entry, algorithms, topology, inputs_list, vector):
    alg_type = type(algorithms[0])
    if any(type(a) is not alg_type for a in algorithms[1:]):
        return None
    arrays = _degree2_arrays(topology)
    if arrays is None:
        return None
    flags = {name: getattr(algorithms[0], name) for name in entry.flags}
    for alg in algorithms[1:]:
        if any(getattr(alg, name) != value for name, value in flags.items()):
            return None
    nb1, nb2 = arrays
    if vector is not None:
        np = load_numpy()
        if np is not None:
            ids = _ids_as_int64(np, inputs_list)
            if ids is not None:
                return "vector", vector[entry.family](
                    np, nb1, nb2, ids, reduction=entry.reduction, **flags
                )
    scalar = _SCALAR_KERNELS[entry.family]
    return "scalar", [
        scalar(nb1, nb2, inputs, reduction=entry.reduction, **flags)
        for inputs in inputs_list
    ]


def build_kernel(algorithm, topology: Topology, inputs: List[Any]):
    """The fast engine's scalar kernel for one run, or ``None``.

    ``kernel(schedule, max_time, idle_limit) -> ExecutionResult``.
    """
    built = build_kernels([algorithm], topology, [inputs])
    return None if built is None else built[1][0]


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------

#: Per-topology-object memo for :func:`_degree2_arrays` — topologies
#: are immutable once built, and every kernel build calls this, so the
#: n ``neighbors()`` walks are paid once per topology instance.
#: ``False`` records a declined (too dense) topology; weak keys keep
#: the memo from pinning objects.
_DEGREE2_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _degree2_arrays(topology: Topology) -> Optional[Tuple[List[int], List[int]]]:
    """Neighbor ids as two flat arrays (−1 = absent), or ``None``.

    The shipped kernels specialize for the paper's degree-≤2 topologies
    (cycles, paths); anything denser falls back to the generic path.
    The returned arrays are cached per topology object and shared —
    callers must treat them as read-only.
    """
    try:
        cached = _DEGREE2_CACHE.get(topology)
    except TypeError:  # unhashable / non-weakrefable topology
        cached = None
    if cached is not None:
        return None if cached is False else cached
    n = topology.n
    nb1 = [-1] * n
    nb2 = [-1] * n
    arrays: Any = (nb1, nb2)
    for p in range(n):
        nbrs = topology.neighbors(p)
        if len(nbrs) > 2:
            arrays = False
            break
        if len(nbrs) >= 1:
            nb1[p] = nbrs[0]
        if len(nbrs) == 2:
            nb2[p] = nbrs[1]
    try:
        _DEGREE2_CACHE[topology] = arrays
    except TypeError:
        pass
    return None if arrays is False else arrays


# ----------------------------------------------------------------------
# Algorithms 2 and 3: the (x, a, b[, r]) register family
# ----------------------------------------------------------------------

def _make_ab_kernel(nb1, nb2, inputs, *, reduction: bool,
                    green_light: bool = True, guarded_adoption: bool = True):
    """Fused loop for Algorithm 2 (``reduction=False``) / Algorithm 3.

    One code path serves both: Algorithm 3 is Algorithm 2 plus the
    identifier-reduction block, which is compiled in (or out) here
    together with its ablation flags.
    """
    from repro.core.coin_tossing import reduce_identifier
    from repro.core.coloring5 import FiveState
    from repro.core.fast_coloring5 import FastState, INFINITE_ROUND

    n = len(nb1)

    def run(schedule, max_time, idle_limit) -> ExecutionResult:
        st_x = list(inputs)
        st_a = [0] * n
        st_b = [0] * n
        st_r: List[Any] = [0] * n
        rg_x = [0] * n
        rg_a = [0] * n
        rg_b = [0] * n
        rg_r: List[Any] = [0] * n
        rg_w = [False] * n

        done = [False] * n
        outputs: Dict[int, Any] = {}
        return_times: Dict[int, int] = {}
        activations = [0] * n
        time = 0
        idle_streak = 0
        time_exhausted = False
        remaining = n
        INF = INFINITE_ROUND

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
                if idle_limit and idle_streak >= idle_limit:
                    break
                continue
            idle_streak = 0

            # Phase 1 — publish the register images.
            for p in working:
                rg_x[p] = st_x[p]
                rg_a[p] = st_a[p]
                rg_b[p] = st_b[p]
                if reduction:
                    rg_r[p] = st_r[p]
                rg_w[p] = True

            # Phase 2+3 — read + private update, fully inlined.
            for p in working:
                activations[p] += 1
                x = st_x[p]
                a = st_a[p]
                b = st_b[p]
                q1 = nb1[p]
                q2 = nb2[p]
                w1 = q1 >= 0 and rg_w[q1]
                w2 = q2 >= 0 and rg_w[q2]

                if w1 and w2:
                    a1 = rg_a[q1]; b1 = rg_b[q1]
                    a2 = rg_a[q2]; b2 = rg_b[q2]
                    if a != a1 and a != b1 and a != a2 and a != b2:
                        outputs[p] = a; return_times[p] = time
                        done[p] = True; remaining -= 1
                        continue
                    if b != a1 and b != b1 and b != a2 and b != b2:
                        outputs[p] = b; return_times[p] = time
                        done[p] = True; remaining -= 1
                        continue
                    taken_all = {a1, b1, a2, b2}
                    taken_higher = set()
                    if rg_x[q1] > x:
                        taken_higher.add(a1); taken_higher.add(b1)
                    if rg_x[q2] > x:
                        taken_higher.add(a2); taken_higher.add(b2)
                elif w1 or w2:
                    q = q1 if w1 else q2
                    aq = rg_a[q]; bq = rg_b[q]
                    if a != aq and a != bq:
                        outputs[p] = a; return_times[p] = time
                        done[p] = True; remaining -= 1
                        continue
                    if b != aq and b != bq:
                        outputs[p] = b; return_times[p] = time
                        done[p] = True; remaining -= 1
                        continue
                    taken_all = {aq, bq}
                    taken_higher = {aq, bq} if rg_x[q] > x else set()
                else:
                    # No awakened neighbor: a (initially 0) is free.
                    outputs[p] = a; return_times[p] = time
                    done[p] = True; remaining -= 1
                    continue

                v = 0
                while v in taken_higher:
                    v += 1
                st_a[p] = v
                v = 0
                while v in taken_all:
                    v += 1
                st_b[p] = v

                # Identifier reduction (Algorithm 3 only), compiled in
                # only when both neighbors exist and are awake.
                if reduction and w1 and w2:
                    r = st_r[p]
                    if r < INF:
                        r1 = rg_r[q1]; r2 = rg_r[q2]
                        if r <= (r1 if r1 < r2 else r2) or not green_light:
                            x1 = rg_x[q1]; x2 = rg_x[q2]
                            lo, hi = (x1, x2) if x1 < x2 else (x2, x1)
                            if lo < x < hi:
                                st_r[p] = r + 1
                                candidate = reduce_identifier(x, lo)
                                if candidate < lo or not guarded_adoption:
                                    st_x[p] = candidate
                            else:
                                st_r[p] = INF
                                if x < lo:
                                    f1 = reduce_identifier(x1, x)
                                    f2 = reduce_identifier(x2, x)
                                    v = 0
                                    while v == f1 or v == f2:
                                        v += 1
                                    if v < x:
                                        st_x[p] = v

        if reduction:
            final_states = {
                p: FastState(x=st_x[p], r=st_r[p], a=st_a[p], b=st_b[p])
                for p in range(n)
            }
        else:
            final_states = {
                p: FiveState(x=st_x[p], a=st_a[p], b=st_b[p])
                for p in range(n)
            }
        return ExecutionResult(
            n=n,
            outputs=outputs,
            activations={p: activations[p] for p in range(n)},
            return_times=return_times,
            final_time=time,
            time_exhausted=time_exhausted,
            trace=None,
            final_states=final_states,
        )

    return run


# ----------------------------------------------------------------------
# Algorithms 1 and fast-6: the (x, (a, b) pair[, r]) register family
# ----------------------------------------------------------------------

def _make_pair_kernel(nb1, nb2, inputs, *, reduction: bool,
                      green_light: bool = True):
    """Fused loop for Algorithm 1 (``reduction=False``) / fast-six.

    The pair algorithms return the *color pair* ``(a, b)`` and compare
    whole pairs against neighbors; component updates filter by
    identifier order (``a`` against higher-id, ``b`` against lower-id
    neighbors).
    """
    from repro.core.coin_tossing import reduce_identifier
    from repro.core.coloring6 import SixState
    from repro.extensions.fast_six import FastSixState, INFINITE_ROUND

    n = len(nb1)

    def run(schedule, max_time, idle_limit) -> ExecutionResult:
        st_x = list(inputs)
        st_a = [0] * n
        st_b = [0] * n
        st_r: List[Any] = [0] * n
        rg_x = [0] * n
        rg_a = [0] * n
        rg_b = [0] * n
        rg_r: List[Any] = [0] * n
        rg_w = [False] * n

        done = [False] * n
        outputs: Dict[int, Any] = {}
        return_times: Dict[int, int] = {}
        activations = [0] * n
        time = 0
        idle_streak = 0
        time_exhausted = False
        remaining = n
        INF = INFINITE_ROUND

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
                if idle_limit and idle_streak >= idle_limit:
                    break
                continue
            idle_streak = 0

            for p in working:
                rg_x[p] = st_x[p]
                rg_a[p] = st_a[p]
                rg_b[p] = st_b[p]
                if reduction:
                    rg_r[p] = st_r[p]
                rg_w[p] = True

            for p in working:
                activations[p] += 1
                x = st_x[p]
                a = st_a[p]
                b = st_b[p]
                q1 = nb1[p]
                q2 = nb2[p]
                w1 = q1 >= 0 and rg_w[q1]
                w2 = q2 >= 0 and rg_w[q2]

                # Pair return rule: my (a, b) differs from every
                # awakened neighbor's published pair.
                clash = (
                    (w1 and a == rg_a[q1] and b == rg_b[q1])
                    or (w2 and a == rg_a[q2] and b == rg_b[q2])
                )
                if not clash:
                    outputs[p] = (a, b); return_times[p] = time
                    done[p] = True; remaining -= 1
                    continue

                # mex of first components over higher-id awake
                # neighbors, second components over lower-id ones.
                h1 = rg_a[q1] if w1 and rg_x[q1] > x else -1
                h2 = rg_a[q2] if w2 and rg_x[q2] > x else -1
                v = 0
                while v == h1 or v == h2:
                    v += 1
                new_a = v
                l1 = rg_b[q1] if w1 and rg_x[q1] < x else -1
                l2 = rg_b[q2] if w2 and rg_x[q2] < x else -1
                v = 0
                while v == l1 or v == l2:
                    v += 1
                st_a[p] = new_a
                st_b[p] = v

                if reduction and w1 and w2:
                    r = st_r[p]
                    if r < INF:
                        r1 = rg_r[q1]; r2 = rg_r[q2]
                        if r <= (r1 if r1 < r2 else r2) or not green_light:
                            x1 = rg_x[q1]; x2 = rg_x[q2]
                            lo, hi = (x1, x2) if x1 < x2 else (x2, x1)
                            if lo < x < hi:
                                st_r[p] = r + 1
                                candidate = reduce_identifier(x, lo)
                                if candidate < lo:
                                    st_x[p] = candidate
                            else:
                                st_r[p] = INF
                                if x < lo:
                                    f1 = reduce_identifier(x1, x)
                                    f2 = reduce_identifier(x2, x)
                                    v = 0
                                    while v == f1 or v == f2:
                                        v += 1
                                    if v < x:
                                        st_x[p] = v

        if reduction:
            final_states = {
                p: FastSixState(x=st_x[p], r=st_r[p], a=st_a[p], b=st_b[p])
                for p in range(n)
            }
        else:
            final_states = {
                p: SixState(x=st_x[p], a=st_a[p], b=st_b[p])
                for p in range(n)
            }
        return ExecutionResult(
            n=n,
            outputs=outputs,
            activations={p: activations[p] for p in range(n)},
            return_times=return_times,
            final_time=time,
            time_exhausted=time_exhausted,
            trace=None,
            final_states=final_states,
        )

    return run


# ----------------------------------------------------------------------
# Registrations (imported lazily to keep repro.model import-light)
# ----------------------------------------------------------------------

#: Family → scalar kernel factory.
_SCALAR_KERNELS: Dict[str, Callable] = {
    "ab": _make_ab_kernel,
    "pair": _make_pair_kernel,
}


def _register_builtin_kernels() -> None:
    from repro.core.coloring5 import FiveColoring
    from repro.core.coloring6 import SixColoring
    from repro.core.fast_coloring5 import FastFiveColoring
    from repro.extensions.fast_six import FastSixColoring

    register_kernel(FiveColoring, "ab")
    register_kernel(FastFiveColoring, "ab", reduction=True)
    register_kernel(SixColoring, "pair")
    register_kernel(FastSixColoring, "pair", reduction=True)


_register_builtin_kernels()
