"""Vectorized batch engine: lockstep execution of replica ensembles.

Every quantitative claim in this repo is validated over *ensembles* —
(seed × input family × schedule) grids of runs that share one
configuration (same algorithm, same topology, same ``n``) and differ
only in their identifiers and activation streams.  The fast-path
engine (:mod:`repro.model.fastpath`) executes those replicas one at a
time; this module executes ``B`` of them *in lockstep*: private state,
register images and per-process clocks live in ``(B, n)`` arrays, the
schedulers hand out whole per-lockstep activation rows through the
vectorized :meth:`~repro.model.schedule.Schedule.steps_batch` API, and
one pass of array operations advances every replica at once.

Correctness discipline is inherited unchanged from
:mod:`repro.model.kernels`: a batched run must reproduce the per-run
engines' :class:`~repro.model.execution.ExecutionResult` replica by
replica, *bit-identically* — outputs, activation counts, return times,
final times, ``time_exhausted`` flags and final states.  The
differential harness (``tests/model/test_batch_equivalence.py``) pins
this for every registered algorithm, across ragged termination (each
replica retires the moment its own run ends — exhausted schedule,
``max_time``, idle cutoff, or everyone returned — without perturbing
the others) and crash-plan schedules.

numpy is an *optional accelerator*: when it is importable (and not
disabled via :data:`NUMPY_ENV_FLAG`) the batched kernels run fully
vectorized, including a bank of CPython-identical Mersenne Twister
streams (:class:`MTBatch`) so that Bernoulli activation masks match
``random.Random`` double for double.  Without numpy — or with
identifiers too large for the packed int64 layout — the pure tier runs
each replica through its scalar kernel (:mod:`repro.model.kernels`),
one after the other: slower, but dependency-free and bit-identical by
construction, so the core library still has no hard requirements.

Kernels come from the one registry of :mod:`repro.model.kernels`
(exact algorithm type → register family) through its shared build
path, which declines (``None``) whatever no kernel can guarantee
equivalence for — mixed or unregistered algorithm types, unsupported
topology degree, heterogeneous ablation flags.  This module supplies
the family → numpy runner table (:data:`_RUNNERS`).
"""

from __future__ import annotations

import random
from collections.abc import Mapping as _MappingABC
from functools import lru_cache
from itertools import repeat
from time import perf_counter
from time import time as wall_clock
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.errors import ExecutionError
from repro.model.execution import (
    DEFAULT_IDLE_LIMIT,
    DEFAULT_MAX_TIME,
    ExecutionResult,
    effective_idle_limit,
)
from repro.model.kernels import (
    NUMPY_ENV_FLAG,
    build_kernels,
    load_numpy,
    numpy_accelerated,
)
from repro.model.schedule import Schedule
from repro.model.topology import Topology
from repro.obs.metrics import active_registry, record_execution
from repro.obs.trace import is_recording, record_timed

__all__ = [
    "NUMPY_ENV_FLAG",
    "load_numpy",
    "numpy_accelerated",
    "MTBatch",
    "batched_steps",
    "build_batch_kernel",
    "run_batch",
    "run_single_batch",
]

#: ``r = ∞`` sentinel of the numpy tier: the green-light counter lives
#: in an int64 lane, and every real counter value is tiny, so a huge
#: finite sentinel preserves all comparisons; it is translated back to
#: ``math.inf`` when results are materialized.
_INF64 = 1 << 62


# ----------------------------------------------------------------------
# A bank of CPython-identical MT19937 streams
# ----------------------------------------------------------------------

@lru_cache(maxsize=512)
def _mt_state(seed) -> Tuple[Any, int]:
    """The freshly-seeded MT19937 state of ``random.Random(seed)``.

    Returns the 624-word key (as uint32, ready for ``set_state``) and
    the initial position.  A pure function of the seed — and campaigns
    reuse the same seed grid across algorithms and input families — so
    the expansion is memoized; ``set_state`` copies the key, keeping
    the cached array immutable.
    """
    import numpy as np  # guarded by the MTBatch constructor

    words = random.Random(seed).getstate()[1]
    return np.asarray(words[:624], dtype=np.uint32), words[624]


class MTBatch:
    """A bank of ``B`` CPython-identical Mersenne Twister streams.

    Stream ``i`` reproduces ``random.Random(seeds[i]).random()`` *bit
    for bit*: CPython and numpy's legacy ``RandomState`` share the same
    MT19937 core and the same 53-bit ``genrand_res53`` double
    construction, so lifting the 624-word state (plus position) out of
    ``random.Random.getstate()`` and injecting it into a
    ``RandomState`` yields the exact scalar stream at C speed.  This is
    what lets the batched Bernoulli scheduler draw whole activation
    matrices while consuming exactly the RNG stream the scalar
    scheduler would — the equivalence harness diffs this replica by
    replica.

    Streams consume independently (Bernoulli redraws desynchronize
    them); each ``RandomState`` keeps its own position.  Doubles are
    drawn from the underlying generators in blocks of ``block``
    requests and buffered per stream: the *served* sequence is still
    exactly the scalar stream, double for double, and the streams are
    private to one batch run, so drawing ahead is unobservable.
    """

    #: Free list of ``RandomState`` shells shared by all banks —
    #: constructing one runs full ``seed(0)`` initialization (~0.15 ms)
    #: only to have its state overwritten, so retired shells are
    #: recycled instead.  ``set_state`` runs before every reuse.
    _pool: List[Any] = []

    def __init__(self, seeds: Sequence[int], np=None, block: int = 8):
        self._np = np = np if np is not None else load_numpy()
        if np is None:
            raise ExecutionError("MTBatch requires the numpy accelerator")
        self._block = max(1, block)
        pool = MTBatch._pool
        self._streams = []
        self._buffers: List[Any] = []
        for seed in seeds:
            key, pos = _mt_state(seed)
            stream = pool.pop() if pool else np.random.RandomState(0)
            stream.set_state(("MT19937", key, pos))
            self._streams.append(stream)
            self._buffers.append(None)

    def retire(self, row: int) -> None:
        """Hint that one stream will never be consumed again."""
        stream = self._streams[row]
        if stream is not None and len(MTBatch._pool) < 256:
            MTBatch._pool.append(stream)
        self._streams[row] = None
        self._buffers[row] = None

    def __del__(self):
        # A bank is dropped mid-iteration when its run ends before its
        # schedules do; recycle the shells it still holds.
        try:
            pool = MTBatch._pool
            for stream in self._streams:
                if stream is not None and len(pool) < 256:
                    pool.append(stream)
        except Exception:  # pragma: no cover - interpreter shutdown
            pass

    def take(self, rows: Sequence[int], count: int):
        """``(len(rows), count)`` fresh doubles, one row per stream.

        Serves ``count`` doubles from each listed stream, exactly the
        values ``count`` calls of ``random.Random.random`` would
        produce next.
        """
        np = self._np
        out = np.empty((len(rows), count), dtype=np.float64)
        for k, row in enumerate(rows):
            buf = self._buffers[row]
            if buf is None or buf.shape[0] < count:
                have = 0 if buf is None else buf.shape[0]
                fresh = self._streams[row].random_sample(
                    max(count - have, count * self._block)
                )
                buf = fresh if not have else np.concatenate((buf, fresh))
            out[k] = buf[:count]
            self._buffers[row] = buf[count:]
        return out


# ----------------------------------------------------------------------
# Merging per-type steps_batch generators into one lockstep stream
# ----------------------------------------------------------------------

class _GroupActive:
    """Group-local, read-only view of the engine's live-replica flags.

    ``steps_batch`` implementations consult this so that retired
    replicas stop consuming their schedule (and RNG) streams, exactly
    like the per-run engines stop iterating a finished run's schedule.
    """

    __slots__ = ("_flags", "_indices")

    def __init__(self, flags: List[bool], indices: List[int]):
        self._flags = flags
        self._indices = indices

    def __len__(self) -> int:
        return len(self._indices)

    def __getitem__(self, i: int) -> bool:
        return self._flags[self._indices[i]]


def batched_steps(schedules: Sequence[Schedule], n: int, flags: List[bool]):
    """Merge per-replica schedules into one per-lockstep row stream.

    Groups the schedules by *exact* type (mirroring kernel dispatch: a
    subclass may override iteration semantics, so it gets its own
    group, served by whatever ``steps_batch`` it inherits or defines)
    and drives one :meth:`~repro.model.schedule.Schedule.steps_batch`
    generator per group.  Yields, per lockstep, a list with one row
    per replica: ``None`` for an exhausted (or already retired)
    schedule, otherwise an activation row (id sequence or bool mask).

    ``flags`` is the engine-owned liveness list; the per-group
    generators see it through a read-only view and must not advance
    the streams of retired replicas.
    """
    groups: Dict[Type, List[int]] = {}
    for j, schedule in enumerate(schedules):
        groups.setdefault(type(schedule), []).append(j)
    gens = []
    for sched_type, indices in groups.items():
        gen = sched_type.steps_batch(
            [schedules[j] for j in indices], n, _GroupActive(flags, indices)
        )
        gens.append((indices, gen))
    B = len(schedules)
    while True:
        rows: List[Any] = [None] * B
        for indices, gen in gens:
            group_rows = next(gen)
            for k, j in enumerate(indices):
                rows[j] = group_rows[k]
        yield rows


# ----------------------------------------------------------------------
# Building a batch kernel
# ----------------------------------------------------------------------

def build_batch_kernel(
    algorithms: Sequence[Any], topology: Topology, inputs_list: Sequence[Sequence[Any]]
):
    """The batched runner for this replica ensemble, or ``None``.

    ``runner(schedules, max_time, idle_limit)`` returns ``(results,
    stats)`` — one ``ExecutionResult`` per replica plus the occupancy
    statistics ``{"locksteps": int, "live_sum": int}``.  Mixed types,
    unregistered types and configurations the shared build path
    declines all yield ``None`` (callers fall back to per-run
    execution).
    """
    built = build_kernels(algorithms, topology, inputs_list, vector=_RUNNERS)
    if built is None:
        return None
    tier, kernel = built
    return kernel if tier == "vector" else _scalar_replicas(kernel)


def _scalar_replicas(kernels: List[Callable]):
    """The pure tier: each replica through its scalar kernel in turn.

    Bit-identical by construction.  Occupancy is reported as if the
    replicas had run in lockstep: ``max`` of the final times is the
    lockstep count, their sum the live replica-steps.
    """

    def run(schedules, max_time, idle_limit):
        results = [
            kernel(schedule, max_time, idle_limit)
            for kernel, schedule in zip(kernels, schedules)
        ]
        times = [result.final_time for result in results]
        return results, {"locksteps": max(times), "live_sum": sum(times)}

    return run


def _row_to_ids(row: Any) -> Sequence[int]:
    """Normalize a steps_batch row (id sequence or bool mask) to ids."""
    if isinstance(row, (list, tuple, range, frozenset, set)):
        return row
    return row.nonzero()[0].tolist()


# ----------------------------------------------------------------------
# Lockstep driver (bookkeeping shared by both kernel families)
# ----------------------------------------------------------------------

def _drive_numpy(np, schedules, n, B, max_time, idle_limit, undone,
                 remaining, step_cells):
    """Numpy lockstep driver: assemble masks, retire replicas, step.

    Per-replica clocks replicate the scalar kernel loop exactly: a
    ``None`` row ends the run without advancing time; stepping past
    ``max_time`` rolls time back and flags exhaustion; a step whose
    working set is empty only bumps the idle streak.  A replica is
    retired the moment nothing remains for it — matching the scalar
    engine, whose next drawn step would be discarded unused.

    The working set is handed to ``step_cells`` as *flat* cell indices
    into the kernels' ``B × (n + 1)`` planes (column ``n`` is the
    kernels' sentinel slot and never activates), together with the
    replica index of each cell and the per-replica clock vector —
    compact arrays sized by the live frontier, not by ``B × n``.
    ``undone`` is the kernel-owned not-yet-returned plane.
    """
    N1 = n + 1
    flags = [True] * B
    times = [0] * B
    idle = [0] * B
    exhausted = [False] * B
    live = B
    locksteps = 0
    live_sum = 0
    W = np.zeros((B, N1), dtype=bool)
    Wn = W[:, :n]
    Wf = W.reshape(-1)
    tvec = np.zeros(B, dtype=np.int64)
    merged = batched_steps(schedules, n, flags)
    while live:
        rows = next(merged)
        locksteps += 1
        live_sum += live
        W[:] = False
        stepping = []
        for b in range(B):
            if not flags[b]:
                continue
            row = rows[b]
            if row is None:
                flags[b] = False
                live -= 1
                continue
            if times[b] >= max_time:
                exhausted[b] = True
                flags[b] = False
                live -= 1
                continue
            times[b] += 1
            tvec[b] = times[b]
            if isinstance(row, np.ndarray):
                Wn[b] = row
            else:
                Wn[b, list(row)] = True
            stepping.append(b)
        if not stepping:
            continue
        np.logical_and(W, undone, out=W)
        wc = W.sum(axis=1)
        any_work = False
        for b in stepping:
            if wc[b] == 0:
                idle[b] += 1
                if idle_limit and idle[b] >= idle_limit:
                    flags[b] = False
                    live -= 1
            else:
                idle[b] = 0
                any_work = True
        if not any_work:
            continue
        flat = np.flatnonzero(Wf)
        step_cells(flat, flat // N1, tvec)
        for b in stepping:
            if wc[b] and remaining[b] == 0:
                flags[b] = False
                live -= 1
    return times, exhausted, {"locksteps": locksteps, "live_sum": live_sum}


# ----------------------------------------------------------------------
# Vectorized primitives shared by the numpy kernel families
# ----------------------------------------------------------------------

class _LazyMapping(_MappingABC):
    """A result mapping materialized on first access.

    Building the per-replica result dicts (outputs, return times,
    activation counts, ``n`` NamedTuple final states) costs more than
    the whole lockstep compute on fast-terminating ensembles, and most
    consumers read only a slice of them — so the numpy tier defers
    construction until something actually looks.  Equality with plain
    dicts works in both directions: ``dict.__eq__`` returns
    ``NotImplemented`` for a non-dict operand, handing control to this
    class, which materializes and compares values — exactly what the
    differential harness exercises.
    """

    __slots__ = ("_build", "_states")

    def __init__(self, build: Callable[[], Dict[int, Any]]):
        self._build = build
        self._states: Optional[Dict[int, Any]] = None

    def _materialize(self) -> Dict[int, Any]:
        if self._states is None:
            self._states = self._build()
            self._build = None
        return self._states

    def __getitem__(self, key):
        return self._materialize()[key]

    def __iter__(self):
        return iter(self._materialize())

    def __len__(self) -> int:
        return len(self._materialize())

    def __contains__(self, key) -> bool:
        return key in self._materialize()

    def __eq__(self, other) -> Any:
        if isinstance(other, _LazyMapping):
            other = other._materialize()
        if not isinstance(other, _MappingABC):
            return NotImplemented
        if not isinstance(other, dict):
            other = dict(other)
        return self._materialize() == other

    def __ne__(self, other) -> Any:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __repr__(self) -> str:
        return repr(self._materialize())


def _mex_bits(np, mask):
    """mex of the values marked taken in a per-cell bitmask.

    ``mask`` has bit ``v + 1`` set when value ``v`` is taken (so a −1
    "absent" candidate lands on bit 0, which is forced set and
    ignored).  The mex is then the position of the lowest clear bit
    above bit 0, minus one — isolated with two's-complement arithmetic
    and read off the ``frexp`` exponent.  Exact while candidates stay
    below 52 (register colors are bounded by the palettes, ≤ 5).
    """
    filled = mask | 1
    low = ~filled & (filled + 1)
    return np.frexp(low.astype(np.float64))[1] - 2


def _mex_np(np, candidates):
    """Vectorized mex over per-cell candidate arrays (−1 = absent).

    With ``k`` candidates the mex is at most ``k``, and each pass
    advances ``v`` by exactly one while ``v`` is still taken, so ``k``
    passes always converge.
    """
    stacked = np.stack(candidates)
    v = np.zeros(stacked.shape[1], dtype=np.int64)
    for _ in range(len(candidates)):
        v += (stacked == v).any(axis=0)
    return v


def _rid_np(np, x, y):
    """Vectorized :func:`repro.core.coin_tossing.reduce_identifier`.

    Bit lengths come from ``frexp`` exponents, exact only below
    ``2**53`` — the factories gate identifiers accordingly.
    """
    blx = np.frexp(x.astype(np.float64))[1].astype(np.int64)
    bly = np.frexp(y.astype(np.float64))[1].astype(np.int64)
    cap = np.minimum(blx, bly)
    diff = x ^ y
    lsb_len = np.frexp((diff & -diff).astype(np.float64))[1].astype(np.int64)
    i = np.where(diff == 0, cap, np.minimum(cap, lsb_len - 1))
    return 2 * i + ((x >> i) & 1)


# ----------------------------------------------------------------------
# Algorithms 2 and 3, batched: the (x, a, b[, r]) register family
# ----------------------------------------------------------------------

def _numpy_ab_runner(np, nb1, nb2, init_x, *, reduction,
                     green_light=True, guarded_adoption=True):
    """Batched fused loop for Algorithm 2 / Algorithm 3 replicas."""
    # State and register planes are flat int64 arrays of length
    # ``B × (n + 1)``: cell (b, p) lives at ``b·(n+1) + p`` and column
    # ``n`` of every replica is a permanent sentinel cell standing in
    # for absent *and* not-yet-awake neighbors.  The whole (x, a, b)
    # triple is packed into one word, ``x << 6 | a << 3 | b`` — ids are
    # < 2⁵³ (gated by the shared build path) and colors are ≤ 4, so
    # each field is exact and the register sentinel −1 unpacks under
    # arithmetic shifts to x = −1, a = b = 7, values no real state can
    # take: awakeness reduces to ``x1 >= 0``, a color never equals 7,
    # and the two-/one-/zero-awake-neighbor arms of the scalar kernel
    # collapse into one vector expression.  Packing means publishing a
    # register image is one gather plus one scatter, and reading a
    # neighbor is one gather.  All per-lockstep work happens on compact
    # frontier-sized arrays via ``take`` / fancy scatters — never on
    # boolean-masked (B, n) planes — and activation counting is
    # deferred to a single :func:`numpy.bincount` over the concatenated
    # frontiers at the end of the run.
    from repro.core.coloring5 import FiveState
    from repro.core.fast_coloring5 import FastState, INFINITE_ROUND

    B, n = init_x.shape
    N1 = n + 1
    size = B * N1
    nb1a = np.asarray(nb1, dtype=np.int64)
    nb2a = np.asarray(nb2, dtype=np.int64)
    q1t = np.where(nb1a >= 0, nb1a, n)  # absent neighbor → sentinel slot
    q2t = np.where(nb2a >= 0, nb2a, n)

    def run(schedules, max_time, idle_limit):
        sP = np.zeros(size, dtype=np.int64)
        sP.reshape(B, N1)[:, :n] = init_x << 6  # a = b = 0 initially
        sr = np.zeros(size, dtype=np.int64)
        rP = np.full(size, -1, dtype=np.int64)
        rr = np.full(size, -1, dtype=np.int64)
        undone = np.zeros((B, N1), dtype=bool)
        undone[:, :n] = True
        undone_f = undone.reshape(-1)
        out_c = np.zeros(size, dtype=np.int64)
        ret_time = np.zeros(size, dtype=np.int64)
        remaining = np.full(B, n, dtype=np.int64)
        frontiers: List[Any] = []

        def step_cells(flat, bidx, tvec):
            p = flat - bidx * N1
            base = flat - p
            q1f = base + q1t.take(p)
            q2f = base + q2t.take(p)
            # Phase 1: publish the packed register image, keeping the
            # gathered word for the read/update phases.
            v = sP.take(flat)
            rP[flat] = v
            if reduction:
                rw = sr.take(flat)
                rr[flat] = rw
            frontiers.append(flat)
            # Phase 2: read both neighbors' packed images.
            g1 = rP.take(q1f)
            g2 = rP.take(q2f)
            aw = (v >> 3) & 7
            bw = v & 7
            a1 = (g1 >> 3) & 7
            b1 = g1 & 7
            a2 = (g2 >> 3) & 7
            b2 = g2 & 7
            ok_a = (aw != a1) & (aw != b1) & (aw != a2) & (aw != b2)
            ok_b = (bw != a1) & (bw != b1) & (bw != a2) & (bw != b2)
            ret = ok_a | ok_b
            if ret.any():
                rsel = flat[ret]
                rbx = bidx[ret]
                out_c[rsel] = np.where(ok_a, aw, bw)[ret]
                ret_time[rsel] = tvec.take(rbx)
                undone_f[rsel] = False
                remaining[:] -= np.bincount(rbx, minlength=B)
            cont = ~ret
            if not cont.any():
                return
            csel = flat[cont]
            xc = v[cont] >> 6
            x1 = g1[cont] >> 6  # sentinel −1 shifts to −1
            x2 = g2[cont] >> 6
            a1c = a1[cont]
            b1c = b1[cont]
            a2c = a2[cont]
            b2c = b2[cont]
            hi1 = x1 > xc  # asleep/absent ⇒ x1 = −1 ⇒ never "higher"
            hi2 = x2 > xc
            bb1 = (1 << (a1c + 1)) | (1 << (b1c + 1))
            bb2 = (1 << (a2c + 1)) | (1 << (b2c + 1))
            na = _mex_bits(
                np, np.where(hi1, bb1, 0) | np.where(hi2, bb2, 0)
            )
            nb = _mex_bits(np, bb1 | bb2)

            if reduction:
                rc = rw[cont]
                red = (x1 >= 0) & (x2 >= 0) & (rc < _INF64)
                if green_light:
                    red &= rc <= np.minimum(
                        rr.take(q1f[cont]), rr.take(q2f[cont])
                    )
                if red.any():
                    # ``xc`` is a fresh shifted array (not a view), and
                    # the mid/ext index sets are disjoint, so adopted
                    # identifiers can be written into it in place.
                    lo = np.minimum(x1, x2)
                    hi = np.maximum(x1, x2)
                    inside = (lo < xc) & (xc < hi)
                    mid = red & inside
                    if mid.any():
                        midx = np.flatnonzero(mid)
                        lom = lo.take(midx)
                        sr[csel.take(midx)] = rc.take(midx) + 1
                        cand = _rid_np(np, xc.take(midx), lom)
                        if guarded_adoption:
                            adopt = cand < lom
                            xc[midx[adopt]] = cand[adopt]
                        else:
                            xc[midx] = cand
                    ext = red & ~inside
                    if ext.any():
                        eidx = np.flatnonzero(ext)
                        sr[csel.take(eidx)] = _INF64
                        xe = xc.take(eidx)
                        low = xe < lo.take(eidx)
                        if low.any():
                            lidx = eidx[low]
                            xl = xe[low]
                            f1 = _rid_np(np, x1.take(lidx), xl)
                            f2 = _rid_np(np, x2.take(lidx), xl)
                            vv = np.zeros(len(xl), dtype=np.int64)
                            for _ in range(2):
                                vv += (vv == f1) | (vv == f2)
                            adopt = vv < xl
                            xc[lidx[adopt]] = vv[adopt]

            sP[csel] = (xc << 6) | (na << 3) | nb

        times, exhausted, stats = _drive_numpy(
            np, schedules, n, B, max_time, idle_limit, undone, remaining,
            step_cells,
        )

        if frontiers:
            act = np.bincount(np.concatenate(frontiers), minlength=size)
        else:
            act = np.zeros(size, dtype=np.int64)

        results = []
        ids = list(range(n))
        SP = sP.reshape(B, N1)
        SR = sr.reshape(B, N1)
        ACT = act.reshape(B, N1)
        OUT = out_c.reshape(B, N1)
        RT = ret_time.reshape(B, N1)
        for bi in range(B):
            # Every result mapping materializes lazily: consumers
            # typically read one or two of them (often none), and the
            # rows stay alive inside the closures either way.
            def build_outputs(bi=bi):
                pret = np.flatnonzero(~undone[bi, :n])
                return dict(zip(pret.tolist(), OUT[bi, pret].tolist()))

            def build_return_times(bi=bi):
                pret = np.flatnonzero(~undone[bi, :n])
                return dict(zip(pret.tolist(), RT[bi, pret].tolist()))

            def build_activations(bi=bi):
                return dict(zip(ids, ACT[bi, :n].tolist()))

            # tuple.__new__ builds the NamedTuples without entering
            # their generated __new__ — same objects, C-speed.
            def build_states(row=SP[bi, :n], rrow=SR[bi, :n]):
                xs = (row >> 6).tolist()
                as_ = ((row >> 3) & 7).tolist()
                bs = (row & 7).tolist()
                if reduction:
                    rs = [
                        r if r < _INF64 else INFINITE_ROUND
                        for r in rrow.tolist()
                    ]
                    return dict(zip(ids, map(
                        tuple.__new__, repeat(FastState),
                        zip(xs, rs, as_, bs),
                    )))
                return dict(zip(ids, map(
                    tuple.__new__, repeat(FiveState), zip(xs, as_, bs)
                )))

            results.append(ExecutionResult(
                n=n,
                outputs=_LazyMapping(build_outputs),
                activations=_LazyMapping(build_activations),
                return_times=_LazyMapping(build_return_times),
                final_time=times[bi],
                time_exhausted=exhausted[bi],
                trace=None,
                final_states=_LazyMapping(build_states),
            ))
        return results, stats

    return run


# ----------------------------------------------------------------------
# Algorithms 1 and fast-6, batched: the (x, (a, b) pair[, r]) family
# ----------------------------------------------------------------------

def _numpy_pair_runner(np, nb1, nb2, init_x, *, reduction,
                       green_light=True):
    """Batched fused loop for Algorithm 1 / fast-six replicas."""
    # Same packed flat ``B × (n + 1)`` plane layout as the ab family
    # (see :func:`_numpy_ab_runner`): one int64 word ``x << 6 | a << 3
    # | b`` per cell, sentinel −1 unpacking to x = −1, a = b = 7 — a
    # neighbor is awake exactly when its published ``x`` is ≥ 0, and
    # the clash test needs no awakeness mask at all (a 7 register field
    # never equals a real color, which is ≤ 2 in this family).
    from repro.core.coloring6 import SixState
    from repro.extensions.fast_six import FastSixState, INFINITE_ROUND

    B, n = init_x.shape
    N1 = n + 1
    size = B * N1
    nb1a = np.asarray(nb1, dtype=np.int64)
    nb2a = np.asarray(nb2, dtype=np.int64)
    q1t = np.where(nb1a >= 0, nb1a, n)
    q2t = np.where(nb2a >= 0, nb2a, n)

    def run(schedules, max_time, idle_limit):
        sP = np.zeros(size, dtype=np.int64)
        sP.reshape(B, N1)[:, :n] = init_x << 6  # a = b = 0 initially
        sr = np.zeros(size, dtype=np.int64)
        rP = np.full(size, -1, dtype=np.int64)
        rr = np.full(size, -1, dtype=np.int64)
        undone = np.zeros((B, N1), dtype=bool)
        undone[:, :n] = True
        undone_f = undone.reshape(-1)
        out_a = np.zeros(size, dtype=np.int64)
        out_b = np.zeros(size, dtype=np.int64)
        ret_time = np.zeros(size, dtype=np.int64)
        remaining = np.full(B, n, dtype=np.int64)
        frontiers: List[Any] = []

        def step_cells(flat, bidx, tvec):
            p = flat - bidx * N1
            base = flat - p
            q1f = base + q1t.take(p)
            q2f = base + q2t.take(p)
            v = sP.take(flat)
            rP[flat] = v
            if reduction:
                rw = sr.take(flat)
                rr[flat] = rw
            frontiers.append(flat)
            g1 = rP.take(q1f)
            g2 = rP.take(q2f)
            aw = (v >> 3) & 7
            bw = v & 7
            a1 = (g1 >> 3) & 7
            b1 = g1 & 7
            a2 = (g2 >> 3) & 7
            b2 = g2 & 7
            clash = ((aw == a1) & (bw == b1)) | ((aw == a2) & (bw == b2))
            ret = ~clash
            if ret.any():
                rsel = flat[ret]
                rbx = bidx[ret]
                out_a[rsel] = aw[ret]
                out_b[rsel] = bw[ret]
                ret_time[rsel] = tvec.take(rbx)
                undone_f[rsel] = False
                remaining[:] -= np.bincount(rbx, minlength=B)
            if not clash.any():
                return
            cont = clash
            csel = flat[cont]
            xc = v[cont] >> 6
            x1 = g1[cont] >> 6  # sentinel −1 shifts to −1
            x2 = g2[cont] >> 6
            a1c = a1[cont]
            b1c = b1[cont]
            a2c = a2[cont]
            b2c = b2[cont]
            hi1 = x1 > xc  # asleep/absent ⇒ x1 = −1 ⇒ never "higher"
            hi2 = x2 > xc
            na = _mex_bits(np, (
                np.where(hi1, 1 << (a1c + 1), 0)
                | np.where(hi2, 1 << (a2c + 1), 0)
            ))
            lo1 = (x1 >= 0) & (x1 < xc)
            lo2 = (x2 >= 0) & (x2 < xc)
            nb = _mex_bits(np, (
                np.where(lo1, 1 << (b1c + 1), 0)
                | np.where(lo2, 1 << (b2c + 1), 0)
            ))

            if reduction:
                rc = rw[cont]
                red = (x1 >= 0) & (x2 >= 0) & (rc < _INF64)
                if green_light:
                    red &= rc <= np.minimum(
                        rr.take(q1f[cont]), rr.take(q2f[cont])
                    )
                if red.any():
                    # ``xc`` is a fresh shifted array and the mid/ext
                    # index sets are disjoint — adopt in place.
                    lo = np.minimum(x1, x2)
                    hi = np.maximum(x1, x2)
                    inside = (lo < xc) & (xc < hi)
                    mid = red & inside
                    if mid.any():
                        midx = np.flatnonzero(mid)
                        lom = lo.take(midx)
                        sr[csel.take(midx)] = rc.take(midx) + 1
                        cand = _rid_np(np, xc.take(midx), lom)
                        adopt = cand < lom
                        xc[midx[adopt]] = cand[adopt]
                    ext = red & ~inside
                    if ext.any():
                        eidx = np.flatnonzero(ext)
                        sr[csel.take(eidx)] = _INF64
                        xe = xc.take(eidx)
                        low = xe < lo.take(eidx)
                        if low.any():
                            lidx = eidx[low]
                            xl = xe[low]
                            f1 = _rid_np(np, x1.take(lidx), xl)
                            f2 = _rid_np(np, x2.take(lidx), xl)
                            vv = np.zeros(len(xl), dtype=np.int64)
                            for _ in range(2):
                                vv += (vv == f1) | (vv == f2)
                            adopt = vv < xl
                            xc[lidx[adopt]] = vv[adopt]

            sP[csel] = (xc << 6) | (na << 3) | nb

        times, exhausted, stats = _drive_numpy(
            np, schedules, n, B, max_time, idle_limit, undone, remaining,
            step_cells,
        )

        if frontiers:
            act = np.bincount(np.concatenate(frontiers), minlength=size)
        else:
            act = np.zeros(size, dtype=np.int64)

        results = []
        ids = list(range(n))
        SP = sP.reshape(B, N1)
        SR = sr.reshape(B, N1)
        ACT = act.reshape(B, N1)
        OUTA = out_a.reshape(B, N1)
        OUTB = out_b.reshape(B, N1)
        RT = ret_time.reshape(B, N1)
        for bi in range(B):
            def build_outputs(bi=bi):
                pret = np.flatnonzero(~undone[bi, :n])
                return dict(zip(
                    pret.tolist(),
                    zip(OUTA[bi, pret].tolist(), OUTB[bi, pret].tolist()),
                ))

            def build_return_times(bi=bi):
                pret = np.flatnonzero(~undone[bi, :n])
                return dict(zip(pret.tolist(), RT[bi, pret].tolist()))

            def build_activations(bi=bi):
                return dict(zip(ids, ACT[bi, :n].tolist()))

            def build_states(row=SP[bi, :n], rrow=SR[bi, :n]):
                xs = (row >> 6).tolist()
                as_ = ((row >> 3) & 7).tolist()
                bs = (row & 7).tolist()
                if reduction:
                    rs = [
                        r if r < _INF64 else INFINITE_ROUND
                        for r in rrow.tolist()
                    ]
                    return dict(zip(ids, map(
                        tuple.__new__, repeat(FastSixState),
                        zip(xs, rs, as_, bs),
                    )))
                return dict(zip(ids, map(
                    tuple.__new__, repeat(SixState), zip(xs, as_, bs)
                )))

            results.append(ExecutionResult(
                n=n,
                outputs=_LazyMapping(build_outputs),
                activations=_LazyMapping(build_activations),
                return_times=_LazyMapping(build_return_times),
                final_time=times[bi],
                time_exhausted=exhausted[bi],
                trace=None,
                final_states=_LazyMapping(build_states),
            ))
        return results, stats

    return run


#: Family → numpy runner, for :func:`repro.model.kernels.build_kernels`.
_RUNNERS = {"ab": _numpy_ab_runner, "pair": _numpy_pair_runner}


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------

def run_batch(
    algorithms: Sequence[Any],
    topology: Topology,
    inputs_list: Sequence[Sequence[Any]],
    schedules: Sequence[Schedule],
    *,
    max_time: int = DEFAULT_MAX_TIME,
    idle_limit: int = DEFAULT_IDLE_LIMIT,
) -> Optional[List[ExecutionResult]]:
    """Run ``B`` replicas of one configuration in lockstep.

    Replica ``i`` is ``(algorithms[i], inputs_list[i], schedules[i])``
    over the shared ``topology``; the returned list holds one
    :class:`~repro.model.execution.ExecutionResult` per replica,
    bit-identical to what the per-run engines would produce.  Returns
    ``None`` when no batched kernel covers this configuration (mixed
    or unregistered algorithm types, unsupported topology) — callers
    fall back to per-run execution.

    Ragged shapes are handled per replica: each retires independently
    on termination, schedule exhaustion, ``max_time`` (its own clock)
    or the idle cutoff (:func:`~repro.model.execution.
    effective_idle_limit`), and its schedule stream stops being
    consumed from that point on.
    """
    B = len(algorithms)
    if B == 0:
        return []
    if len(inputs_list) != B or len(schedules) != B:
        raise ExecutionError(
            "run_batch: algorithms, inputs_list and schedules must have "
            f"equal lengths (got {B}, {len(inputs_list)}, {len(schedules)})"
        )
    n = topology.n
    inputs_list = [list(inputs) for inputs in inputs_list]
    for inputs in inputs_list:
        if len(inputs) != n:
            raise ExecutionError(
                f"expected {n} inputs per replica, got {len(inputs)}"
            )
    kernel = build_batch_kernel(algorithms, topology, inputs_list)
    if kernel is None:
        return None
    idle_limit = effective_idle_limit(idle_limit, n)
    registry = active_registry()
    if registry is None and not is_recording():
        results, _stats = kernel(schedules, max_time, idle_limit)
        return results
    started = perf_counter()
    wall = wall_clock()
    results, stats = kernel(schedules, max_time, idle_limit)
    elapsed = perf_counter() - started
    locksteps = stats["locksteps"]
    occupancy = stats["live_sum"] / (locksteps * B) if locksteps else 0.0
    if registry is not None:
        registry.observe("batch_replicas", B)
        registry.observe("batch_occupancy", occupancy)
        registry.observe("batch_run_seconds", elapsed)
        for algorithm, result in zip(algorithms, results):
            record_execution(
                registry, "batch", type(algorithm).__name__, result,
                elapsed=elapsed / B,
            )
    record_timed(
        "engine_run", wall, elapsed,
        {"engine": "batch", "replicas": B,
         "occupancy": round(occupancy, 4)},
    )
    return results


def run_single_batch(
    algorithm: Any,
    topology: Topology,
    inputs: Sequence[Any],
    schedule: Schedule,
    *,
    max_time: int = DEFAULT_MAX_TIME,
    idle_limit: int = DEFAULT_IDLE_LIMIT,
) -> Optional[ExecutionResult]:
    """One replica through the batch engine (B = 1), or ``None``."""
    results = run_batch(
        [algorithm], topology, [list(inputs)], [schedule],
        max_time=max_time, idle_limit=idle_limit,
    )
    return results[0] if results else None
