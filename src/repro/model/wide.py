"""The wide engine: node-vectorized single-run execution.

The fast engine (:mod:`repro.model.fastpath`) retires one activation at
a time; the batch engine (:mod:`repro.model.batch`) vectorizes *across
replicas* but still advances each replica activation by activation.
This module vectorizes *within one run*: an entire activation set is
executed per Python-level step, which is what makes single executions
at ``n = 10⁶⁺`` tractable — the regime where the paper's ``⌊3n/2⌋+4``
/ ``O(n)`` / ``O(log* n)`` scaling claims (Theorems 3.1 and 4.1) stop
being measurable under a per-activation interpreter loop.

Design:

* **Structure-of-arrays int64 planes.**  Per-process state and
  register images live in flat int64/bool arrays of length ``n + 1``
  over the topology; column ``n`` is a permanent sentinel cell
  standing in for absent neighbors (its register ``x`` stays −1 and
  its colors stay 7, values no real process can publish, so the
  degree-0/1/2 arms of the scalar kernels collapse into one vector
  expression exactly as in the batch engine).
* **Rounds as gathers/scatters.**  One activation set executes as the
  paper's Equation (1): publish every activated register (scatter),
  read both neighbors of every activated process (two gathers via the
  precomputed :func:`repro.model.kernels._degree2_arrays` index
  arrays), then the private updates as vector arithmetic.
* **Frontier compaction.**  A ``undone`` plane masks every activation
  set down to the processes still working, so terminated (and crashed
  — a crashed process simply stops appearing) nodes drop out of the
  working set and all per-step arrays are sized by the live frontier.
* **Dense-step detection.**  Vectorized steps carry fixed numpy
  dispatch overhead, so only activation sets of at least
  :data:`DENSE_STEP_MIN` working processes take the vector path;
  sparse sets fall through to a scalar per-process loop equivalent to
  the fastpath kernels, over the same planes.  Synchronous and
  high-occupancy Bernoulli schedules therefore run almost entirely
  vectorized, while a ``SoloScheduler`` run degrades to fastpath-style
  execution instead of paying vector overhead per singleton step.
* **numpy strictly optional.**  Without numpy (absent, or disabled via
  the shared ``REPRO_BATCH_DISABLE_NUMPY`` flag), or with identifiers
  outside the exact-int64 range, the run takes the scalar tier: the
  fastpath kernel of :mod:`repro.model.kernels`, bit-identical by
  construction, consuming the schedule through ``steps_fast`` — the
  stream ``steps_wide``'s contract pins.

Correctness discipline is the repo-wide one: results must reproduce
the reference :class:`~repro.model.execution.Executor` *bit
identically* — outputs, activation counts, return times, final time,
``time_exhausted`` and per-process final states — enforced by the
engine-matrix harness in ``tests/model/test_fastpath_equivalence.py``.
Schedules are consumed through
:meth:`~repro.model.schedule.Schedule.steps_wide`, whose vectorized
overrides (synchronous, Bernoulli, uniform-subset) replicate the
scalar schedulers' MT19937 stream consumption draw for draw.

Kernels come from the one registry of :mod:`repro.model.kernels`
(exact algorithm type → register family) through its shared build
path, which declines (``None``) whatever no kernel can guarantee
equivalence for — unregistered types, unsupported topology degree — so
callers fall back to the fast engine.  This module supplies the family
→ numpy runner table (:data:`_RUNNERS`).
"""

from __future__ import annotations

from time import perf_counter
from time import time as wall_clock
from typing import Any, List, Optional

from repro.errors import ExecutionError
from repro.model.batch import _INF64, _LazyMapping, _rid_np
from repro.model.execution import (
    DEFAULT_IDLE_LIMIT,
    DEFAULT_MAX_TIME,
    ExecutionResult,
    effective_idle_limit,
)
from repro.model.kernels import build_kernels
from repro.model.schedule import Schedule
from repro.model.topology import Topology
from repro.obs.metrics import active_registry, record_execution
from repro.obs.trace import is_recording, record_timed

__all__ = [
    "DENSE_STEP_MIN",
    "build_wide_kernel",
    "run_wide",
]

#: Minimum number of *working* processes in an activation set for the
#: vectorized step to pay for its fixed numpy dispatch overhead; below
#: it the engine runs the scalar per-process loop over the same planes.
DENSE_STEP_MIN = 32

def build_wide_kernel(algorithm, topology: Topology, inputs: List[Any]):
    """The wide runner for this configuration, or ``None``.

    ``runner(schedule, max_time, idle_limit)`` returns
    ``(ExecutionResult, stats)`` — ``stats`` holds the tier
    (``"vector"`` or ``"scalar"``), the dense/sparse step split and the
    mean frontier occupancy.
    """
    built = build_kernels([algorithm], topology, [inputs], vector=_RUNNERS)
    if built is None:
        return None
    tier, kernel = built
    return kernel if tier == "vector" else _scalar_tier(kernel[0])


def _scalar_tier(kernel):
    """The scalar kernel, reporting wide's stats (tier ``"scalar"``)."""

    def run(schedule, max_time, idle_limit):
        result = kernel(schedule, max_time, idle_limit)
        stats = {
            "tier": "scalar",
            "dense_steps": 0,
            "sparse_steps": 0,
            "occupancy": 0.0,
        }
        return result, stats

    return run


# ----------------------------------------------------------------------
# Small-alphabet lookup tables
# ----------------------------------------------------------------------

def _wide_luts(np):
    """``(pow2, mexlut)`` for color-bitmask arithmetic.

    Register colors are bounded by the palettes (≤ 5; the asleep
    sentinel is 7), so bitmasks live in bits 1..8 and table gathers
    beat elementwise ``1 << v`` shifts and ``frexp`` lowest-clear-bit
    extraction by an order of magnitude at n = 10⁶.
    """
    pow2 = np.int64(1) << np.arange(16, dtype=np.int64)
    mexlut = np.zeros(1024, dtype=np.int64)
    for j in range(1, 10):
        mexlut[1 << j] = j - 1
    return pow2, mexlut


def _mex_small(np, mexlut, mask):
    """mex of a small-alphabet taken-bitmask (bit ``v + 1`` ⇔ taken).

    Same contract as :func:`repro.model.batch._mex_bits` but for
    values < 9: the isolated lowest clear bit is at most ``2⁹`` and is
    mapped through the lookup table instead of a float ``frexp``.
    """
    filled = mask | 1
    return mexlut.take(~filled & (filled + 1))


# ----------------------------------------------------------------------
# Step-stream driver (clockwork shared by both kernel families)
# ----------------------------------------------------------------------

def _drive_wide(np, schedule, n, undone, step_dense, step_sparse,
                max_time, idle_limit):
    """Consume ``steps_wide``, compact each set against the frontier,
    and route it to the dense (vectorized) or sparse (scalar) step.

    Replicates the scalar kernel loop exactly: drawing a step past
    ``max_time`` rolls time back and flags exhaustion; a step whose
    working set is empty only bumps the idle streak; the run ends when
    every process returned, the schedule is exhausted, or the idle
    cutoff fires.  Returns ``(final_time, time_exhausted, stats)``.
    """
    undone_n = undone[:n]
    remaining = n
    time = 0
    idle = 0
    exhausted = False
    dense_steps = 0
    sparse_steps = 0
    working_sum = 0
    for row in schedule.steps_wide(n):
        if remaining == 0:
            break
        time += 1
        if time > max_time:
            time -= 1
            exhausted = True
            break
        if isinstance(row, np.ndarray):
            flat = np.flatnonzero(row & undone_n)
        else:
            if isinstance(row, (frozenset, set)):
                row = list(row)
            arr = np.asarray(row, dtype=np.int64)
            flat = arr[undone_n[arr]] if arr.size else arr
        wc = int(flat.size)
        if wc == 0:
            idle += 1
            if idle_limit and idle >= idle_limit:
                break
            continue
        idle = 0
        working_sum += wc
        if wc >= DENSE_STEP_MIN:
            dense_steps += 1
            remaining -= step_dense(flat, time)
        else:
            sparse_steps += 1
            remaining -= step_sparse(flat.tolist(), time)
    steps = dense_steps + sparse_steps
    stats = {
        "tier": "vector",
        "dense_steps": dense_steps,
        "sparse_steps": sparse_steps,
        "occupancy": working_sum / (steps * n) if steps else 0.0,
    }
    return time, exhausted, stats


def _wide_result(np, n, undone, act, ret_time, final_time, exhausted,
                 build_outputs, build_states):
    """Assemble the ``ExecutionResult`` with lazily-built mappings."""
    ids = list(range(n))

    def build_return_times():
        pret = np.flatnonzero(~undone[:n])
        return dict(zip(pret.tolist(), ret_time[pret].tolist()))

    def build_activations():
        return dict(zip(ids, act[:n].tolist()))

    return ExecutionResult(
        n=n,
        outputs=_LazyMapping(build_outputs),
        activations=_LazyMapping(build_activations),
        return_times=_LazyMapping(build_return_times),
        final_time=final_time,
        time_exhausted=exhausted,
        trace=None,
        final_states=_LazyMapping(build_states),
    )


# ----------------------------------------------------------------------
# Algorithms 2 and 3, wide: the (x, a, b[, r]) register family
# ----------------------------------------------------------------------

def _numpy_wide_ab_runner(np, nb1, nb2, ids, *, reduction,
                          green_light=True, guarded_adoption=True):
    """Node-vectorized fused loop for Algorithm 2 / Algorithm 3."""
    from repro.core.coin_tossing import reduce_identifier
    from repro.core.coloring5 import FiveState
    from repro.core.fast_coloring5 import FastState, INFINITE_ROUND

    init_x = ids[0]
    n = len(init_x)
    N1 = n + 1
    nb1a = np.asarray(nb1, dtype=np.int64)
    nb2a = np.asarray(nb2, dtype=np.int64)
    q1t = np.where(nb1a >= 0, nb1a, n)  # absent neighbor → sentinel slot
    q2t = np.where(nb2a >= 0, nb2a, n)
    pow2, mexlut = _wide_luts(np)

    def run(schedule, max_time, idle_limit):
        # State planes (private) and register planes (published).  The
        # register sentinel values — x = −1, colors = 7 — make asleep
        # and absent neighbors indistinguishable from the update's
        # point of view, exactly as in the batch engine's packed plane.
        sx = np.zeros(N1, dtype=np.int64)
        sx[:n] = init_x
        sa = np.zeros(N1, dtype=np.int64)
        sb = np.zeros(N1, dtype=np.int64)
        sr = np.zeros(N1, dtype=np.int64)
        rx = np.full(N1, -1, dtype=np.int64)
        ra = np.full(N1, 7, dtype=np.int64)
        rb = np.full(N1, 7, dtype=np.int64)
        rr = np.full(N1, -1, dtype=np.int64)
        undone = np.zeros(N1, dtype=bool)
        undone[:n] = True
        act = np.zeros(N1, dtype=np.int64)
        out_c = np.zeros(N1, dtype=np.int64)
        ret_time = np.zeros(N1, dtype=np.int64)

        def step_dense(flat, time):
            # Phase 1 — publish every activated register image.
            xv = sx.take(flat)
            av = sa.take(flat)
            bv = sb.take(flat)
            rx[flat] = xv
            ra[flat] = av
            rb[flat] = bv
            if reduction:
                rv = sr.take(flat)
                rr[flat] = rv
            act[flat] += 1
            # Phase 2+3 — gather both neighbors, update privately.
            q1f = q1t.take(flat)
            q2f = q2t.take(flat)
            x1 = rx.take(q1f)
            a1 = ra.take(q1f)
            b1 = rb.take(q1f)
            x2 = rx.take(q2f)
            a2 = ra.take(q2f)
            b2 = rb.take(q2f)
            ok_a = (av != a1) & (av != b1) & (av != a2) & (av != b2)
            ok_b = (bv != a1) & (bv != b1) & (bv != a2) & (bv != b2)
            ret = ok_a | ok_b
            nret = int(np.count_nonzero(ret))
            if nret:
                ridx = np.flatnonzero(ret)
                rsel = flat.take(ridx)
                out_c[rsel] = np.where(
                    ok_a.take(ridx), av.take(ridx), bv.take(ridx)
                )
                ret_time[rsel] = time
                undone[rsel] = False
                if nret == len(flat):
                    return nret
            # Index-based extraction (flatnonzero + take) over boolean
            # masking: at n = 10⁶ a fancy gather is ~6× cheaper per
            # array than a mask pass, and nine planes are extracted.
            cidx = np.flatnonzero(~ret)
            csel = flat.take(cidx)
            xc = xv.take(cidx)
            x1c = x1.take(cidx)
            x2c = x2.take(cidx)
            a1c = a1.take(cidx)
            b1c = b1.take(cidx)
            a2c = a2.take(cidx)
            b2c = b2.take(cidx)
            hi1 = x1c > xc  # asleep/absent ⇒ x1 = −1 ⇒ never "higher"
            hi2 = x2c > xc
            bb1 = pow2.take(a1c + 1) | pow2.take(b1c + 1)
            bb2 = pow2.take(a2c + 1) | pow2.take(b2c + 1)
            na = _mex_small(
                np, mexlut, np.where(hi1, bb1, 0) | np.where(hi2, bb2, 0)
            )
            nb = _mex_small(np, mexlut, bb1 | bb2)

            if reduction:
                rc = rv.take(cidx)
                red = (x1c >= 0) & (x2c >= 0) & (rc < _INF64)
                if green_light:
                    red &= rc <= np.minimum(
                        rr.take(q1f.take(cidx)), rr.take(q2f.take(cidx))
                    )
                if red.any():
                    # ``xc`` is a fresh fancy-indexed copy and the
                    # mid/ext index sets are disjoint — adopt in place.
                    lo = np.minimum(x1c, x2c)
                    hi = np.maximum(x1c, x2c)
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
                            f1 = _rid_np(np, x1c.take(lidx), xl)
                            f2 = _rid_np(np, x2c.take(lidx), xl)
                            vv = np.zeros(len(xl), dtype=np.int64)
                            for _ in range(2):
                                vv += (vv == f1) | (vv == f2)
                            adopt = vv < xl
                            xc[lidx[adopt]] = vv[adopt]

            sx[csel] = xc
            sa[csel] = na
            sb[csel] = nb
            return nret

        def step_sparse(working, time):
            # The scalar fastpath kernel's step body over the planes.
            for p in working:
                rx[p] = sx[p]
                ra[p] = sa[p]
                rb[p] = sb[p]
                if reduction:
                    rr[p] = sr[p]
                act[p] += 1
            nret = 0
            for p in working:
                x = int(sx[p])
                a = int(sa[p])
                b = int(sb[p])
                q1 = nb1[p]
                q2 = nb2[p]
                w1 = q1 >= 0 and rx[q1] >= 0
                w2 = q2 >= 0 and rx[q2] >= 0

                if w1 and w2:
                    a1 = int(ra[q1]); b1 = int(rb[q1])
                    a2 = int(ra[q2]); b2 = int(rb[q2])
                    if a != a1 and a != b1 and a != a2 and a != b2:
                        out_c[p] = a; ret_time[p] = time
                        undone[p] = False; nret += 1
                        continue
                    if b != a1 and b != b1 and b != a2 and b != b2:
                        out_c[p] = b; ret_time[p] = time
                        undone[p] = False; nret += 1
                        continue
                    taken_all = {a1, b1, a2, b2}
                    taken_higher = set()
                    if int(rx[q1]) > x:
                        taken_higher.add(a1); taken_higher.add(b1)
                    if int(rx[q2]) > x:
                        taken_higher.add(a2); taken_higher.add(b2)
                elif w1 or w2:
                    q = q1 if w1 else q2
                    aq = int(ra[q]); bq = int(rb[q])
                    if a != aq and a != bq:
                        out_c[p] = a; ret_time[p] = time
                        undone[p] = False; nret += 1
                        continue
                    if b != aq and b != bq:
                        out_c[p] = b; ret_time[p] = time
                        undone[p] = False; nret += 1
                        continue
                    taken_all = {aq, bq}
                    taken_higher = {aq, bq} if int(rx[q]) > x else set()
                else:
                    out_c[p] = a; ret_time[p] = time
                    undone[p] = False; nret += 1
                    continue

                v = 0
                while v in taken_higher:
                    v += 1
                sa[p] = v
                v = 0
                while v in taken_all:
                    v += 1
                sb[p] = v

                if reduction and w1 and w2:
                    r = int(sr[p])
                    if r < _INF64:
                        r1 = int(rr[q1]); r2 = int(rr[q2])
                        if r <= (r1 if r1 < r2 else r2) or not green_light:
                            x1 = int(rx[q1]); x2 = int(rx[q2])
                            lo, hi = (x1, x2) if x1 < x2 else (x2, x1)
                            if lo < x < hi:
                                sr[p] = r + 1
                                candidate = reduce_identifier(x, lo)
                                if candidate < lo or not guarded_adoption:
                                    sx[p] = candidate
                            else:
                                sr[p] = _INF64
                                if x < lo:
                                    f1 = reduce_identifier(x1, x)
                                    f2 = reduce_identifier(x2, x)
                                    v = 0
                                    while v == f1 or v == f2:
                                        v += 1
                                    if v < x:
                                        sx[p] = v
            return nret

        final_time, exhausted, stats = _drive_wide(
            np, schedule, n, undone, step_dense, step_sparse,
            max_time, idle_limit,
        )

        def build_outputs():
            pret = np.flatnonzero(~undone[:n])
            return dict(zip(pret.tolist(), out_c[pret].tolist()))

        def build_states():
            xs = sx[:n].tolist()
            as_ = sa[:n].tolist()
            bs = sb[:n].tolist()
            if reduction:
                rs = [
                    r if r < _INF64 else INFINITE_ROUND
                    for r in sr[:n].tolist()
                ]
                return {
                    p: FastState(x=xs[p], r=rs[p], a=as_[p], b=bs[p])
                    for p in range(n)
                }
            return {
                p: FiveState(x=xs[p], a=as_[p], b=bs[p]) for p in range(n)
            }

        result = _wide_result(
            np, n, undone, act, ret_time, final_time, exhausted,
            build_outputs, build_states,
        )
        return result, stats

    return run


# ----------------------------------------------------------------------
# Algorithms 1 and fast-6, wide: the (x, (a, b) pair[, r]) family
# ----------------------------------------------------------------------

def _numpy_wide_pair_runner(np, nb1, nb2, ids, *, reduction,
                            green_light=True):
    """Node-vectorized fused loop for Algorithm 1 / fast-six."""
    from repro.core.coin_tossing import reduce_identifier
    from repro.core.coloring6 import SixState
    from repro.extensions.fast_six import FastSixState, INFINITE_ROUND

    init_x = ids[0]
    n = len(init_x)
    N1 = n + 1
    nb1a = np.asarray(nb1, dtype=np.int64)
    nb2a = np.asarray(nb2, dtype=np.int64)
    q1t = np.where(nb1a >= 0, nb1a, n)
    q2t = np.where(nb2a >= 0, nb2a, n)
    pow2, mexlut = _wide_luts(np)

    def run(schedule, max_time, idle_limit):
        sx = np.zeros(N1, dtype=np.int64)
        sx[:n] = init_x
        sa = np.zeros(N1, dtype=np.int64)
        sb = np.zeros(N1, dtype=np.int64)
        sr = np.zeros(N1, dtype=np.int64)
        rx = np.full(N1, -1, dtype=np.int64)
        ra = np.full(N1, 7, dtype=np.int64)
        rb = np.full(N1, 7, dtype=np.int64)
        rr = np.full(N1, -1, dtype=np.int64)
        undone = np.zeros(N1, dtype=bool)
        undone[:n] = True
        act = np.zeros(N1, dtype=np.int64)
        out_a = np.zeros(N1, dtype=np.int64)
        out_b = np.zeros(N1, dtype=np.int64)
        ret_time = np.zeros(N1, dtype=np.int64)

        def step_dense(flat, time):
            xv = sx.take(flat)
            av = sa.take(flat)
            bv = sb.take(flat)
            rx[flat] = xv
            ra[flat] = av
            rb[flat] = bv
            if reduction:
                rv = sr.take(flat)
                rr[flat] = rv
            act[flat] += 1
            q1f = q1t.take(flat)
            q2f = q2t.take(flat)
            x1 = rx.take(q1f)
            a1 = ra.take(q1f)
            b1 = rb.take(q1f)
            x2 = rx.take(q2f)
            a2 = ra.take(q2f)
            b2 = rb.take(q2f)
            # Pair return rule: my whole (a, b) differs from every
            # awakened neighbor's pair (asleep ⇒ colors 7 ⇒ no clash).
            clash = ((av == a1) & (bv == b1)) | ((av == a2) & (bv == b2))
            ret = ~clash
            nret = int(np.count_nonzero(ret))
            if nret:
                ridx = np.flatnonzero(ret)
                rsel = flat.take(ridx)
                out_a[rsel] = av.take(ridx)
                out_b[rsel] = bv.take(ridx)
                ret_time[rsel] = time
                undone[rsel] = False
                if nret == len(flat):
                    return nret
            cidx = np.flatnonzero(clash)
            csel = flat.take(cidx)
            xc = xv.take(cidx)
            x1c = x1.take(cidx)
            x2c = x2.take(cidx)
            a1c = a1.take(cidx)
            b1c = b1.take(cidx)
            a2c = a2.take(cidx)
            b2c = b2.take(cidx)
            hi1 = x1c > xc
            hi2 = x2c > xc
            na = _mex_small(np, mexlut, (
                np.where(hi1, pow2.take(a1c + 1), 0)
                | np.where(hi2, pow2.take(a2c + 1), 0)
            ))
            lo1 = (x1c >= 0) & (x1c < xc)
            lo2 = (x2c >= 0) & (x2c < xc)
            nb = _mex_small(np, mexlut, (
                np.where(lo1, pow2.take(b1c + 1), 0)
                | np.where(lo2, pow2.take(b2c + 1), 0)
            ))

            if reduction:
                rc = rv.take(cidx)
                red = (x1c >= 0) & (x2c >= 0) & (rc < _INF64)
                if green_light:
                    red &= rc <= np.minimum(
                        rr.take(q1f.take(cidx)), rr.take(q2f.take(cidx))
                    )
                if red.any():
                    lo = np.minimum(x1c, x2c)
                    hi = np.maximum(x1c, x2c)
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
                            f1 = _rid_np(np, x1c.take(lidx), xl)
                            f2 = _rid_np(np, x2c.take(lidx), xl)
                            vv = np.zeros(len(xl), dtype=np.int64)
                            for _ in range(2):
                                vv += (vv == f1) | (vv == f2)
                            adopt = vv < xl
                            xc[lidx[adopt]] = vv[adopt]

            sx[csel] = xc
            sa[csel] = na
            sb[csel] = nb
            return nret

        def step_sparse(working, time):
            for p in working:
                rx[p] = sx[p]
                ra[p] = sa[p]
                rb[p] = sb[p]
                if reduction:
                    rr[p] = sr[p]
                act[p] += 1
            nret = 0
            for p in working:
                x = int(sx[p])
                a = int(sa[p])
                b = int(sb[p])
                q1 = nb1[p]
                q2 = nb2[p]
                w1 = q1 >= 0 and rx[q1] >= 0
                w2 = q2 >= 0 and rx[q2] >= 0

                clash = (
                    (w1 and a == ra[q1] and b == rb[q1])
                    or (w2 and a == ra[q2] and b == rb[q2])
                )
                if not clash:
                    out_a[p] = a; out_b[p] = b; ret_time[p] = time
                    undone[p] = False; nret += 1
                    continue

                h1 = int(ra[q1]) if w1 and int(rx[q1]) > x else -1
                h2 = int(ra[q2]) if w2 and int(rx[q2]) > x else -1
                v = 0
                while v == h1 or v == h2:
                    v += 1
                new_a = v
                l1 = int(rb[q1]) if w1 and int(rx[q1]) < x else -1
                l2 = int(rb[q2]) if w2 and int(rx[q2]) < x else -1
                v = 0
                while v == l1 or v == l2:
                    v += 1
                sa[p] = new_a
                sb[p] = v

                if reduction and w1 and w2:
                    r = int(sr[p])
                    if r < _INF64:
                        r1 = int(rr[q1]); r2 = int(rr[q2])
                        if r <= (r1 if r1 < r2 else r2) or not green_light:
                            x1 = int(rx[q1]); x2 = int(rx[q2])
                            lo, hi = (x1, x2) if x1 < x2 else (x2, x1)
                            if lo < x < hi:
                                sr[p] = r + 1
                                candidate = reduce_identifier(x, lo)
                                if candidate < lo:
                                    sx[p] = candidate
                            else:
                                sr[p] = _INF64
                                if x < lo:
                                    f1 = reduce_identifier(x1, x)
                                    f2 = reduce_identifier(x2, x)
                                    v = 0
                                    while v == f1 or v == f2:
                                        v += 1
                                    if v < x:
                                        sx[p] = v
            return nret

        final_time, exhausted, stats = _drive_wide(
            np, schedule, n, undone, step_dense, step_sparse,
            max_time, idle_limit,
        )

        def build_outputs():
            pret = np.flatnonzero(~undone[:n])
            return dict(zip(
                pret.tolist(),
                zip(out_a[pret].tolist(), out_b[pret].tolist()),
            ))

        def build_states():
            xs = sx[:n].tolist()
            as_ = sa[:n].tolist()
            bs = sb[:n].tolist()
            if reduction:
                rs = [
                    r if r < _INF64 else INFINITE_ROUND
                    for r in sr[:n].tolist()
                ]
                return {
                    p: FastSixState(x=xs[p], r=rs[p], a=as_[p], b=bs[p])
                    for p in range(n)
                }
            return {
                p: SixState(x=xs[p], a=as_[p], b=bs[p]) for p in range(n)
            }

        result = _wide_result(
            np, n, undone, act, ret_time, final_time, exhausted,
            build_outputs, build_states,
        )
        return result, stats

    return run


#: Family → numpy runner, for :func:`repro.model.kernels.build_kernels`.
_RUNNERS = {"ab": _numpy_wide_ab_runner, "pair": _numpy_wide_pair_runner}


# ----------------------------------------------------------------------
# Public entry point
# ----------------------------------------------------------------------

def run_wide(
    algorithm: Any,
    topology: Topology,
    inputs: Any,
    schedule: Schedule,
    *,
    max_time: int = DEFAULT_MAX_TIME,
    idle_limit: int = DEFAULT_IDLE_LIMIT,
) -> Optional[ExecutionResult]:
    """One run through the wide engine, or ``None``.

    Returns ``None`` when no wide kernel covers this configuration
    (unregistered algorithm type, unsupported topology) — callers fall
    back to the fast engine, mirroring :func:`repro.model.batch.
    run_single_batch`.  The result is bit-identical to the reference
    :class:`~repro.model.execution.Executor`.
    """
    inputs = list(inputs)
    if len(inputs) != topology.n:
        raise ExecutionError(
            f"got {len(inputs)} inputs for {topology.n} processes"
        )
    kernel = build_wide_kernel(algorithm, topology, inputs)
    if kernel is None:
        return None
    idle_limit = effective_idle_limit(idle_limit, topology.n)
    registry = active_registry()
    if registry is None and not is_recording():
        result, _stats = kernel(schedule, max_time, idle_limit)
        return result
    started = perf_counter()
    wall = wall_clock()
    result, stats = kernel(schedule, max_time, idle_limit)
    elapsed = perf_counter() - started
    alg_name = type(algorithm).__name__
    if registry is not None:
        registry.inc(
            "wide_steps_total", stats["dense_steps"],
            algorithm=alg_name, path="dense",
        )
        registry.inc(
            "wide_steps_total", stats["sparse_steps"],
            algorithm=alg_name, path="sparse",
        )
        registry.observe("wide_frontier_occupancy", stats["occupancy"])
        registry.observe("wide_run_seconds", elapsed)
        record_execution(registry, "wide", alg_name, result, elapsed=elapsed)
    record_timed(
        "engine_run", wall, elapsed,
        {"engine": "wide", "algorithm": alg_name, "tier": stats["tier"],
         "dense_steps": stats["dense_steps"],
         "sparse_steps": stats["sparse_steps"],
         "occupancy": round(stats["occupancy"], 4)},
    )
    return result
