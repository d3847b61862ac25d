"""Cross-engine reproducers of behaviour found in measured runs.

Each case runs one configuration through the reference, fast, batch
and wide engines and asserts the four results are bit-identical, plus
the property the reproducer is about.  The batch and wide legs call
their engines directly (not through ``run_execution``), so a decline
cannot silently turn them into fast runs.
"""

from repro.campaign.registry import (
    resolve_algorithm,
    resolve_inputs,
    resolve_schedule,
    resolve_topology,
)
from repro.core.fast_coloring5 import FastFiveColoring
from repro.model.batch import run_single_batch
from repro.model.execution import (
    DEFAULT_IDLE_LIMIT,
    Executor,
    effective_idle_limit,
    run_execution,
)
from repro.model.fastpath import FastExecutor
from repro.model.schedule import FiniteSchedule
from repro.model.topology import Cycle
from repro.model.wide import run_wide
from repro.schedulers import SynchronousScheduler


def four_engines(make_alg, topology, inputs, make_schedule, **kwargs):
    """``(reference, fast, batch, wide)`` results of one configuration."""
    results = [
        run_execution(make_alg(), topology, inputs, make_schedule(),
                      engine=engine, **kwargs)
        for engine in ("reference", "fast")
    ]
    batch = run_single_batch(make_alg(), topology, inputs, make_schedule(),
                             **kwargs)
    wide = run_wide(make_alg(), topology, inputs, make_schedule(), **kwargs)
    assert batch is not None, "batch engine declined"
    assert wide is not None, "wide engine declined"
    return results + [batch, wide]


def assert_identical(results):
    reference = results[0]
    for name, other in zip(("fast", "batch", "wide"), results[1:]):
        assert dict(other.outputs) == dict(reference.outputs), name
        assert dict(other.activations) == dict(reference.activations), name
        assert dict(other.return_times) == dict(reference.return_times), name
        assert other.final_time == reference.final_time, name
        assert other.time_exhausted == reference.time_exhausted, name
        assert dict(other.final_states) == dict(reference.final_states), name


# ----------------------------------------------------------------------
# The idle cut-off is never below n
# ----------------------------------------------------------------------


def test_effective_idle_limit():
    assert effective_idle_limit(DEFAULT_IDLE_LIMIT, 16384) == 16384
    assert effective_idle_limit(DEFAULT_IDLE_LIMIT, 8) == DEFAULT_IDLE_LIMIT
    assert effective_idle_limit(10, 3) == 10
    assert effective_idle_limit(0, 16384) == 0  # 0 still disables it


def test_idle_gap_shorter_than_n_is_not_cut_off():
    """p0 returns solo, then ``n - 1`` idle steps, then p5 runs: the
    cut-off (10, raised to n = 12) must not fire, on any engine."""
    n = 12
    ids = list(range(100, 100 + n))
    make_schedule = lambda: FiniteSchedule([{0}] * n + [{5}])
    for engine_cls in (Executor, FastExecutor):
        result = engine_cls(Cycle(n), FastFiveColoring(), ids).run(
            make_schedule(), idle_limit=10,
        )
        assert set(result.outputs) == {0, 5}, engine_cls.__name__
        assert result.final_time == n + 1
    batch = run_single_batch(FastFiveColoring(), Cycle(n), ids,
                             make_schedule(), idle_limit=10)
    wide = run_wide(FastFiveColoring(), Cycle(n), ids, make_schedule(),
                    idle_limit=10)
    assert set(batch.outputs) == set(wide.outputs) == {0, 5}
    # One more idle step than n reaches the cut-off everywhere.
    make_long = lambda: FiniteSchedule([{0}] * (n + 1) + [{5}])
    results = [
        Executor(Cycle(n), FastFiveColoring(), ids).run(make_long(), idle_limit=10),
        FastExecutor(Cycle(n), FastFiveColoring(), ids).run(make_long(), idle_limit=10),
        run_single_batch(FastFiveColoring(), Cycle(n), ids, make_long(),
                         idle_limit=10),
        run_wide(FastFiveColoring(), Cycle(n), ids, make_long(), idle_limit=10),
    ]
    assert_identical(results)
    assert set(results[0].outputs) == {0}
    assert results[0].final_time == n + 1


def test_round_robin_c16384_terminates_on_every_engine():
    """fast6 on C_16384 under round-robin, random ids of seed
    1319032806: idle streaks of up to n − 1 steps once few processes
    are left.  A fixed 10 000-step cut-off stopped this run
    unterminated at step 91 839; it terminates at step 96 193."""
    n, seed = 16384, 1319032806
    topology = resolve_topology("cycle", n)
    inputs = resolve_inputs("random", n, seed)
    results = four_engines(
        resolve_algorithm("fast6"), topology, inputs,
        lambda: resolve_schedule("round-robin", seed=seed),
        max_time=200_000,
    )
    assert_identical(results)
    assert results[0].all_terminated
    assert results[0].final_time == 96_193


# ----------------------------------------------------------------------
# Algorithm 3 livelocks under the synchronous schedule
# ----------------------------------------------------------------------

#: C_8 identifiers on which Algorithm 3 never terminates under the
#: synchronous schedule (docs/FINDINGS.md §6): processes 3 and 4 chase
#: each other between two returned neighbors.
SYNC_LIVELOCK_IDS = [
    36075680563, 17484922640, 25517512058, 30590137644,
    42910318858, 43113173254, 44647795574, 45504903408,
]


def test_fast5_sync_livelock_on_c8():
    results = four_engines(
        FastFiveColoring, Cycle(8), SYNC_LIVELOCK_IDS, SynchronousScheduler,
        max_time=500,
    )
    assert_identical(results)
    reference = results[0]
    assert reference.time_exhausted
    assert reference.pending == {3, 4}
    assert max(reference.return_times.values()) == 5
    assert reference.activations[3] == reference.activations[4] == 500


def test_fast5_sync_livelock_mechanism():
    """The loop is Algorithm 2's chase (docs/FINDINGS.md §2) seeded by
    the identifier reduction: p3 (X = 0) is a local minimum and p4
    (X = 1) a local maximum, both with r = ∞, between returned
    neighbors whose frozen registers hold colors {0, 1}.  p4's ``a``
    is pinned at 0 (taken), and ``a_3 = b_3 = b_4`` toggles 2 ↔ 3 in
    phase, so neither return test ever passes."""
    states = {}
    for max_time in (500, 501):
        result = run_execution(FastFiveColoring(), Cycle(8),
                               SYNC_LIVELOCK_IDS, SynchronousScheduler(),
                               max_time=max_time, engine="reference")
        states[max_time] = (result.final_states[3], result.final_states[4])
        for frozen in (2, 5):
            assert {result.final_states[frozen].a,
                    result.final_states[frozen].b} == {0, 1}
    inf = float("inf")
    assert states[500] == ((0, inf, 2, 2), (1, inf, 0, 2))
    assert states[501] == ((0, inf, 3, 3), (1, inf, 0, 3))
