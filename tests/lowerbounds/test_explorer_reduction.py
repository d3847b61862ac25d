"""Differential tests for the explorer's two reductions.

:meth:`BoundedExplorer.moves` yields only activation sets that induce a
connected subgraph, and :meth:`BoundedExplorer.apply` memoises the
per-process transition.  The oracle below is the unreduced explorer: it
enumerates every non-empty subset of working processes.  Both must
agree on everything the reduction promises to keep — the exhaustive
reachable set, the existence of a livelock, the exact worst-case
activation counts and the progress classification.
"""

import itertools

import pytest

import repro.lowerbounds.progress as progress
from repro.core.coloring5 import FiveColoring
from repro.core.coloring6 import SixColoring
from repro.core.fast_coloring5 import FastFiveColoring
from repro.extensions.fast_six import FastSixColoring
from repro.lowerbounds.explorer import BoundedExplorer, ExplorerConfig
from repro.lowerbounds.progress import classify_progress
from repro.lowerbounds.small_palette import PureGreedyColoring
from repro.model.topology import Cycle, Path

ALGORITHMS = {
    "alg1": SixColoring,
    "alg2": FiveColoring,
    "alg3": FastFiveColoring,
    "fast6": FastSixColoring,
    "pure-greedy": PureGreedyColoring,
}
TOPOLOGIES = {
    "C_3": lambda: Cycle(3),
    "C_4": lambda: Cycle(4),
    "C_5": lambda: Cycle(5),
    "P_4": lambda: Path(4),
}
IDS = [3, 1, 4, 2, 5]
#: Cases whose reachable graph is too large for every check in a unit
#: test: Algorithm 2 (97 197 configurations) and pure greedy (32 684)
#: on C_5 get the reachable-set and livelock checks only; Algorithm 3
#: on C_5 reaches more than 300 000 configurations, so it gets the
#: livelock and worst-case checks, which stop at the first cycle.
LARGE = {("alg2", "C_5"), ("pure-greedy", "C_5")}
HUGE = {("alg3", "C_5")}
BUDGET = 120_000


class AllSubsetsExplorer(BoundedExplorer):
    """The unreduced explorer: every non-empty subset is a move."""

    def moves(self, config):
        working = config.working()
        for size in range(1, len(working) + 1):
            for subset in itertools.combinations(working, size):
                yield frozenset(subset)


def reachable(explorer):
    """Every configuration reachable from the start, or ``None`` when
    there are more than :data:`BUDGET`."""
    start = explorer.initial_config()
    seen = {start}
    stack = [start]
    while stack:
        config = stack.pop()
        for subset in explorer.moves(config):
            successor = explorer.apply(config, subset)
            if successor not in seen:
                if len(seen) >= BUDGET:
                    return None
                seen.add(successor)
                stack.append(successor)
    return seen


def direct_apply(algorithm, topology, config, subset):
    """Eq. (1) restated without memo tables: all writes, then all
    reads and updates."""
    registers = list(config.registers)
    for p in subset:
        registers[p] = algorithm.register_value(config.states[p])
    states, outputs = list(config.states), list(config.outputs)
    for p in subset:
        views = tuple(registers[q] for q in topology.neighbors(p))
        outcome = algorithm.step(config.states[p], views)
        states[p] = outcome.state
        if outcome.returned:
            outputs[p] = ("returned", outcome.output)
    return ExplorerConfig(tuple(states), tuple(registers), tuple(outputs))


def pair(alg, topo):
    topology = TOPOLOGIES[topo]()
    ids = IDS[: topology.n]
    return (
        BoundedExplorer(ALGORITHMS[alg](), topology, ids),
        AllSubsetsExplorer(ALGORITHMS[alg](), topology, ids),
    )


def case(alg, topo):
    marks = [pytest.mark.slow] if (alg, topo) in LARGE | HUGE else []
    return pytest.param(alg, topo, id=f"{alg}-{topo}", marks=marks)


CASES = [case(alg, topo) for alg in ALGORITHMS for topo in TOPOLOGIES]
SMALL_CASES = [
    case(alg, topo) for alg in ALGORITHMS for topo in TOPOLOGIES
    if (alg, topo) not in LARGE | HUGE
]


class TestReductionKeepsAnswers:
    @pytest.mark.parametrize("alg,topo", [
        c for c in CASES if tuple(c.values) not in HUGE
    ])
    def test_same_reachable_set(self, alg, topo):
        arcs, oracle = pair(alg, topo)
        expected = reachable(oracle)
        assert expected is not None
        assert reachable(arcs) == expected

    @pytest.mark.parametrize("alg,topo", CASES)
    def test_same_livelock_verdict(self, alg, topo):
        arcs, oracle = pair(alg, topo)
        expected = oracle.find_livelock(max_depth=400, max_configs=BUDGET)
        outcome = arcs.find_livelock(max_depth=400, max_configs=BUDGET)
        assert outcome.found == expected.found
        if not expected.found:
            assert outcome.exhausted and expected.exhausted

    @pytest.mark.parametrize("alg,topo", [
        c for c in CASES if tuple(c.values) not in LARGE
    ])
    def test_same_max_activations(self, alg, topo):
        arcs, oracle = pair(alg, topo)
        for pid in range(arcs.n):
            assert arcs.max_activations(pid, max_configs=BUDGET) == (
                oracle.max_activations(pid, max_configs=BUDGET)
            ), f"process {pid}"

    @pytest.mark.parametrize("alg,topo", SMALL_CASES)
    def test_same_progress_verdicts(self, alg, topo, monkeypatch):
        topology = TOPOLOGIES[topo]()
        ids = IDS[: topology.n]
        report = classify_progress(ALGORITHMS[alg](), topology, ids)
        monkeypatch.setattr(progress, "BoundedExplorer", AllSubsetsExplorer)
        expected = classify_progress(ALGORITHMS[alg](), topology, ids)
        assert expected.exhausted and report.exhausted
        assert report.configs == expected.configs
        assert (report.wait_free, report.starvation_free,
                report.obstruction_free) == (
            expected.wait_free, expected.starvation_free,
            expected.obstruction_free)


class CountingSix(SixColoring):
    """Algorithm 1, counting calls into its transition functions."""

    def __init__(self):
        super().__init__()
        self.steps = 0
        self.writes = 0

    def register_value(self, state):
        self.writes += 1
        return super().register_value(state)

    def step(self, state, views):
        self.steps += 1
        return super().step(state, views)


class OpaqueSix(CountingSix):
    view_deterministic = False


class TestMemoisedTransitions:
    @pytest.mark.parametrize("alg,topo", [
        ("alg1", "C_4"), ("alg2", "C_4"), ("fast6", "C_4"), ("alg3", "P_4"),
    ])
    def test_memoised_outcomes_equal_direct_calls(self, alg, topo):
        """After an exhaustive search has filled the memo tables, every
        transition still equals the directly computed one — for every
        subset, connected or not."""
        explorer, oracle = pair(alg, topo)
        configs = reachable(explorer)
        for config in configs:
            for subset in oracle.moves(config):
                assert explorer.apply(config, subset) == direct_apply(
                    ALGORITHMS[alg](), explorer.topology, config, subset,
                )

    def test_view_deterministic_algorithm_is_memoised(self):
        algorithm = CountingSix()
        explorer = BoundedExplorer(algorithm, Cycle(3), [1, 2, 3])
        start, everyone = explorer.initial_config(), frozenset({0, 1, 2})
        first = explorer.apply(start, everyone)
        calls = (algorithm.steps, algorithm.writes)
        assert calls == (3, 3)
        assert explorer.apply(start, everyone) == first
        assert (algorithm.steps, algorithm.writes) == calls

    def test_opaque_algorithm_bypasses_memo(self):
        algorithm = OpaqueSix()
        explorer = BoundedExplorer(algorithm, Cycle(3), [1, 2, 3])
        start, everyone = explorer.initial_config(), frozenset({0, 1, 2})
        first = explorer.apply(start, everyone)
        assert explorer.apply(start, everyone) == first
        assert (algorithm.steps, algorithm.writes) == (6, 6)

    def test_memo_tables_are_per_instance(self):
        algorithm = CountingSix()
        for _ in range(2):
            explorer = BoundedExplorer(algorithm, Cycle(3), [1, 2, 3])
            explorer.apply(explorer.initial_config(), frozenset({0, 1, 2}))
        assert (algorithm.steps, algorithm.writes) == (6, 6)

