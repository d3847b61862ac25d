"""Tests for the bounded exhaustive explorer."""

import math

import pytest

from repro.core.coloring5 import FiveColoring
from repro.core.coloring6 import SixColoring
from repro.errors import ExecutionError
from repro.lowerbounds.explorer import BoundedExplorer, ExplorerConfig
from repro.model.execution import run_execution
from repro.model.topology import Cycle
from repro.types import BOTTOM


class TestTransitionSystem:
    def test_initial_config(self):
        explorer = BoundedExplorer(SixColoring(), Cycle(3), [1, 2, 3])
        config = explorer.initial_config()
        assert config.registers == (BOTTOM, BOTTOM, BOTTOM)
        assert config.working() == (0, 1, 2)
        assert not config.all_returned
        assert config.output_dict() == {}

    def test_moves_enumerate_nonempty_subsets(self):
        """Moves are the non-empty connected subsets of the working set."""
        for n, expected in (
            (3, 7),  # 2^3 - 1: every subset of a triangle is connected
            (4, 13),  # 4 singletons, 4 edges, 4 three-arcs, the whole cycle
            (6, 31),  # 6 arcs of each length 1..5, the whole cycle
        ):
            explorer = BoundedExplorer(SixColoring(), Cycle(n), list(range(1, n + 1)))
            moves = list(explorer.moves(explorer.initial_config()))
            assert len(moves) == len(set(moves)) == expected
            assert frozenset({0, n - 1}) in moves  # arcs wrap around
        assert frozenset({0, 2}) not in moves  # not an arc of C_6

    def test_moves_exclude_returned(self):
        explorer = BoundedExplorer(SixColoring(), Cycle(3), [1, 2, 3])
        config = explorer.apply(explorer.initial_config(), frozenset({0}))
        assert config.output_dict() == {0: (0, 0)}  # solo return
        moves = list(explorer.moves(config))
        assert len(moves) == 3  # subsets of {1, 2}

    def test_apply_matches_engine(self):
        """The explorer's transition relation replays exactly as the
        engine executes the same schedule."""
        from repro.model.schedule import FiniteSchedule

        steps = [frozenset({0}), frozenset({1, 2}), frozenset({1, 2}),
                 frozenset({1}), frozenset({2}), frozenset({1, 2})]
        explorer = BoundedExplorer(FiveColoring(), Cycle(3), [3, 1, 2])
        config = explorer.initial_config()
        for s in steps:
            working = frozenset(p for p in s if config.outputs[p] is None)
            if working:
                config = explorer.apply(config, working)
        result = run_execution(
            FiveColoring(), Cycle(3), [3, 1, 2], FiniteSchedule(steps),
        )
        assert config.output_dict() == result.outputs

    def test_input_count_checked(self):
        with pytest.raises(ExecutionError):
            BoundedExplorer(SixColoring(), Cycle(3), [1, 2])


class TestFindViolation:
    def test_initial_config_checked(self):
        explorer = BoundedExplorer(SixColoring(), Cycle(3), [1, 2, 3])
        outcome = explorer.find_violation(lambda c: "always", max_depth=1)
        assert outcome.found
        assert outcome.witness == []

    def test_no_violation_exhausted(self):
        explorer = BoundedExplorer(SixColoring(), Cycle(3), [1, 2, 3])
        outcome = explorer.find_violation(lambda c: None, max_depth=100)
        assert not outcome.found
        assert outcome.exhausted

    def test_witness_replays(self):
        """A found witness, replayed through the engine, reproduces the
        violating outputs."""
        explorer = BoundedExplorer(SixColoring(), Cycle(3), [1, 2, 3])

        def two_returned(config):
            return "two returned" if len(config.output_dict()) >= 2 else None

        outcome = explorer.find_violation(two_returned, max_depth=10)
        assert outcome.found
        result = run_execution(
            SixColoring(), Cycle(3), [1, 2, 3], outcome.schedule(),
        )
        assert len(result.outputs) >= 2

    def test_truncation_reported(self):
        """Hitting ``max_configs`` is a truncated search, not a proof."""
        explorer = BoundedExplorer(SixColoring(), Cycle(3), [1, 2, 3])
        outcome = explorer.find_violation(lambda c: None, max_depth=100, max_configs=5)
        assert not outcome.found
        assert not outcome.exhausted
        assert outcome.configs_seen == 5
        assert "truncated" in outcome.description
        assert "no violation reachable" not in outcome.description

    def test_schedule_raises_without_witness(self):
        explorer = BoundedExplorer(SixColoring(), Cycle(3), [1, 2, 3])
        outcome = explorer.find_violation(lambda c: None, max_depth=2)
        with pytest.raises(ExecutionError):
            outcome.schedule()


class TestFindLivelock:
    def test_algorithm1_acyclic(self):
        explorer = BoundedExplorer(SixColoring(), Cycle(3), [1, 2, 3])
        outcome = explorer.find_livelock(max_depth=100)
        assert not outcome.found
        assert outcome.exhausted

    def test_algorithm2_livelocks(self):
        explorer = BoundedExplorer(FiveColoring(), Cycle(3), [1, 2, 3])
        outcome = explorer.find_livelock(max_depth=60)
        assert outcome.found

    def test_livelock_witness_contains_repeat(self):
        """Replaying the witness yields a configuration seen earlier."""
        explorer = BoundedExplorer(FiveColoring(), Cycle(3), [1, 2, 3])
        outcome = explorer.find_livelock(max_depth=60)
        seen = set()
        config = explorer.initial_config()
        seen.add(config)
        repeated = False
        for step in outcome.witness:
            config = explorer.apply(config, step)
            if config in seen:
                repeated = True
            seen.add(config)
        assert repeated


class TestMaxActivations:
    def test_algorithm1_exact_worst_case(self):
        explorer = BoundedExplorer(SixColoring(), Cycle(3), [1, 2, 3])
        worst = {p: explorer.max_activations(p) for p in range(3)}
        assert all(1 <= v <= 8 for v in worst.values())  # Thm 3.1 bound: 8
        assert all(v != math.inf for v in worst.values())

    def test_algorithm2_unbounded(self):
        explorer = BoundedExplorer(FiveColoring(), Cycle(3), [1, 2, 3])
        assert explorer.max_activations(1) == math.inf

    def test_budget_exhaustion_raises(self):
        explorer = BoundedExplorer(SixColoring(), Cycle(4), [1, 2, 3, 4])
        with pytest.raises(ExecutionError):
            explorer.max_activations(0, max_configs=5)
