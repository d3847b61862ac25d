"""Bounded exhaustive exploration of schedule space (small ``n``).

The paper's claims quantify over *all* schedules; for small systems we
can check them exhaustively.  A *configuration* is the full system
state — private states, register contents, outputs.  Configurations
are hashable because algorithm states and register payloads are plain
named tuples.

**Moves are connected subsets.**  The adversary activates a non-empty
set of working processes at once (our engine's simultaneous
write-then-read semantics, Eq. (1)).  If that set splits into two parts
``A`` and ``B`` with no topology edge between them, no process of ``A``
reads a register of ``B`` or vice versa, so activating ``A ∪ B`` leads
to the same configuration as activating ``A`` and then ``B``.  Every
move therefore factors into moves whose activation sets induce
*connected* subgraphs (arcs, on a cycle), and :meth:`BoundedExplorer.moves`
yields only those — about ``n²`` per configuration on ``C_n`` instead
of ``2ⁿ − 1``.  The reduction keeps the reachable configurations, the
configuration-graph cycles, the strongly-connected components and the
processes their edges activate, and the per-process activation counts
along any path; what changes is the *length* of a witness, which now
counts connected steps (a step of the full relation may take several).

**Transitions are memoised.**  When the algorithm declares
``view_deterministic`` (the purity contract of
:class:`~repro.core.algorithm.Algorithm`), :meth:`BoundedExplorer.apply`
caches ``register_value(state)`` by state and the outcome of
``step(state, views)`` by ``(state, views)``, one table per explorer
instance.  Algorithms that do not declare it are called directly on
every transition.

The explorer supports the three queries used by the falsifiers and
the exact small-``n`` experiments:

* :meth:`BoundedExplorer.find_violation` — breadth-first search for a
  configuration violating a predicate; returns the (shortest in
  connected steps) witness schedule, replayable through the engine;
* :meth:`BoundedExplorer.find_livelock` — depth-first search for a
  reachable cycle in the configuration graph: the adversary can loop
  that cycle forever, so any such cycle refutes wait-freedom (some
  process is activated infinitely often without returning);
* :meth:`BoundedExplorer.max_activations` — exact worst-case
  activation count of one process over *all* schedules, by memoized
  longest-path over the configuration DAG (``math.inf`` when a cycle
  makes it unbounded).

All searches are exact up to the exploration limits (``max_depth``
steps per schedule, ``max_configs`` distinct configurations); results
report whether the search was exhausted or truncated.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.errors import ExecutionError
from repro.model.schedule import FiniteSchedule
from repro.model.topology import Topology
from repro.types import BOTTOM, ProcessId

__all__ = ["ExplorerConfig", "BoundedExplorer", "SearchOutcome"]

#: Marker wrapping a returned output inside the hashable outputs tuple
#: (distinguishes "returned None" from "not returned").
_RETURNED = "returned"


class _Memo(dict):
    """A dict that fills a missing key with ``compute(key)``."""

    def __init__(self, compute: Callable[[Any], Any]):
        super().__init__()
        self.compute = compute

    def __missing__(self, key: Any) -> Any:
        value = self[key] = self.compute(key)
        return value


class ExplorerConfig(NamedTuple):
    """One hashable configuration of the whole system."""

    states: Tuple[Any, ...]
    registers: Tuple[Any, ...]
    outputs: Tuple[Optional[Tuple[str, Any]], ...]

    def output_dict(self) -> Dict[ProcessId, Any]:
        """The returned outputs as a ``{pid: value}`` dict."""
        return {
            p: marked[1]
            for p, marked in enumerate(self.outputs)
            if marked is not None
        }

    def working(self) -> Tuple[ProcessId, ...]:
        """Processes that have not returned."""
        return tuple(p for p, o in enumerate(self.outputs) if o is None)

    @property
    def all_returned(self) -> bool:
        """Whether every process returned."""
        return all(o is not None for o in self.outputs)


@dataclass
class SearchOutcome:
    """Result of one exploration query.

    ``witness`` is the step list (activation sets) reaching the found
    configuration, directly replayable as a
    :class:`~repro.model.schedule.FiniteSchedule`; ``None`` if nothing
    was found.  ``exhausted`` tells whether the search space within the
    limits was fully covered (a ``None`` witness is a proof only when
    ``exhausted`` is true).
    """

    witness: Optional[List[FrozenSet[ProcessId]]]
    description: str
    exhausted: bool
    configs_seen: int

    @property
    def found(self) -> bool:
        """Whether a witness was found."""
        return self.witness is not None

    def schedule(self) -> FiniteSchedule:
        """The witness as a replayable schedule."""
        if self.witness is None:
            raise ExecutionError("no witness to replay")
        return FiniteSchedule(self.witness)


class BoundedExplorer:
    """Exhaustive schedule-space search for one (algorithm, topology,
    inputs) triple."""

    def __init__(self, algorithm, topology: Topology, inputs):
        if len(inputs) != topology.n:
            raise ExecutionError(
                f"got {len(inputs)} inputs for {topology.n} processes"
            )
        self.algorithm = algorithm
        self.topology = topology
        self.inputs = list(inputs)
        self.n = topology.n
        self._neighbors = [topology.neighbors(p) for p in topology.processes()]
        # Connected moves per working set, built on first use.
        self._moves: Dict[Tuple[ProcessId, ...], Tuple[FrozenSet[ProcessId], ...]] = {}
        # Transition functions, memoised per instance when the algorithm
        # declares them pure.
        self._register_value = algorithm.register_value
        self._step = self._direct_step
        if getattr(algorithm, "view_deterministic", False) is True:
            self._register_value = _Memo(self._register_value).__getitem__
            self._step = _Memo(self._step).__getitem__

    # ------------------------------------------------------------------
    # Transition system
    # ------------------------------------------------------------------
    def initial_config(self) -> ExplorerConfig:
        """The configuration before any process wakes up."""
        states = tuple(
            self.algorithm.initial_state(self.inputs[p]) for p in range(self.n)
        )
        return ExplorerConfig(
            states=states,
            registers=(BOTTOM,) * self.n,
            outputs=(None,) * self.n,
        )

    def moves(self, config: ExplorerConfig) -> Iterator[FrozenSet[ProcessId]]:
        """All adversary moves up to commutation: the non-empty subsets
        of working processes that induce a connected subgraph, smallest
        first, then in lexicographic order."""
        working = config.working()
        moves = self._moves.get(working)
        if moves is None:
            moves = self._moves[working] = self._connected_subsets(working)
        return iter(moves)

    def _connected_subsets(
        self, working: Tuple[ProcessId, ...]
    ) -> Tuple[FrozenSet[ProcessId], ...]:
        """Every connected induced subgraph of ``working``, each grown
        from its smallest member."""
        allowed = set(working)
        found = set()
        for root in working:
            stack = [frozenset((root,))]
            while stack:
                subset = stack.pop()
                if subset in found:
                    continue
                found.add(subset)
                for p in subset:
                    for q in self._neighbors[p]:
                        if q > root and q in allowed and q not in subset:
                            stack.append(subset | {q})
        return tuple(sorted(found, key=lambda subset: (len(subset), sorted(subset))))

    def apply(self, config: ExplorerConfig, subset: FrozenSet[ProcessId]) -> ExplorerConfig:
        """The configuration after simultaneously activating ``subset``.

        Mirrors the engine: all writes first, then all reads/updates.
        """
        register_value, step = self._register_value, self._step
        old_states = config.states
        registers = list(config.registers)
        for p in subset:
            registers[p] = register_value(old_states[p])
        states = list(old_states)
        outputs = list(config.outputs)
        for p in subset:
            states[p], marker = step(
                (old_states[p], tuple(registers[q] for q in self._neighbors[p]))
            )
            if marker is not None:
                outputs[p] = marker
        return ExplorerConfig(tuple(states), tuple(registers), tuple(outputs))

    def _direct_step(self, key: Tuple[Any, Tuple[Any, ...]]) -> Tuple[Any, Any]:
        """``step(state, views)`` as ``(new state, output marker)``."""
        outcome = self.algorithm.step(*key)
        return outcome.state, (_RETURNED, outcome.output) if outcome.returned else None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def find_violation(
        self,
        predicate: Callable[[ExplorerConfig], Optional[str]],
        *,
        max_depth: int = 20,
        max_configs: int = 500_000,
    ) -> SearchOutcome:
        """BFS for a configuration where ``predicate`` reports a violation.

        ``predicate(config)`` returns a description string for a
        violating configuration, else ``None``.  The initial
        configuration is checked too.
        """
        start = self.initial_config()
        description = predicate(start)
        if description:
            return SearchOutcome([], description, exhausted=False, configs_seen=1)

        visited = {start}
        frontier: List[Tuple[ExplorerConfig, List[FrozenSet[ProcessId]]]] = [(start, [])]
        exhausted = True
        for _depth in range(max_depth):
            next_frontier: List[Tuple[ExplorerConfig, List[FrozenSet[ProcessId]]]] = []
            for config, path in frontier:
                for subset in self.moves(config):
                    successor = self.apply(config, subset)
                    if successor in visited:
                        continue
                    if len(visited) >= max_configs:
                        exhausted = False
                        continue
                    visited.add(successor)
                    witness = path + [subset]
                    description = predicate(successor)
                    if description:
                        return SearchOutcome(
                            witness, description, exhausted=False,
                            configs_seen=len(visited),
                        )
                    next_frontier.append((successor, witness))
            if not next_frontier:
                description = (
                    "no violation reachable" if exhausted else
                    f"search truncated at max_configs={max_configs}: "
                    "no violation among the configurations seen"
                )
                return SearchOutcome(
                    None, description, exhausted=exhausted,
                    configs_seen=len(visited),
                )
            frontier = next_frontier
        return SearchOutcome(
            None, "no violation within depth", exhausted=False,
            configs_seen=len(visited),
        )

    def find_livelock(
        self,
        *,
        max_depth: int = 40,
        max_configs: int = 500_000,
    ) -> SearchOutcome:
        """DFS for a reachable configuration-graph cycle.

        Every move activates at least one working process, so a cycle
        means the adversary can schedule infinitely many activations of
        some never-returning process — refuting wait-freedom.  The
        witness is a schedule prefix whose last configuration equals an
        earlier one on the path (loop the suffix forever).
        """
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * max_depth + 1000))
        start = self.initial_config()
        on_path: Dict[ExplorerConfig, int] = {start: 0}
        path: List[FrozenSet[ProcessId]] = []
        fully_explored: set = set()
        seen = {start}
        truncated = False

        def dfs(config: ExplorerConfig, depth: int) -> Optional[List[FrozenSet[ProcessId]]]:
            nonlocal truncated
            if depth >= max_depth:
                truncated = True
                return None
            for subset in self.moves(config):
                successor = self.apply(config, subset)
                if successor in on_path:
                    path.append(subset)
                    return list(path)
                if successor in fully_explored:
                    continue
                if len(seen) >= max_configs:
                    truncated = True
                    continue
                seen.add(successor)
                on_path[successor] = depth + 1
                path.append(subset)
                witness = dfs(successor, depth + 1)
                if witness is not None:
                    return witness
                path.pop()
                del on_path[successor]
                fully_explored.add(successor)
            return None

        witness = dfs(start, 0)
        if witness is not None:
            return SearchOutcome(
                witness,
                "configuration repeats: adversary can loop this schedule forever",
                exhausted=False,
                configs_seen=len(seen),
            )
        return SearchOutcome(
            None,
            "configuration graph is acyclic within limits (wait-free so far)",
            exhausted=not truncated,
            configs_seen=len(seen),
        )

    def max_activations(
        self,
        pid: ProcessId,
        *,
        max_configs: int = 500_000,
    ) -> float:
        """Exact worst-case activations of ``pid`` before it returns.

        Longest path (counting only steps that activate ``pid``) over
        the configuration graph, memoized; ``math.inf`` if a reachable
        cycle can starve ``pid`` of progress while activating it.
        Raises :class:`ExecutionError` when ``max_configs`` is hit —
        the answer would be unreliable.
        """
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 50_000))
        memo: Dict[ExplorerConfig, float] = {}
        in_progress: set = set()

        def best(config: ExplorerConfig) -> float:
            if config.outputs[pid] is not None:
                return 0.0
            if config in memo:
                return memo[config]
            if config in in_progress:
                return math.inf
            if len(memo) + len(in_progress) >= max_configs:
                raise ExecutionError(
                    "configuration budget exhausted; raise max_configs"
                )
            in_progress.add(config)
            result = 0.0
            for subset in self.moves(config):
                successor = self.apply(config, subset)
                value = (1.0 if pid in subset else 0.0) + best(successor)
                result = max(result, value)
                if result == math.inf:
                    break
            in_progress.discard(config)
            memo[config] = result
            return result

        return best(self.initial_config())
