"""The paper's §5 conjecture, probed: k-coloring C_n needs k ≥ 5 for
every n ≥ 3 (not only the prime-power/C_3 cases Property 2.3 covers).

Simulation cannot prove the conjecture, but it can (i) defeat every
candidate 4-color algorithm on larger cycles too, and (ii) confirm the
5-color algorithms remain safe there — both directions of evidence.
"""

import pytest

from repro.lowerbounds.explorer import BoundedExplorer
from repro.lowerbounds.small_palette import (
    candidate_small_palette_algorithms,
    coloring_violation_predicate,
    falsify_coloring,
)
from repro.model.topology import Cycle


class TestConjectureEvidence:
    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("name", sorted(candidate_small_palette_algorithms()))
    def test_four_color_candidates_fail_beyond_c3(self, name, n):
        algorithm = candidate_small_palette_algorithms()[name]
        outcome = falsify_coloring(
            algorithm, n=n, max_depth=10, max_configs=150_000,
        )
        assert outcome.found, f"{name} survived on C_{n}"

    @pytest.mark.parametrize("n", [4, 5, pytest.param(6, marks=pytest.mark.slow)])
    def test_alg1_safe_with_six_colors_exhaustive(self, n):
        """The positive side at 6 colors: no safety violation reachable
        for Algorithm 1 (full pair palette encoded as 6 scalar codes)."""
        from repro.core.coloring6 import SIX_PALETTE, SixColoring

        explorer = BoundedExplorer(SixColoring(), Cycle(n), list(range(1, n + 1)))

        def predicate(config):
            outputs = config.output_dict()
            for p, c in outputs.items():
                if c not in SIX_PALETTE:
                    return f"{p} out of palette: {c}"
            for p, q in Cycle(n).edges():
                if p in outputs and q in outputs and outputs[p] == outputs[q]:
                    return f"monochromatic edge ({p},{q})"
            return None

        outcome = explorer.find_violation(predicate, max_depth=60)
        assert not outcome.found
        assert outcome.exhausted

    def test_alg2_five_color_safety_holds_on_c4_exhaustive(self):
        explorer = BoundedExplorer(
            __import__("repro.core.coloring5", fromlist=["FiveColoring"]).FiveColoring(),
            Cycle(4), [1, 2, 3, 4],
        )
        outcome = explorer.find_violation(
            coloring_violation_predicate(Cycle(4), 5),
            max_depth=12, max_configs=400_000,
        )
        assert not outcome.found
