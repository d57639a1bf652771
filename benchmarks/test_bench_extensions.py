"""Extension machinery benchmarks: non-uniform input distributions.

These are not paper artifacts; they benchmark the parts of the library
a downstream user leans on when scaling beyond the paper's instances,
and they double as end-to-end checks of those parts.
"""

from fractions import Fraction

import pytest
from conftest import record

from repro.core.nonoblivious import threshold_winning_probability

THRESHOLDS = [Fraction(62, 100)] * 3
EXACT = float(threshold_winning_probability(1, THRESHOLDS))


@pytest.mark.parametrize(
    "label, a, b", [("peaked", 5, 5), ("light", 1, 3), ("heavy", 3, 1)]
)
def test_bench_beta_input_sensitivity(benchmark, label, a, b):
    """Winning probability of the paper's optimal protocol under
    non-uniform inputs -- the Section 6 'realistic distributions'
    extension, quantified."""
    from repro.model.algorithms import SingleThresholdRule
    from repro.model.inputs import BetaInputs
    from repro.model.system import DistributedSystem
    from repro.simulation.engine import MonteCarloEngine

    system = DistributedSystem(
        [SingleThresholdRule(a_) for a_ in THRESHOLDS], 1
    )

    def run():
        return MonteCarloEngine(seed=30).estimate_winning_probability(
            system, trials=100_000, inputs=BetaInputs(a, b)
        )

    summary = benchmark.pedantic(run, rounds=1, iterations=1)
    record(
        f"beta({a},{b}) inputs [{label}]",
        p_win=f"{summary.estimate:.5f}",
        uniform_reference=f"{EXACT:.5f}",
    )
    if label == "light":
        assert summary.estimate > EXACT
    if label == "peaked":
        assert summary.estimate < EXACT

