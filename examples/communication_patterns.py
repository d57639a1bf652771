"""Beyond the paper: what communication buys, on the same workload.

The paper settles the no-communication case and points at general
patterns as future work (Section 6).  The framework here supports
arbitrary visibility graphs, so this example measures (by simulation)
the value of several patterns on the three-player, capacity-1 system:

* no communication, optimal threshold (the paper's 0.545);
* a one-way chain P1 -> P2 -> P3 with weighted-average rules
  (the protocol family of Papadimitriou & Yannakakis 1991);
* full information with a consistent greedy packer;
* the centralized feasibility bound.

Run:  python examples/communication_patterns.py
"""

from fractions import Fraction
from typing import Mapping, Optional

import numpy as np

from repro.baselines.centralized import (
    OmniscientPacker,
    centralized_winning_probability,
)
from repro.experiments.report import format_table
from repro.model.agents import DecisionAlgorithm
from repro.model.algorithms import SingleThresholdRule
from repro.model.communication import FullInformation, GraphPattern
from repro.model.system import DistributedSystem
from repro.optimize.threshold_opt import optimal_symmetric_threshold
from repro.simulation.engine import MonteCarloEngine
from repro.symbolic.rational import RationalLike, as_fraction

TRIALS = 150_000


class WeightedAverageRule(DecisionAlgorithm):
    """Choose bin 0 iff a weighted average of the seen inputs is below a
    threshold.

    ``y = 0  iff  (w_own * x_own + sum_j w_j * x_j) <= threshold``

    where the sum runs over the observed players.  Weights for players
    the pattern does not reveal are ignored (their information is
    simply unavailable), matching how [11] parameterised protocols per
    communication pattern.  With no observations the rule reduces to
    ``SingleThresholdRule(threshold / w_own)`` -- the test-suite pins
    this equivalence down.
    """

    is_oblivious = False
    is_local = False  # may read observed inputs when the pattern allows

    def __init__(
        self,
        threshold: RationalLike,
        own_weight: RationalLike = 1,
        observed_weights: Optional[Mapping[int, RationalLike]] = None,
    ):
        self._threshold = as_fraction(threshold)
        self._own_weight = as_fraction(own_weight)
        if self._own_weight <= 0:
            raise ValueError(
                f"own weight must be positive, got {self._own_weight}"
            )
        self._observed_weights = {
            int(j): as_fraction(w)
            for j, w in (observed_weights or {}).items()
        }

    @property
    def threshold(self) -> Fraction:
        return self._threshold

    def decide(
        self,
        own_input: float,
        observed: Mapping[int, float],
        rng: np.random.Generator,
    ) -> int:
        score = float(self._own_weight) * own_input
        for j, x in observed.items():
            weight = self._observed_weights.get(j)
            if weight is not None:
                score += float(weight) * x
        return 0 if score <= float(self._threshold) else 1

    def as_single_threshold(self) -> SingleThresholdRule:
        """The no-communication degeneration of this rule.

        Only valid when the effective threshold ``threshold / own_weight``
        lies in ``[0, 1]``; raises otherwise.
        """
        effective = self._threshold / self._own_weight
        return SingleThresholdRule(effective)

    def __repr__(self) -> str:
        return (
            f"WeightedAverageRule(threshold={self._threshold}, "
            f"own_weight={self._own_weight}, "
            f"observed_weights={self._observed_weights})"
        )


def no_communication_row(engine):
    optimum = optimal_symmetric_threshold(3, 1)
    system = DistributedSystem(
        [SingleThresholdRule(optimum.beta) for _ in range(3)], 1
    )
    summary = engine.estimate_winning_probability(
        system, trials=TRIALS, stream="none"
    )
    return [
        "optimal threshold",
        "none (0 messages)",
        f"{summary.estimate:.5f}",
        f"exact {float(optimum.probability):.5f}",
    ]


def chain_row(engine):
    # P1 -> P2 -> P3: player 2 sees x1, player 3 sees x2.  Each later
    # player balances against what it saw: go to the opposite bin of a
    # large observed input.  Weights/thresholds are reasonable
    # hand-tuned values, not claimed optimal.
    pattern = GraphPattern.chain(3)
    algorithms = [
        WeightedAverageRule(Fraction(62, 100)),
        WeightedAverageRule(
            Fraction(4, 5), observed_weights={0: Fraction(1, 2)}
        ),
        WeightedAverageRule(
            Fraction(4, 5), observed_weights={1: Fraction(1, 2)}
        ),
    ]
    system = DistributedSystem(algorithms, 1, pattern=pattern)
    summary = engine.estimate_winning_probability(
        system, trials=TRIALS, stream="chain"
    )
    return [
        "weighted-average chain",
        "chain (2 messages)",
        f"{summary.estimate:.5f}",
        "simulation only",
    ]


def full_information_row(engine):
    system = DistributedSystem(
        [OmniscientPacker(i, 3) for i in range(3)],
        1,
        pattern=FullInformation(3),
    )
    summary = engine.estimate_winning_probability(
        system, trials=20_000, stream="full"
    )
    return [
        "greedy packer",
        "full (6 messages)",
        f"{summary.estimate:.5f}",
        "simulation only",
    ]


def feasibility_row():
    bound = centralized_winning_probability(3, 1, trials=TRIALS, seed=5)
    return [
        "feasibility bound",
        "(not a protocol)",
        f"{bound.estimate:.5f}",
        "upper bound",
    ]


def main() -> None:
    engine = MonteCarloEngine(seed=99)
    rows = [
        no_communication_row(engine),
        chain_row(engine),
        full_information_row(engine),
        feasibility_row(),
    ]
    print(
        format_table(
            ["protocol", "communication", "P(win)", "note"],
            rows,
            title="Three players, capacity 1: the value of communication",
        )
    )
    print()
    print(
        "The gap between row 1 and row 4 is the total economic value of\n"
        "information in this system; intermediate patterns buy part of it."
    )


if __name__ == "__main__":
    main()
