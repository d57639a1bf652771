"""Load balancing scenario: distributed job placement without coordination.

The paper's motivating story (after Papadimitriou & Yannakakis 1991):
``n`` independent job sources each receive one job of random size and
must choose one of two servers, each with fixed capacity, *without
talking to each other*.  This example sizes that system:

1. sweep the common placement threshold and plot the overflow-free
   probability (exact + simulated);
2. compare protocol families on the same workload: random placement,
   the optimal threshold, and a full-information coordinator;
3. show what happens as the fleet grows with capacity scaling n/3.

Run:  python examples/load_balancing_simulation.py
"""

from fractions import Fraction

from repro.baselines.centralized import centralized_winning_probability
from repro.core.oblivious import optimal_oblivious_winning_probability
from repro.experiments.report import format_table, render_ascii_plot
from repro.model.algorithms import SingleThresholdRule
from repro.model.system import DistributedSystem
from repro.optimize.threshold_opt import optimal_symmetric_threshold
from repro.simulation.engine import MonteCarloEngine
from repro.simulation.runner import sweep_thresholds


def threshold_sweep(n: int, capacity) -> None:
    print(f"\n== Threshold sweep: {n} sources, server capacity {capacity} ==")
    result = sweep_thresholds(
        n, capacity, grid_size=11, simulate=True, trials=50_000, seed=1
    )
    rows = []
    for point in result.points:
        rows.append(
            [
                f"{float(point.parameter):.2f}",
                f"{float(point.exact):.5f}",
                f"{point.simulated:.5f}",
                "ok" if point.consistent else "MISMATCH",
            ]
        )
    print(
        format_table(
            ["threshold", "P(no overflow) exact", "simulated", "check"],
            rows,
        )
    )
    assert result.all_consistent()


def protocol_comparison(n: int, capacity) -> None:
    print(f"\n== Protocol comparison: {n} sources, capacity {capacity} ==")
    optimum = optimal_symmetric_threshold(n, capacity)
    random_placement = optimal_oblivious_winning_probability(capacity, n)
    coordinator = centralized_winning_probability(
        n, capacity, trials=60_000, seed=2
    )
    print(
        format_table(
            ["protocol", "communication", "P(no overflow)"],
            [
                [
                    "random placement (fair coin)",
                    "none",
                    f"{float(random_placement):.5f}",
                ],
                [
                    f"optimal threshold ({float(optimum.beta):.4f})",
                    "none",
                    f"{float(optimum.probability):.5f}",
                ],
                [
                    "omniscient coordinator (bound)",
                    "full",
                    f"{coordinator.estimate:.5f}",
                ],
            ],
        )
    )


def fleet_growth() -> None:
    print("\n== Fleet growth with capacity scaled as n/3 ==")
    series = []
    for n in (3, 4, 5, 6):
        capacity = Fraction(n, 3)
        optimum = optimal_symmetric_threshold(n, capacity)
        series.append(
            (float(n), float(optimum.probability))
        )
        print(
            f"  n={n}: capacity={capacity}, "
            f"beta*={float(optimum.beta):.4f}, "
            f"P*={float(optimum.probability):.5f}"
        )
    print(
        render_ascii_plot(
            [("optimal threshold P*", series)], width=40, height=10
        )
    )


def stress_one_configuration() -> None:
    """Replay the n=3 optimum at scale and report the overflow margin."""
    print("\n== Stress run: optimal protocol, 500k placements ==")
    optimum = optimal_symmetric_threshold(3, 1)
    system = DistributedSystem(
        [SingleThresholdRule(optimum.beta) for _ in range(3)], 1
    )
    engine = MonteCarloEngine(seed=3)
    summary = engine.estimate_winning_probability(system, trials=500_000)
    print(f"  simulated: {summary}")
    print(f"  exact:     {float(optimum.probability):.6f}")
    assert summary.covers(float(optimum.probability))


def main() -> None:
    threshold_sweep(3, 1)
    protocol_comparison(3, 1)
    protocol_comparison(4, Fraction(4, 3))
    fleet_growth()
    stress_one_configuration()


if __name__ == "__main__":
    main()
