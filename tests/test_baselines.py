"""Tests for repro.baselines.centralized."""

import numpy as np
import pytest

from repro.baselines.centralized import (
    OmniscientPacker,
    best_possible_win,
    centralized_winning_probability,
    greedy_assignment,
)


class TestBestPossibleWin:
    def test_trivially_feasible(self):
        assert best_possible_win([0.2, 0.3], 1.0)

    def test_trivially_infeasible(self):
        # total > 2 * capacity
        assert not best_possible_win([0.9, 0.9, 0.9], 1.0)

    def test_partition_needed(self):
        # total = 1.8 <= 2, split 0.9 / 0.9 works
        assert best_possible_win([0.9, 0.5, 0.4], 1.0)

    def test_infeasible_partition(self):
        # total 1.9 <= 2 but no subset sums into [0.9, 1.0]:
        # subsets of {0.85, 0.55, 0.5}: 0.85, 0.55, 0.5, 1.4, 1.35,
        # 1.05, 1.9 -- none in the window
        assert not best_possible_win([0.85, 0.55, 0.5], 1.0)

    def test_empty_inputs(self):
        assert best_possible_win([], 1.0)


class TestGreedyAssignment:
    def test_balances_two_items(self):
        bits = greedy_assignment([0.7, 0.6])
        assert bits[0] != bits[1]

    def test_preserves_input_order(self):
        inputs = [0.1, 0.9, 0.5]
        bits = greedy_assignment(inputs)
        assert len(bits) == 3
        # largest item placed first: 0.9 goes to bin 0
        assert bits[1] == 0

    def test_lpt_quality(self, rng):
        # greedy never loses when a 2-partition within capacity 1
        # exists for 3 items... not a theorem, but holds often; assert
        # the weaker guarantee: loads partition the total
        for _ in range(50):
            xs = rng.random(5).tolist()
            bits = greedy_assignment(xs)
            load0 = sum(x for x, b in zip(xs, bits) if b == 0)
            load1 = sum(x for x, b in zip(xs, bits) if b == 1)
            assert load0 + load1 == pytest.approx(sum(xs))
            assert abs(load0 - load1) <= max(xs) + 1e-12


class TestCentralizedWinningProbability:
    def test_n2_always_feasible(self):
        result = centralized_winning_probability(2, 1, trials=5_000, seed=1)
        assert result.estimate == 1.0

    def test_n3_known_value(self):
        # P(feasible) for n=3, delta=1: complement requires some subset
        # structure; validated against a direct per-trial loop
        fast = centralized_winning_probability(3, 1, trials=30_000, seed=2)
        rng = np.random.default_rng(2_000)
        slow_wins = sum(
            best_possible_win(rng.random(3), 1.0) for _ in range(30_000)
        )
        slow = slow_wins / 30_000
        assert abs(fast.estimate - slow) < 0.015

    def test_upper_bounds_distributed_protocols(self):
        from repro.optimize.threshold_opt import optimal_symmetric_threshold

        central = centralized_winning_probability(3, 1, trials=50_000, seed=3)
        threshold_best = optimal_symmetric_threshold(3, 1).probability
        assert central.interval[1] >= float(threshold_best)

    def test_validation(self):
        with pytest.raises(ValueError):
            centralized_winning_probability(0, 1)
        with pytest.raises(ValueError):
            centralized_winning_probability(21, 1)


class TestOmniscientPacker:
    def test_requires_full_information(self, rng):
        packer = OmniscientPacker(0, 3)
        with pytest.raises(ValueError, match="full information"):
            packer.decide(0.5, {1: 0.5}, rng)

    def test_consistent_joint_packing(self, rng):
        packers = [OmniscientPacker(i, 3) for i in range(3)]
        xs = [0.6, 0.5, 0.4]
        bits = []
        for i, p in enumerate(packers):
            observed = {j: xs[j] for j in range(3) if j != i}
            bits.append(p.decide(xs[i], observed, rng))
        assert bits == list(greedy_assignment(xs))

    def test_validation(self):
        with pytest.raises(ValueError):
            OmniscientPacker(3, 3)

