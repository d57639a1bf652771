"""Tests for the simulation substrate (rng, statistics, engine, runner)."""

from fractions import Fraction

import numpy as np
import pytest

from repro.core.nonoblivious import symmetric_threshold_winning_probability
from repro.model.algorithms import ObliviousCoin, SingleThresholdRule
from repro.model.system import DistributedSystem
from repro.simulation.engine import MonteCarloEngine
from repro.simulation.rng import SeedSequenceFactory
from repro.simulation.runner import sweep_players, sweep_thresholds
from repro.simulation.statistics import BinomialSummary, wilson_interval


class TestSeedSequenceFactory:
    def test_reproducible(self):
        a = SeedSequenceFactory(1).generator("stream").random(5)
        b = SeedSequenceFactory(1).generator("stream").random(5)
        assert (a == b).all()

    def test_streams_independent_of_request_order(self):
        f1 = SeedSequenceFactory(1)
        f1.generator("first")
        via_second = f1.generator("target").random(3)
        f2 = SeedSequenceFactory(1)
        via_first = f2.generator("target").random(3)
        assert (via_second == via_first).all()

    def test_different_names_differ(self):
        f = SeedSequenceFactory(1)
        a = f.generator("a").random(5)
        b = f.generator("b").random(5)
        assert not (a == b).all()

    def test_crc32_colliding_names_get_distinct_streams(self):
        # "plumless" and "buckeroo" share one 32-bit CRC -- the classic
        # collision pair.  The old crc32-keyed derivation handed both
        # names the *same* generator; the full-digest keying must not.
        import zlib

        assert zlib.crc32(b"plumless") == zlib.crc32(b"buckeroo")
        f = SeedSequenceFactory(1)
        a = f.generator("plumless").random(8)
        b = f.generator("buckeroo").random(8)
        assert not (a == b).all()

    def test_unseeded_crc32_colliding_names_distinct(self):
        # Unseeded mode must also key by the full name, not a 32-bit
        # reduction XORed into fresh entropy.
        f = SeedSequenceFactory(None)
        a = f.generator("plumless").random(8)
        b = f.generator("buckeroo").random(8)
        assert not (a == b).all()

    def test_spawn_key_is_full_digest(self):
        from repro.simulation.rng import stream_spawn_key

        key = stream_spawn_key("winning-probability")
        assert len(key) == 8
        assert all(0 <= word < 2**32 for word in key)
        assert stream_spawn_key("plumless") != stream_spawn_key("buckeroo")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            SeedSequenceFactory(1).generator("")

    def test_issue_audit(self):
        f = SeedSequenceFactory(1)
        f.generator("x")
        f.generator("x")
        f.generator("y")
        assert f.issued_streams() == {"x": 2, "y": 1}

    def test_unseeded_mode_works(self):
        gen = SeedSequenceFactory(None).generator("x")
        assert 0 <= gen.random() < 1


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(40, 100)
        assert lo <= 0.4 <= hi

    def test_clamped_to_unit_interval(self):
        lo, hi = wilson_interval(0, 10)
        assert lo == 0.0
        lo, hi = wilson_interval(10, 10)
        assert hi == 1.0

    def test_narrows_with_samples(self):
        w_small = wilson_interval(50, 100)
        w_big = wilson_interval(5000, 10000)
        assert (w_big[1] - w_big[0]) < (w_small[1] - w_small[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)
        with pytest.raises(ValueError):
            wilson_interval(1, 10, z_score=0)

    def test_coverage_on_simulated_binomials(self, rng):
        # empirical check: the z=3.89 interval essentially always
        # covers the true p on 200 replicates
        p = 0.3
        misses = 0
        for _ in range(200):
            k = rng.binomial(2000, p)
            lo, hi = wilson_interval(int(k), 2000)
            if not lo <= p <= hi:
                misses += 1
        assert misses == 0


class TestBinomialSummary:
    def test_properties(self):
        s = BinomialSummary(successes=30, trials=100)
        assert s.estimate == pytest.approx(0.3)
        assert s.lower <= 0.3 <= s.upper
        assert s.half_width > 0
        assert s.covers(0.3)
        assert not s.covers(0.9)
        assert "30/100" in str(s)

    def test_validates_on_construction(self):
        with pytest.raises(ValueError):
            BinomialSummary(successes=11, trials=10)


class TestMonteCarloEngine:
    def test_reproducibility(self):
        system = DistributedSystem(
            [SingleThresholdRule(Fraction(1, 2))] * 3, 1
        )
        a = MonteCarloEngine(seed=5).estimate_winning_probability(
            system, trials=10_000
        )
        b = MonteCarloEngine(seed=5).estimate_winning_probability(
            system, trials=10_000
        )
        assert a.successes == b.successes

    def test_covers_exact_value(self):
        beta = Fraction(3, 5)
        system = DistributedSystem(
            [SingleThresholdRule(beta)] * 4, Fraction(4, 3)
        )
        exact = symmetric_threshold_winning_probability(
            beta, 4, Fraction(4, 3)
        )
        summary = MonteCarloEngine(seed=11).estimate_winning_probability(
            system, trials=120_000
        )
        assert summary.covers(float(exact))

    def test_batching_boundary(self):
        # trials not divisible by batch size
        system = DistributedSystem([ObliviousCoin(Fraction(1, 2))] * 2, 1)
        engine = MonteCarloEngine(seed=3, batch_size=7)
        summary = engine.estimate_winning_probability(system, trials=100)
        assert summary.trials == 100

    def test_scalar_path_for_communicating_system(self):
        from repro.baselines.centralized import OmniscientPacker
        from repro.model.communication import FullInformation

        system = DistributedSystem(
            [OmniscientPacker(i, 2) for i in range(2)],
            1,
            pattern=FullInformation(2),
        )
        summary = MonteCarloEngine(seed=4).estimate_winning_probability(
            system, trials=2_000
        )
        # two players, capacity 1, greedy packing: always win
        assert summary.estimate == 1.0

    def test_trials_validation(self):
        system = DistributedSystem([ObliviousCoin(Fraction(1, 2))], 1)
        with pytest.raises(ValueError):
            MonteCarloEngine(seed=1).estimate_winning_probability(
                system, trials=0
            )

    def test_batch_size_validation(self):
        with pytest.raises(ValueError):
            MonteCarloEngine(seed=1, batch_size=0)

    def test_bin_load_distribution(self):
        system = DistributedSystem(
            [SingleThresholdRule(Fraction(1, 2))] * 3, 1
        )
        loads = MonteCarloEngine(seed=9).estimate_bin_load_distribution(
            system, trials=500
        )
        assert loads.shape == (500, 2)
        assert (loads >= 0).all()
        assert (loads.sum(axis=1) <= 3).all()

    def test_bin_load_distribution_honours_inputs(self):
        # Regression: the loads sampler used to hardcode U[0, 1] and
        # silently ignore non-uniform input distributions.  With
        # Beta(40, 2) inputs (mean ~0.95) and every player forced into
        # bin 0, the mean total load must sit near 0.95 n, far above
        # the uniform 0.5 n.
        from repro.model.inputs import BetaInputs

        system = DistributedSystem([SingleThresholdRule(1)] * 3, 10)
        engine = MonteCarloEngine(seed=21)
        loads = engine.estimate_bin_load_distribution(
            system, trials=2_000, inputs=BetaInputs(40, 2)
        )
        mean_total = float(loads.sum(axis=1).mean())
        assert mean_total > 2.7  # uniform inputs give ~1.5

    def test_bin_load_distribution_default_is_uniform(self):
        system = DistributedSystem([SingleThresholdRule(1)] * 3, 10)
        a = MonteCarloEngine(seed=22).estimate_bin_load_distribution(
            system, trials=200
        )
        from repro.model.inputs import UniformInputs

        b = MonteCarloEngine(seed=22).estimate_bin_load_distribution(
            system, trials=200, inputs=UniformInputs()
        )
        assert (a == b).all()


class TestSweeps:
    def test_threshold_sweep_exact_only(self):
        result = sweep_thresholds(3, 1, grid_size=5)
        assert len(result.points) == 5
        assert result.points[0].exact == Fraction(1, 6)
        assert result.points[-1].exact == Fraction(1, 6)
        assert result.points[0].simulated is None
        # Regression: an exact-only sweep used to "pass validation"
        # vacuously (all_consistent() == True with zero simulations).
        assert result.all_consistent() is None
        assert not result.any_simulated

    def test_threshold_sweep_with_simulation(self):
        result = sweep_thresholds(
            3, 1, grid_size=3, simulate=True, trials=40_000, seed=2
        )
        assert result.all_consistent() is True
        assert result.any_simulated
        for p in result.points:
            assert p.interval is not None

    def test_best_point(self):
        result = sweep_thresholds(3, 1, grid_size=21)
        best = result.best()
        # the true optimum 0.6220 is near the 0.6 grid point
        assert abs(float(best.parameter) - 0.6) <= 0.05

    def test_explicit_grid(self):
        result = sweep_thresholds(
            3, 1, grid=[Fraction(1, 4), Fraction(1, 2)]
        )
        assert [p.parameter for p in result.points] == [
            Fraction(1, 4),
            Fraction(1, 2),
        ]

    def test_player_sweep_default_is_oblivious_optimum(self):
        from repro.core.oblivious import (
            optimal_oblivious_winning_probability,
        )

        result = sweep_players([2, 3, 4], delta_of_n=lambda n: 1)
        assert result.points[1].exact == (
            optimal_oblivious_winning_probability(1, 3)
        )

    def test_player_sweep_validation(self):
        with pytest.raises(ValueError):
            sweep_players([0], delta_of_n=lambda n: 1)

    def test_player_sweep_rejects_single_player(self):
        """Regression: the guard used to admit n = 1, which the model
        does not define, and the failure surfaced deep in the kernels;
        it must be rejected at the API boundary with a clear message."""
        with pytest.raises(ValueError, match=r"player counts must be >= 2, got 1"):
            sweep_players([1], delta_of_n=lambda n: 1)
        with pytest.raises(ValueError, match=r"must be >= 2"):
            sweep_players([3, 1, 4], delta_of_n=lambda n: 1)

    def test_player_sweep_with_simulation(self):
        beta = Fraction(1, 2)
        result = sweep_players(
            [2, 3],
            delta_of_n=lambda n: 1,
            value_of_n=lambda n, d: (
                symmetric_threshold_winning_probability(beta, n, d)
            ),
            system_of_n=lambda n, d: DistributedSystem(
                [SingleThresholdRule(beta) for _ in range(n)], d
            ),
            simulate=True,
            trials=40_000,
            seed=5,
        )
        assert result.all_consistent() is True
        assert result.any_simulated

    def test_player_sweep_simulate_requires_system(self):
        with pytest.raises(ValueError):
            sweep_players([2], delta_of_n=lambda n: 1, simulate=True)
