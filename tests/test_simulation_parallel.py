"""Tests for the sharded parallel Monte Carlo executor.

The contract under test: a fixed root seed yields **bit-identical**
results for every worker count, on both execution paths (vectorised
no-communication systems and scalar communicating systems), because
the shard plan and the per-shard seed streams depend only on
``(trials, shards, stream, root seed)`` -- never on scheduling.
"""

import threading
from fractions import Fraction

import pytest

from repro.baselines.centralized import OmniscientPacker
from repro.model.algorithms import ObliviousCoin, SingleThresholdRule
from repro.model.communication import FullInformation
from repro.model.inputs import BetaInputs
from repro.model.system import DistributedSystem
from repro.simulation.engine import MonteCarloEngine
from repro.simulation.parallel import (
    DEFAULT_SHARDS,
    count_wins,
    estimate_winning_probability_sharded,
    plan_shards,
    resolve_shard_count,
    shard_stream_name,
)
from repro.simulation.rng import SeedSequenceFactory


def vector_system(n=3):
    return DistributedSystem([SingleThresholdRule(Fraction(3, 5))] * n, 1)


def scalar_system(n=3):
    """A communicating system (full information) forcing the scalar path."""
    return DistributedSystem(
        [OmniscientPacker(i, n) for i in range(n)],
        Fraction(3, 2),
        pattern=FullInformation(n),
    )


class TestPlanShards:
    def test_sums_to_trials(self):
        assert sum(plan_shards(1_000_003, 16)) == 1_000_003

    def test_even_split(self):
        assert plan_shards(100, 4) == [25, 25, 25, 25]

    def test_remainder_spread_over_leading_shards(self):
        assert plan_shards(10, 4) == [3, 3, 2, 2]

    def test_trials_less_than_shards(self):
        # one trial per shard, surplus shards dropped
        assert plan_shards(3, 8) == [1, 1, 1]

    def test_single_trial(self):
        assert plan_shards(1, 8) == [1]

    def test_default_shard_count(self):
        assert len(plan_shards(10**6)) == DEFAULT_SHARDS

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_shards(0, 4)
        with pytest.raises(ValueError):
            plan_shards(10, 0)
        assert resolve_shard_count(5, None) == 5

    def test_plan_is_worker_independent_by_construction(self):
        # the plan has no workers argument at all; pin the derived
        # stream names so the on-disk seed scheme cannot drift silently
        assert shard_stream_name("winning-probability", 3) == (
            "winning-probability/shard-3"
        )


class TestBitIdenticalAcrossWorkerCounts:
    @pytest.mark.parametrize("make_system", [vector_system, scalar_system])
    def test_workers_1_2_4_identical(self, make_system):
        trials = 3_000 if make_system is scalar_system else 50_000
        summaries = []
        for workers in (1, 2, 4):
            engine = MonteCarloEngine(seed=123)
            summaries.append(
                engine.estimate_winning_probability(
                    make_system(), trials=trials, workers=workers
                )
            )
        assert summaries[0] == summaries[1] == summaries[2]

    def test_shards_identical_across_workers_with_inputs(self):
        results = []
        for workers in (1, 3):
            est = estimate_winning_probability_sharded(
                vector_system(),
                20_000,
                SeedSequenceFactory(7),
                shards=8,
                workers=workers,
                inputs=BetaInputs(2, 5),
            )
            results.append(est)
        assert results[0].summary == results[1].summary
        assert results[0].shard_outcomes == results[1].shard_outcomes

    def test_explicit_shards_respected(self):
        est = estimate_winning_probability_sharded(
            vector_system(), 10_000, SeedSequenceFactory(1), shards=5
        )
        assert est.shards == 5
        assert sum(o.trials for o in est.shard_outcomes) == 10_000
        assert est.summary.trials == 10_000

    def test_serial_fallback_matches_pool(self):
        # workers=1 takes the in-process path; workers=2 the pool path.
        # Identical summaries prove the fallback is not a different
        # estimator, just a different scheduler.
        a = estimate_winning_probability_sharded(
            scalar_system(2), 500, SeedSequenceFactory(42), shards=4, workers=1
        )
        b = estimate_winning_probability_sharded(
            scalar_system(2), 500, SeedSequenceFactory(42), shards=4, workers=2
        )
        assert a.summary == b.summary


class TestPoolTeardown:
    def test_clean_finish_joins_the_executor_manager_thread(self):
        # A pool run that finishes cleanly waits for its executor to
        # shut down, so no manager thread is left closing its wakeup
        # pipe while the interpreter exits.
        from concurrent.futures.process import _ExecutorManagerThread

        def managers():
            return {
                thread
                for thread in threading.enumerate()
                if isinstance(thread, _ExecutorManagerThread)
                and thread.is_alive()
            }

        before = managers()
        for seed in range(3):
            estimate_winning_probability_sharded(
                vector_system(),
                4_000,
                SeedSequenceFactory(seed),
                shards=4,
                workers=2,
            )
            assert managers() <= before, seed


class TestShardEdgeCases:
    def test_trials_fewer_than_shards(self):
        est = estimate_winning_probability_sharded(
            vector_system(), 3, SeedSequenceFactory(9), shards=8, workers=4
        )
        assert est.shards == 3
        assert est.summary.trials == 3

    def test_single_trial(self):
        est = estimate_winning_probability_sharded(
            vector_system(), 1, SeedSequenceFactory(9), shards=8, workers=4
        )
        assert est.shards == 1
        assert est.summary.trials == 1

    def test_trials_not_divisible_by_shards(self):
        est = estimate_winning_probability_sharded(
            vector_system(), 10_001, SeedSequenceFactory(9), shards=4
        )
        assert [o.trials for o in est.shard_outcomes] == [
            2501, 2500, 2500, 2500,
        ]
        assert est.summary.trials == 10_001

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            estimate_winning_probability_sharded(
                vector_system(), 100, SeedSequenceFactory(1), workers=0
            )

    def test_unseeded_factory_still_runs(self):
        est = estimate_winning_probability_sharded(
            vector_system(), 1_000, SeedSequenceFactory(None), shards=4
        )
        assert est.summary.trials == 1_000

    def test_audit_records_shard_streams(self):
        factory = SeedSequenceFactory(3)
        estimate_winning_probability_sharded(
            vector_system(), 100, factory, stream="s", shards=2
        )
        issued = factory.issued_streams()
        assert issued == {"s/shard-0": 1, "s/shard-1": 1}


class TestEngineIntegration:
    def test_default_path_unchanged_by_new_knobs(self):
        # workers=None, shards=None keeps the historical single-stream
        # serial loop: same result as before this feature existed.
        system = vector_system()
        a = MonteCarloEngine(seed=5).estimate_winning_probability(
            system, trials=10_000
        )
        b = MonteCarloEngine(seed=5).estimate_winning_probability(
            system, trials=10_000
        )
        assert a == b

    def test_shards_without_workers_uses_sharded_path(self):
        system = vector_system()
        sharded = MonteCarloEngine(seed=5).estimate_winning_probability(
            system, trials=10_000, shards=8
        )
        parallel = MonteCarloEngine(seed=5).estimate_winning_probability(
            system, trials=10_000, shards=8, workers=2
        )
        assert sharded == parallel

    def test_sharded_estimate_statistically_sound(self):
        from repro.core.nonoblivious import (
            symmetric_threshold_winning_probability,
        )

        beta = Fraction(3, 5)
        system = DistributedSystem([SingleThresholdRule(beta)] * 4, Fraction(4, 3))
        exact = symmetric_threshold_winning_probability(beta, 4, Fraction(4, 3))
        summary = MonteCarloEngine(seed=11).estimate_winning_probability(
            system, trials=120_000, workers=2
        )
        assert summary.covers(float(exact))

    def test_count_wins_matches_engine_serial_loop(self):
        system = vector_system()
        rng = SeedSequenceFactory(5).generator("winning-probability")
        wins = count_wins(system, 10_000, rng)
        summary = MonteCarloEngine(seed=5).estimate_winning_probability(
            system, trials=10_000
        )
        assert wins == summary.successes

    def test_sweep_forwards_workers(self):
        from repro.simulation.runner import sweep_thresholds

        a = sweep_thresholds(
            3, 1, grid_size=3, simulate=True, trials=8_000, seed=2,
            workers=1,
        )
        b = sweep_thresholds(
            3, 1, grid_size=3, simulate=True, trials=8_000, seed=2,
            workers=2,
        )
        assert [p.simulated for p in a.points] == [
            p.simulated for p in b.points
        ]


class TestPickleFallbackDiagnostics:
    """The serial fallback for unpicklable work must be *visible*: a
    counter plus the exception class that caused it, never a silent
    degradation (and never a blanket ``except Exception``)."""

    def test_unpicklable_system_falls_back_and_counts(self):
        from repro.observability import use_instrumentation

        system = scalar_system(2)
        # full-information patterns carry per-instance closures that
        # pickle refuses; verify the premise before relying on it
        import pickle

        with pytest.raises((pickle.PicklingError, TypeError, AttributeError)):
            pickle.dumps(system.algorithms[0].share)

        class Unpicklable(DistributedSystem):
            """A system whose pickling always fails."""

            def __reduce__(self):
                raise pickle.PicklingError("not today")

        bad = Unpicklable([SingleThresholdRule(Fraction(3, 5))] * 2, 1)
        with use_instrumentation() as instr:
            est = estimate_winning_probability_sharded(
                bad, 2_000, SeedSequenceFactory(4), shards=4, workers=2
            )
        counters = instr.metrics.snapshot().counters
        assert est.workers_used == 1
        assert counters["engine.pickle_fallback"] == 1
        assert counters["engine.pickle_fallback.PicklingError"] == 1

    def test_picklable_pool_run_records_no_fallback(self):
        from repro.observability import use_instrumentation

        with use_instrumentation() as instr:
            estimate_winning_probability_sharded(
                vector_system(), 2_000, SeedSequenceFactory(4),
                shards=4, workers=2,
            )
        counters = instr.metrics.snapshot().counters
        assert "engine.pickle_fallback" not in counters

    def test_non_serialisation_errors_are_not_swallowed(self):
        import pickle as pickle_module

        from repro.simulation.parallel import _pickle_failure

        class ExplodesOnPickle:
            def __reduce__(self):
                raise KeyboardInterrupt  # not a serialisation failure

        assert _pickle_failure(object()) is None
        with pytest.raises(KeyboardInterrupt):
            _pickle_failure(ExplodesOnPickle())

        class MerelyUnpicklable:
            def __reduce__(self):
                raise pickle_module.PicklingError("no")

        assert _pickle_failure(MerelyUnpicklable()) == "PicklingError"


class TestFaultToleranceForwarding:
    """workers/shards gained a sibling knob: fault_tolerance must flow
    through sweeps without changing any number (chaos faults
    included)."""

    def test_sweep_forwards_fault_tolerance(self):
        from repro.simulation.faulttolerance import (
            FaultPlan,
            FaultToleranceConfig,
            RetryPolicy,
        )
        from repro.simulation.runner import sweep_thresholds

        clean = sweep_thresholds(
            3, 1, grid_size=3, simulate=True, trials=8_000, seed=2,
            workers=2,
        )
        chaotic = sweep_thresholds(
            3, 1, grid_size=3, simulate=True, trials=8_000, seed=2,
            workers=2,
            fault_tolerance=FaultToleranceConfig(
                retry=RetryPolicy(max_retries=1, backoff_base=0.0),
                fault_plan=FaultPlan.single("crash", shard=2),
            ),
        )
        assert [p.simulated for p in clean.points] == [
            p.simulated for p in chaotic.points
        ]
