"""Tests for fault-tolerant sharded execution.

The contract under test -- the *recovery invariant*: with a seeded
factory, the sharded estimate is **bit-identical** across

* serial vs parallel execution,
* injected worker crashes (with retries),
* injected hangs killed by the per-shard timeout,
* injected corrupt results rejected by the parent,
* checkpoint-then-resume-halfway,

because every recovery path replays the *same* named seed stream
(``f"{stream}/shard-{i}"``): faults change when shards execute, never
what they draw.  Alongside, unit tests for the retry policy, fault
plans, and the checkpoint file format (round trip, header and
fingerprint guards); crash faults against the file itself live in
``test_crash_faults.py``.
"""

import json
from fractions import Fraction

import pytest

from repro.distributed import (
    DistributedConfig,
    estimate_winning_probability_distributed,
)
from repro.model.algorithms import SingleThresholdRule
from repro.model.system import DistributedSystem
from repro.observability import use_instrumentation
from repro.simulation.engine import MonteCarloEngine
from repro.simulation.faulttolerance import (
    CheckpointError,
    CheckpointFingerprintError,
    CheckpointRecord,
    CheckpointWriter,
    FaultPlan,
    FaultSpec,
    FaultToleranceConfig,
    RetryPolicy,
    ShardRetriesExhaustedError,
    load_checkpoint,
    run_fingerprint,
    system_digest,
)
from repro.simulation.parallel import estimate_winning_probability_sharded
from repro.simulation.rng import SeedSequenceFactory

TRIALS = 20_000
SHARDS = 8
SEED = 1234


def vector_system(n=3):
    return DistributedSystem([SingleThresholdRule(Fraction(3, 5))] * n, 1)


def run_sharded(workers=1, fault_tolerance=None, progress=None, seed=SEED):
    return estimate_winning_probability_sharded(
        vector_system(),
        TRIALS,
        SeedSequenceFactory(seed),
        shards=SHARDS,
        workers=workers,
        fault_tolerance=fault_tolerance,
        progress=progress,
    )


def run_on(transport, fault_tolerance=None):
    """The standard plan through one transport: ``serial``, ``pool``
    (two processes) or ``tcp`` (two in-process lease workers)."""
    if transport == "tcp":
        return estimate_winning_probability_distributed(
            vector_system(),
            TRIALS,
            SeedSequenceFactory(SEED),
            shards=SHARDS,
            fault_tolerance=fault_tolerance,
            config=DistributedConfig(port=0, idle_grace_seconds=0.3),
            local_workers=2,
        )
    workers = 1 if transport == "serial" else 2
    return run_sharded(workers=workers, fault_tolerance=fault_tolerance)


def fast_retry(max_retries=2, **kwargs):
    """A retry policy with no backoff delay, for test speed."""
    return RetryPolicy(max_retries=max_retries, backoff_base=0.0, **kwargs)


@pytest.fixture(scope="module")
def clean_estimate():
    """The failure-free serial reference every recovery path must match."""
    return run_sharded(workers=1)


class TestRetryPolicy:
    def test_defaults_do_not_retry(self):
        assert RetryPolicy().max_attempts == 1

    def test_max_attempts(self):
        assert RetryPolicy(max_retries=3).max_attempts == 4

    def test_backoff_grows_then_caps(self):
        policy = RetryPolicy(
            backoff_base=0.1, backoff_factor=2.0, backoff_max=0.35
        )
        assert policy.backoff_seconds(0) == pytest.approx(0.1)
        assert policy.backoff_seconds(1) == pytest.approx(0.2)
        assert policy.backoff_seconds(2) == pytest.approx(0.35)  # capped
        assert policy.backoff_seconds(10) == pytest.approx(0.35)

    @pytest.mark.parametrize(
        "bad",
        [
            {"max_retries": -1},
            {"shard_timeout": 0},
            {"shard_timeout": -1.0},
            {"backoff_base": -0.1},
            {"backoff_factor": 0.5},
            {"backoff_max": -1.0},
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            RetryPolicy(**bad)

    def test_negative_retry_index_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff_seconds(-1)


class TestBackoffJitter:
    """Seeded jitter: deterministic, bounded, and opt-in per call."""

    def test_no_key_keeps_exact_schedule(self):
        # the historical contract: without a jitter key the schedule
        # is the bare exponential, exactly
        policy = RetryPolicy(
            backoff_base=0.1, backoff_factor=2.0, backoff_max=10.0,
            backoff_jitter=0.5,
        )
        assert policy.backoff_seconds(2) == pytest.approx(0.4)

    def test_keyed_jitter_is_deterministic(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_jitter=0.5)
        key = ("stream/shard-3", 3, 1)
        values = {policy.backoff_seconds(0, jitter_key=key) for _ in range(5)}
        assert len(values) == 1  # same key, same delay, every time

    def test_keyed_jitter_stays_in_band(self):
        policy = RetryPolicy(
            backoff_base=0.1, backoff_factor=2.0, backoff_max=10.0,
            backoff_jitter=0.5,
        )
        for index in range(6):
            bare = policy.backoff_seconds(index)
            jittered = policy.backoff_seconds(
                index, jitter_key=("s", 0, index)
            )
            assert bare * 0.5 <= jittered <= bare

    def test_different_keys_spread(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_jitter=0.5)
        delays = {
            policy.backoff_seconds(0, jitter_key=("s", shard, 1))
            for shard in range(16)
        }
        assert len(delays) > 1  # a fleet does not stampede in lockstep

    def test_zero_jitter_is_bare_schedule(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_jitter=0.0)
        assert policy.backoff_seconds(
            0, jitter_key=("s", 0, 1)
        ) == pytest.approx(0.1)

    def test_jitter_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(backoff_jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_jitter=-0.1)

    def test_jittered_retries_stay_bit_identical(self, clean_estimate):
        # the point of the feature: jittered backoff shifts *when*
        # retries run, never what they draw
        plan = FaultPlan(
            {
                (None, 1, 0): FaultSpec("crash"),
                (None, 3, 0): FaultSpec("crash"),
            }
        )
        recovered = run_sharded(
            workers=1,
            fault_tolerance=FaultToleranceConfig(
                retry=RetryPolicy(
                    max_retries=2,
                    backoff_base=0.01,
                    backoff_jitter=0.9,
                ),
                fault_plan=plan,
            ),
        )
        assert recovered.summary == clean_estimate.summary
        assert recovered.shard_outcomes == clean_estimate.shard_outcomes


class TestFaultPlan:
    def test_single(self):
        plan = FaultPlan.single("crash", shard=3)
        assert len(plan) == 1
        assert plan.lookup("any-stream", 3, 0).kind == "crash"
        assert plan.lookup("any-stream", 3, 1) is None
        assert plan.lookup("any-stream", 2, 0) is None

    def test_exact_stream_beats_wildcard(self):
        plan = FaultPlan(
            {
                (None, 0, 0): FaultSpec("crash"),
                ("special", 0, 0): FaultSpec("slow", seconds=0.5),
            }
        )
        assert plan.lookup("special", 0, 0).kind == "slow"
        assert plan.lookup("other", 0, 0).kind == "crash"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("meltdown")

    def test_negative_seconds_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("hang", seconds=-1.0)

    def test_bad_keys_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan({(None, -1, 0): FaultSpec("crash")})
        with pytest.raises(ValueError):
            FaultPlan({(7, 0, 0): FaultSpec("crash")})

    def test_resume_requires_checkpoint_path(self):
        with pytest.raises(ValueError):
            FaultToleranceConfig(resume=True)


class TestFingerprints:
    def test_fingerprint_changes_with_every_component(self):
        base = dict(
            root_seed=1,
            stream="s",
            plan=[10, 10],
            digest="d",
            batch_size=64,
        )
        reference = run_fingerprint(**base)
        for key, value in [
            ("root_seed", 2),
            ("stream", "t"),
            ("plan", [10, 11]),
            ("digest", "e"),
            ("batch_size", 65),
        ]:
            assert run_fingerprint(**{**base, key: value}) != reference

    def test_system_digest_is_stable_and_discriminating(self):
        assert system_digest(vector_system()) == system_digest(
            vector_system()
        )
        assert system_digest(vector_system(3)) != system_digest(
            vector_system(4)
        )

    def test_system_digest_survives_unpicklable_objects(self):
        digest = system_digest(lambda x: x)  # lambdas do not pickle
        assert len(digest) == 64


def shard_record(index, wins, elapsed=0.5, attempt=0):
    """A 100-trial shard record under fingerprint ``"fp"``."""
    return CheckpointRecord(
        "fp", index, f"s/shard-{index}", 100, wins, elapsed, attempt
    )


class TestCheckpointFile:
    def fill(self, path, root_seed=1, shards=3):
        with CheckpointWriter(path, root_seed) as writer:
            for i in range(shards):
                writer.append(shard_record(i, 40 + i))

    def test_round_trip(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        self.fill(path)
        checkpoint = load_checkpoint(path, 1)
        assert checkpoint.corrupt_lines == 0
        outcomes = checkpoint.outcomes("fp")
        assert sorted(outcomes) == [0, 1, 2]
        assert outcomes[2].wins == 42
        assert checkpoint.outcomes("other-fp") == {}

    def test_wrong_root_seed_refused(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        self.fill(path, root_seed=1)
        with pytest.raises(CheckpointFingerprintError):
            load_checkpoint(path, 2)
        with pytest.raises(CheckpointFingerprintError):
            CheckpointWriter(path, 2)

    def test_non_checkpoint_file_refused(self, tmp_path):
        path = tmp_path / "not-a-checkpoint.jsonl"
        # the unterminated last line is a "torn tail" only in a file
        # already known to be a checkpoint
        path.write_text(json.dumps({"type": "surprise"}) + "\nno newline")
        before = path.read_bytes()
        with pytest.raises(CheckpointError):
            load_checkpoint(path, 1)
        with pytest.raises(CheckpointError):
            CheckpointWriter(path, 1)
        # refused before a byte of it changes
        assert path.read_bytes() == before

    def test_missing_and_empty_files_refused(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "absent.jsonl", 1)
        empty = tmp_path / "empty.jsonl"
        empty.touch()
        with pytest.raises(CheckpointError):
            load_checkpoint(empty, 1)

    def test_reopening_appends_after_header_check(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        self.fill(path, shards=2)
        with CheckpointWriter(path, 1) as writer:
            writer.append(shard_record(2, 7, 0.1, 1))
        checkpoint = load_checkpoint(path, 1)
        assert sorted(checkpoint.outcomes("fp")) == [0, 1, 2]
        assert checkpoint.outcomes("fp")[2].attempt == 1

    def test_later_record_wins(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        with CheckpointWriter(path, 1) as writer:
            writer.append(shard_record(0, 10, 0.1, 0))
            writer.append(shard_record(0, 10, 0.2, 1))
        assert load_checkpoint(path, 1).outcomes("fp")[0].attempt == 1

    def test_unwritable_path_raises_checkpoint_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(CheckpointError):
            CheckpointWriter(blocker / "ckpt.jsonl", 1)


class TestRecoveryInvariant:
    """Bit-identity of the estimate across every recovery path."""

    def test_injected_crash_with_retry(self, clean_estimate):
        config = FaultToleranceConfig(
            retry=fast_retry(),
            fault_plan=FaultPlan.single("crash", shard=3),
        )
        estimate = run_sharded(workers=2, fault_tolerance=config)
        assert estimate.summary == clean_estimate.summary
        assert estimate.shard_outcomes == clean_estimate.shard_outcomes
        assert [f.index for f in estimate.failures] == [3]
        assert estimate.retried_shards == 1

    def test_crash_recovery_is_identical_on_the_serial_path(
        self, clean_estimate
    ):
        config = FaultToleranceConfig(
            retry=fast_retry(),
            fault_plan=FaultPlan.single("crash", shard=3),
        )
        estimate = run_sharded(workers=1, fault_tolerance=config)
        assert estimate.summary == clean_estimate.summary
        assert estimate.workers_used == 1

    def test_hang_killed_by_timeout(self, clean_estimate):
        config = FaultToleranceConfig(
            retry=fast_retry(shard_timeout=0.75),
            fault_plan=FaultPlan.single("hang", shard=1, seconds=60.0),
        )
        estimate = run_sharded(workers=2, fault_tolerance=config)
        assert estimate.summary == clean_estimate.summary
        kinds = {f.kind for f in estimate.failures if f.index == 1}
        assert "timeout" in kinds

    def test_corrupt_result_rejected_and_retried(self, clean_estimate):
        config = FaultToleranceConfig(
            retry=fast_retry(),
            fault_plan=FaultPlan.single("corrupt", shard=0),
        )
        estimate = run_sharded(workers=2, fault_tolerance=config)
        assert estimate.summary == clean_estimate.summary
        assert [f.kind for f in estimate.failures] == ["corrupt"]

    def test_crash_on_two_different_attempts_still_recovers(
        self, clean_estimate
    ):
        config = FaultToleranceConfig(
            retry=fast_retry(max_retries=2),
            fault_plan=FaultPlan(
                {
                    (None, 4, 0): FaultSpec("crash"),
                    (None, 4, 1): FaultSpec("crash"),
                }
            ),
        )
        estimate = run_sharded(workers=2, fault_tolerance=config)
        assert estimate.summary == clean_estimate.summary
        assert len(estimate.failures) == 2

    def test_retries_exhausted_raises_with_context(self):
        config = FaultToleranceConfig(
            retry=fast_retry(max_retries=1),
            fault_plan=FaultPlan(
                {
                    (None, 2, 0): FaultSpec("crash"),
                    (None, 2, 1): FaultSpec("crash"),
                }
            ),
        )
        with pytest.raises(ShardRetriesExhaustedError) as info:
            run_sharded(workers=2, fault_tolerance=config)
        assert info.value.index == 2
        assert info.value.attempts == 2

    def test_salvage_counts_untouched_shards(self, clean_estimate):
        config = FaultToleranceConfig(
            retry=fast_retry(),
            fault_plan=FaultPlan.single("crash", shard=3),
        )
        estimate = run_sharded(workers=2, fault_tolerance=config)
        assert estimate.salvaged_shards == SHARDS - 1
        assert clean_estimate.salvaged_shards == 0

    @pytest.mark.parametrize("transport", ["serial", "pool", "tcp"])
    def test_checkpoint_then_resume_halfway(
        self, tmp_path, clean_estimate, transport
    ):
        path = tmp_path / "ckpt.jsonl"
        # first run dies when shard 5 exhausts a zero-retry budget
        # (over TCP it crashes every worker that leases it, then the
        # local salvage) ...
        config = FaultToleranceConfig(
            retry=fast_retry(max_retries=0),
            fault_plan=FaultPlan(
                {(None, 5, a): FaultSpec("crash") for a in range(4)}
            ),
            checkpoint_path=path,
        )
        with pytest.raises(ShardRetriesExhaustedError):
            run_on(transport, fault_tolerance=config)
        # ... leaving a partial checkpoint behind
        assert path.exists()
        written = len(load_checkpoint(path, SEED).records)
        # the resumed run re-executes only the missing shards and is
        # bit-identical to the never-failed reference
        estimate = run_on(
            transport,
            fault_tolerance=FaultToleranceConfig(
                checkpoint_path=path, resume=True
            ),
        )
        assert estimate.summary == clean_estimate.summary
        assert estimate.shard_outcomes == clean_estimate.shard_outcomes
        assert estimate.resumed_shards >= 1
        assert estimate.resumed_shards < SHARDS
        assert estimate.resumed_shards == written

    def test_resume_with_wrong_seed_is_refused(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        run_sharded(
            workers=1,
            fault_tolerance=FaultToleranceConfig(checkpoint_path=path),
        )
        with pytest.raises(CheckpointFingerprintError):
            run_sharded(
                workers=1,
                seed=SEED + 1,
                fault_tolerance=FaultToleranceConfig(
                    checkpoint_path=path, resume=True
                ),
            )

    def test_full_checkpoint_resume_runs_nothing(
        self, tmp_path, clean_estimate
    ):
        path = tmp_path / "ckpt.jsonl"
        run_sharded(
            workers=1,
            fault_tolerance=FaultToleranceConfig(checkpoint_path=path),
        )
        estimate = run_sharded(
            workers=2,
            fault_tolerance=FaultToleranceConfig(
                checkpoint_path=path, resume=True
            ),
        )
        assert estimate.summary == clean_estimate.summary
        assert estimate.resumed_shards == SHARDS

    def test_corrupt_checkpoint_record_is_reexecuted(
        self, tmp_path, clean_estimate
    ):
        path = tmp_path / "ckpt.jsonl"
        run_sharded(
            workers=1,
            fault_tolerance=FaultToleranceConfig(checkpoint_path=path),
        )
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = lines[3].replace('"wins":', '"winz":', 1)
        path.write_text("".join(lines))
        estimate = run_sharded(
            workers=1,
            fault_tolerance=FaultToleranceConfig(
                checkpoint_path=path, resume=True
            ),
        )
        assert estimate.summary == clean_estimate.summary
        assert estimate.resumed_shards == SHARDS - 1


class TestProgressUnderFaults:
    def test_exactly_once_in_index_order_despite_crash(self):
        seen = []
        config = FaultToleranceConfig(
            retry=fast_retry(),
            fault_plan=FaultPlan.single("crash", shard=2),
        )
        run_sharded(workers=2, fault_tolerance=config, progress=seen.append)
        assert [p.index for p in seen] == list(range(SHARDS))
        assert [p.completed_shards for p in seen] == list(
            range(1, SHARDS + 1)
        )
        assert all(p.total_shards == SHARDS for p in seen)
        crashed = seen[2]
        assert crashed.recovered and crashed.attempt == 1
        assert all(
            not p.recovered and p.attempt == 0
            for p in seen
            if p.index != 2
        )

    def test_resumed_shards_report_recovered(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        run_sharded(
            workers=1,
            fault_tolerance=FaultToleranceConfig(checkpoint_path=path),
        )
        seen = []
        run_sharded(
            workers=1,
            fault_tolerance=FaultToleranceConfig(
                checkpoint_path=path, resume=True
            ),
            progress=seen.append,
        )
        assert [p.index for p in seen] == list(range(SHARDS))
        assert all(p.recovered for p in seen)

    def test_progress_counts_reconcile_with_summary(self):
        seen = []
        config = FaultToleranceConfig(
            retry=fast_retry(),
            fault_plan=FaultPlan.single("corrupt", shard=1),
        )
        estimate = run_sharded(
            workers=2, fault_tolerance=config, progress=seen.append
        )
        assert sum(p.wins for p in seen) == estimate.summary.successes
        assert sum(p.trials for p in seen) == estimate.summary.trials


class TestObservabilityIntegration:
    def test_failure_counters_recorded(self):
        config = FaultToleranceConfig(
            retry=fast_retry(),
            fault_plan=FaultPlan.single("crash", shard=3),
        )
        with use_instrumentation() as instr:
            run_sharded(workers=2, fault_tolerance=config)
        counters = instr.metrics.snapshot().counters
        assert counters["engine.shard_retries"] >= 1
        assert counters["engine.shard_failures"] >= 1
        assert counters["engine.shards_salvaged"] == SHARDS - 1

    def test_clean_run_records_no_failure_counters(self):
        with use_instrumentation() as instr:
            run_sharded(workers=2)
        counters = instr.metrics.snapshot().counters
        assert "engine.shard_retries" not in counters
        assert "engine.shard_failures" not in counters
        assert "engine.shards_salvaged" not in counters

    def test_failure_section_in_report(self):
        from repro.observability.reporting import render_report

        config = FaultToleranceConfig(
            retry=fast_retry(),
            fault_plan=FaultPlan.single("crash", shard=0),
        )
        with use_instrumentation() as instr:
            run_sharded(workers=2, fault_tolerance=config)
        report = render_report(instr)
        assert "failures and recoveries:" in report
        assert "engine.shard_retries" in report


class TestEngineIntegration:
    def test_engine_forwards_fault_tolerance(self):
        config = FaultToleranceConfig(
            retry=fast_retry(),
            fault_plan=FaultPlan.single("crash", shard=1),
        )
        clean = MonteCarloEngine(seed=SEED).estimate_winning_probability(
            vector_system(), trials=TRIALS, workers=2
        )
        chaotic = MonteCarloEngine(seed=SEED).estimate_winning_probability(
            vector_system(),
            trials=TRIALS,
            workers=2,
            fault_tolerance=config,
        )
        assert chaotic == clean

    def test_fault_tolerance_alone_implies_sharded_path(self):
        sharded = MonteCarloEngine(seed=SEED).estimate_winning_probability(
            vector_system(), trials=TRIALS, shards=None, workers=1
        )
        via_config = MonteCarloEngine(
            seed=SEED
        ).estimate_winning_probability(
            vector_system(),
            trials=TRIALS,
            fault_tolerance=FaultToleranceConfig(),
        )
        assert via_config == sharded
