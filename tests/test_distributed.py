"""Tests for the lease-based distributed executor.

The contract under test -- the *distributed bit-identity invariant*:
with a seeded factory, a run whose shards are leased to remote workers
over TCP returns a summary and per-shard outcomes **equal to the
serial engine's**, under every fault the chaos layer can inject --
worker crashes, hung shards killed by lease expiry, slow shards,
corrupt summaries, dropped / delayed / duplicated summary frames,
severed connections, and total worker absence.  The argument is the
same as for the in-process executors: every recovery path replays the
*same* named seed stream, so faults change when and where shards
execute, never what they draw.

Alongside: unit tests for the sealed frame codec, the CLI chaos-spec
parser, duplicate-summary idempotence, degradation to local execution,
and the real ``repro work`` subprocess transport.
"""

import dataclasses
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from repro.distributed import (
    DistributedConfig,
    estimate_winning_probability_distributed,
)
from repro.distributed.chaos import parse_chaos_spec, parse_chaos_specs
from repro.distributed.protocol import (
    MAX_FRAME_BYTES,
    FrameError,
    PayloadDigestError,
    ProtocolError,
    decode_blob,
    encode_blob,
    encode_frame,
    open_payload,
    seal_payload,
)
from repro.errors import ValidationError
from repro.model.algorithms import SingleThresholdRule
from repro.model.system import DistributedSystem
from repro.observability import use_instrumentation
from repro.observability.events import EventBus
from repro.simulation.faulttolerance import (
    FaultPlan,
    FaultSpec,
    FaultToleranceConfig,
    RetryPolicy,
)
from repro.simulation.parallel import estimate_winning_probability_sharded
from repro.simulation.rng import SeedSequenceFactory

SEED = 123
TRIALS = 4000
SHARDS = 6
STREAM = "distributed-test"


def make_system(n=3, beta=Fraction(3, 5), delta=1):
    return DistributedSystem([SingleThresholdRule(beta)] * n, delta)


def serial_reference():
    return estimate_winning_probability_sharded(
        make_system(),
        TRIALS,
        SeedSequenceFactory(SEED),
        stream=STREAM,
        shards=SHARDS,
    )


def run_distributed(
    local_workers,
    fault_plan=None,
    lease_seconds=0.3,
    max_retries=3,
    instrumentation=None,
    progress=None,
    config_kwargs=None,
):
    """One distributed run with test-friendly timing defaults."""
    kwargs = dict(
        port=0,
        lease_seconds=lease_seconds,
        wait_for_workers_seconds=5.0,
        idle_grace_seconds=0.3,
        frame_timeout_seconds=10.0,
    )
    kwargs.update(config_kwargs or {})
    return estimate_winning_probability_distributed(
        make_system(),
        TRIALS,
        SeedSequenceFactory(SEED),
        stream=STREAM,
        shards=SHARDS,
        fault_tolerance=FaultToleranceConfig(
            retry=RetryPolicy(max_retries=max_retries, backoff_base=0.0),
            fault_plan=fault_plan,
        ),
        config=DistributedConfig(**kwargs),
        local_workers=local_workers,
        instrumentation=instrumentation,
        progress=progress,
    )


def assert_identical(estimate, reference):
    """The invariant: summary and outcomes equal, bit for bit.

    ``ShardedEstimate`` equality includes ``workers_used`` (an
    execution fact that legitimately differs between transports), so
    the invariant compares the result fields directly.
    """
    assert estimate.summary == reference.summary
    assert estimate.shard_outcomes == reference.shard_outcomes


# ---------------------------------------------------------------------------
# the frame codec
# ---------------------------------------------------------------------------


class TestFrameCodec:
    def test_seal_open_roundtrip(self):
        payload = {"type": "lease", "shard": 3, "trials": 1000}
        assert open_payload(seal_payload(payload)) == payload

    def test_open_rejects_flipped_bit(self):
        body = bytearray(seal_payload({"type": "summary", "wins": 412}))
        # flip a digit inside the wins value, keep valid JSON
        index = body.index(b"412")
        body[index] = ord("9")
        with pytest.raises(FrameError):
            open_payload(bytes(body))

    def test_open_rejects_missing_checksum(self):
        with pytest.raises(FrameError):
            open_payload(b'{"type": "hello"}')

    def test_open_rejects_non_object(self):
        with pytest.raises(FrameError):
            open_payload(b"[1, 2, 3]")

    def test_open_rejects_garbage(self):
        with pytest.raises(FrameError):
            open_payload(b"\xff\xfe not json")

    def test_encode_frame_length_prefix(self):
        frame = encode_frame({"type": "goodbye"})
        length = int.from_bytes(frame[:4], "big")
        assert length == len(frame) - 4
        assert 0 < length <= MAX_FRAME_BYTES
        assert open_payload(frame[4:]) == {"type": "goodbye"}

    def test_blob_roundtrip(self):
        obj = {"system": make_system(), "inputs": None}
        blob = encode_blob(obj)
        decoded = decode_blob(blob)
        assert decoded["inputs"] is None
        assert decoded["system"].n == 3

    def test_blob_digest_guard(self):
        blob = encode_blob([1, 2, 3])
        blob["sha256"] = "0" * 64
        with pytest.raises(PayloadDigestError):
            decode_blob(blob)

    def test_blob_malformed(self):
        with pytest.raises(FrameError):
            decode_blob({"data": "!!!not-base64!!!", "sha256": "00"})
        with pytest.raises(FrameError):
            decode_blob({"sha256": "00"})

    def test_oversized_frame_rejected(self):
        with pytest.raises(ProtocolError):
            encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})


# ---------------------------------------------------------------------------
# the chaos-spec parser
# ---------------------------------------------------------------------------


class TestChaosSpecs:
    def test_parse_untimed(self):
        assert parse_chaos_spec("crash:0") == ("crash", 0, 0.0)
        assert parse_chaos_spec("dup:5") == ("dup", 5, 0.0)

    def test_parse_timed(self):
        assert parse_chaos_spec("hang:2:1.5") == ("hang", 2, 1.5)
        assert parse_chaos_spec("delay:1:0.25") == ("delay", 1, 0.25)

    @pytest.mark.parametrize(
        "bad",
        [
            "crash",  # no shard
            "crash:0:1.0",  # duration on an untimed kind
            "hang:2",  # timed kind without duration
            "explode:0",  # unknown kind
            "crash:x",  # non-integer shard
            "crash:-1",  # negative shard
            "slow:0:abc",  # non-numeric duration
            "slow:0:-1",  # negative duration
            "a:b:c:d",  # too many fields
        ],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValidationError):
            parse_chaos_spec(bad)

    def test_specs_build_plan(self):
        plan = parse_chaos_specs(["crash:0", "delay:2:0.5"])
        assert plan.compute_fault("s", 0, 0).kind == "crash"
        assert plan.network_fault("s", 2, 0).kind == "delay"
        assert plan.compute_fault("s", 2, 0) is None
        assert plan.network_fault("s", 0, 0) is None

    def test_specs_empty_is_none(self):
        assert parse_chaos_specs([]) is None

    def test_specs_duplicate_target_rejected(self):
        with pytest.raises(ValidationError):
            parse_chaos_specs(["crash:1", "drop:1"])


# ---------------------------------------------------------------------------
# the bit-identity invariant: clean runs
# ---------------------------------------------------------------------------


class TestCleanRuns:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_identical_to_serial(self, workers):
        reference = serial_reference()
        estimate = run_distributed(workers, lease_seconds=30.0)
        assert_identical(estimate, reference)
        assert estimate.salvaged_shards == 0
        assert not estimate.failures

    def test_workers_used_reports_peak(self):
        estimate = run_distributed(2, lease_seconds=30.0)
        assert 1 <= estimate.workers_used <= 2

    def test_three_transports_record_the_same_run(self):
        """Serial, pool and TCP feed one shard-run ledger, so a clean
        run of one plan records the same progress, ``shard`` events
        and outcomes on each; only timings and worker ids differ."""

        def record(transport):
            reports, events = [], []
            with use_instrumentation() as instr:
                instr.events = EventBus(
                    subscribers=[events.append], metrics=instr.metrics
                )
                if transport == "tcp":
                    estimate = run_distributed(
                        2,
                        lease_seconds=30.0,
                        instrumentation=instr,
                        progress=reports.append,
                    )
                else:
                    estimate = estimate_winning_probability_sharded(
                        make_system(),
                        TRIALS,
                        SeedSequenceFactory(SEED),
                        stream=STREAM,
                        shards=SHARDS,
                        workers=1 if transport == "serial" else 2,
                        instrumentation=instr,
                        progress=reports.append,
                    )
            progress = [
                dataclasses.replace(r, elapsed_seconds=None) for r in reports
            ]
            shard_events = [
                {
                    key: value
                    for key, value in event.items()
                    if key not in ("t_ns", "elapsed_ns", "worker")
                }
                for event in events
                if event["type"] == "shard"
            ]
            return progress, shard_events, estimate.shard_outcomes

        serial = record("serial")
        assert len(serial[0]) == len(serial[1]) == SHARDS
        assert record("pool") == serial
        assert record("tcp") == serial


# ---------------------------------------------------------------------------
# the chaos matrix: every fault kind, several worker counts
# ---------------------------------------------------------------------------

# (kind, fault seconds, lease seconds): hung shards need a lease short
# enough to expire under them; slow/delayed shards need one that does
# NOT expire, so the late summary itself is what gets exercised.
CHAOS_MATRIX = [
    ("crash", 0.0, 0.3),
    ("hang", 1.0, 0.25),
    ("slow", 0.4, 5.0),
    ("corrupt", 0.0, 0.3),
    ("drop", 0.0, 0.3),
    ("delay", 0.5, 5.0),
    ("partition", 0.0, 0.3),
    ("dup", 0.0, 0.3),
]


class TestChaosMatrix:
    @pytest.mark.parametrize(
        "kind,seconds,lease",
        CHAOS_MATRIX,
        ids=[row[0] for row in CHAOS_MATRIX],
    )
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_fault_preserves_bit_identity(self, kind, seconds, lease, workers):
        reference = serial_reference()
        plan = FaultPlan({(None, 2, 0): FaultSpec(kind, seconds=seconds)})
        estimate = run_distributed(
            workers, fault_plan=plan, lease_seconds=lease
        )
        assert_identical(estimate, reference)

    def test_corrupt_summary_rejected_then_replayed(self):
        reference = serial_reference()
        plan = FaultPlan({(None, 1, 0): FaultSpec("corrupt")})
        estimate = run_distributed(2, fault_plan=plan)
        assert_identical(estimate, reference)
        assert any(f.kind == "rejected" for f in estimate.failures)

    def test_crash_reassigns_or_salvages(self):
        reference = serial_reference()
        plan = FaultPlan({(None, 0, 0): FaultSpec("crash")})
        estimate = run_distributed(2, fault_plan=plan)
        assert_identical(estimate, reference)
        assert any(f.kind == "disconnect" for f in estimate.failures)

    def test_two_simultaneous_faults(self):
        reference = serial_reference()
        plan = FaultPlan(
            {
                (None, 0, 0): FaultSpec("partition"),
                (None, 3, 0): FaultSpec("dup"),
            }
        )
        estimate = run_distributed(2, fault_plan=plan)
        assert_identical(estimate, reference)


# ---------------------------------------------------------------------------
# duplicate summaries are idempotent
# ---------------------------------------------------------------------------


class TestDuplicateIdempotence:
    def test_dup_counted_once(self):
        reference = serial_reference()
        plan = FaultPlan({(None, 2, 0): FaultSpec("dup")})
        with use_instrumentation() as instr:
            instr.events = EventBus(subscribers=[], metrics=instr.metrics)
            estimate = run_distributed(
                2, fault_plan=plan, instrumentation=instr
            )
            counters = instr.metrics.snapshot().counters
        assert_identical(estimate, reference)
        assert counters.get("distributed.duplicate_summaries", 0) >= 1
        # the duplicate changed nothing: each shard's trials counted once
        total = sum(o.trials for o in estimate.shard_outcomes)
        assert total == TRIALS


# ---------------------------------------------------------------------------
# the degradation ladder
# ---------------------------------------------------------------------------


class TestDegradation:
    def test_no_workers_degrades_to_local(self):
        reference = serial_reference()
        estimate = run_distributed(
            0, config_kwargs={"wait_for_workers_seconds": 0.2}
        )
        assert_identical(estimate, reference)
        assert estimate.salvaged_shards == SHARDS
        assert estimate.workers_used == 1

    def test_progress_fires_once_per_shard_in_order(self):
        reports = []
        run_distributed(2, lease_seconds=30.0, progress=reports.append)
        assert [r.index for r in reports] == list(range(SHARDS))
        assert all(r.total_shards == SHARDS for r in reports)

    def test_progress_order_survives_chaos(self):
        plan = FaultPlan({(None, 0, 0): FaultSpec("drop")})
        reports = []
        run_distributed(2, fault_plan=plan, progress=reports.append)
        assert [r.index for r in reports] == list(range(SHARDS))
        assert reports[0].recovered  # shard 0 needed a second lease


# ---------------------------------------------------------------------------
# the real transport: repro work subprocesses
# ---------------------------------------------------------------------------


class TestSubprocessWorkers:
    def test_subprocess_workers_bit_identical(self, tmp_path):
        reference = serial_reference()
        src = Path(__file__).resolve().parent.parent / "src"
        spawned = []

        def on_ready(port):
            import os

            env = dict(os.environ)
            env["PYTHONPATH"] = str(src) + (
                os.pathsep + env["PYTHONPATH"]
                if env.get("PYTHONPATH")
                else ""
            )
            for index in range(2):
                spawned.append(
                    subprocess.Popen(
                        [
                            sys.executable,
                            "-m",
                            "repro.cli",
                            "work",
                            "--connect",
                            f"127.0.0.1:{port}",
                            "--worker-id",
                            f"test-{index}",
                        ],
                        env=env,
                        stdout=subprocess.DEVNULL,
                        stderr=subprocess.DEVNULL,
                    )
                )

        try:
            estimate = estimate_winning_probability_distributed(
                make_system(),
                TRIALS,
                SeedSequenceFactory(SEED),
                stream=STREAM,
                shards=SHARDS,
                config=DistributedConfig(
                    port=0,
                    lease_seconds=30.0,
                    wait_for_workers_seconds=30.0,
                    idle_grace_seconds=1.0,
                ),
                on_ready=on_ready,
            )
        finally:
            for proc in spawned:
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        assert_identical(estimate, reference)
        assert estimate.salvaged_shards == 0
        assert all(proc.returncode == 0 for proc in spawned)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lease_seconds": 0.0},
            {"frame_timeout_seconds": -1.0},
            {"wait_for_workers_seconds": -0.1},
            {"idle_grace_seconds": -1.0},
            {"max_assignments_per_shard": 0},
            {"port": 70000},
            {"max_phase_seconds": 0.0},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DistributedConfig(**kwargs)

    def test_negative_local_workers_rejected(self):
        with pytest.raises(ValueError):
            estimate_winning_probability_distributed(
                make_system(),
                100,
                SeedSequenceFactory(0),
                local_workers=-1,
            )
