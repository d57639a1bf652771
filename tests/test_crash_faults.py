"""Crash faults against every on-disk store.

The stores are the two sealed logs -- the checkpoint and the event log
-- and the disk cache.  A fault is what a crash or a bad disk leaves
behind: the last record cut at any byte (down to only its newline), a
flipped byte, a set high bit, foreign lines in the middle, or a temp
file orphaned between write and rename.

After each fault the reader keeps the committed records minus the
damaged ones, and counts the damaged ones.  Reopening a log for append
cuts a torn tail back to the last newline, so the next record lands
intact, and a sharded run resumed from a damaged checkpoint stays
bit-identical to a run that never failed.
"""

from fractions import Fraction

import pytest

from repro.cache import cache_stats, clear_cache, configure_cache
from repro.cache import memoized_kernel
from repro.fsutil import SealedLog
from repro.model.algorithms import SingleThresholdRule
from repro.model.system import DistributedSystem
from repro.observability.events import EventBus, read_events
from repro.observability.runmeta import new_run_context
from repro.simulation.faulttolerance import (
    CheckpointRecord,
    CheckpointWriter,
    FaultPlan,
    FaultSpec,
    FaultToleranceConfig,
    RetryPolicy,
    ShardRetriesExhaustedError,
    load_checkpoint,
)
from repro.simulation.parallel import estimate_winning_probability_sharded
from repro.simulation.rng import SeedSequenceFactory

# ----------------------------------------------------------------------
# The two sealed logs, behind one interface
# ----------------------------------------------------------------------
# Each store writes a log of five or more lines, reads it back as one id
# per intact line (so ``ids[k]`` names line ``k``) plus the corrupt
# count, and appends one more record through a reopened appender.


class CheckpointStore:
    name = "checkpoint"

    @staticmethod
    def record(index):
        return CheckpointRecord(
            "fp", index, f"s/shard-{index}", 100, 40 + index, 0.5, 0
        )

    def write(self, path):
        with CheckpointWriter(path, 1) as writer:
            for index in range(4):
                writer.append(self.record(index))

    def read(self, path):
        checkpoint = load_checkpoint(path, 1)
        ids = ["header"] + [record.index for record in checkpoint.records]
        return ids, checkpoint.corrupt_lines

    def reopen_and_append(self, path):
        with CheckpointWriter(path, 1) as writer:
            writer.append(self.record(9))
        return 9


class EventLogStore:
    name = "event-log"

    def write(self, path):
        with EventBus(path=path, context=new_run_context(command="t")) as bus:
            for index in range(4):
                bus.emit("shard", index=index)

    def read(self, path):
        log = read_events(path)
        return [self.id_of(e) for e in log.events], log.corrupt_lines

    @staticmethod
    def id_of(event):
        return (event["type"], event.get("index"))

    def reopen_and_append(self, path):
        # the bus always starts a fresh log, so the appender is reopened
        # directly, as any later writer of the same file would
        log = SealedLog(path)
        log.append({"type": "shard", "index": 9})
        log.close()
        return ("shard", 9)


STORES = [CheckpointStore(), EventLogStore()]


def _lines(path):
    return path.read_bytes().splitlines(keepends=True)


def _flip_middle_byte(line):
    middle = len(line) // 2
    flipped = b"0" if line[middle : middle + 1] != b"0" else b"1"
    return line[:middle] + flipped + line[middle + 1 :]


def _set_high_bit(line):
    # 0x22 -> 0xA2: the line stops being valid UTF-8
    return line.replace(b'"', b"\xa2", 1)


DAMAGE_IDS = ["flip-byte", "high-bit"]


@pytest.mark.parametrize("store", STORES, ids=lambda s: s.name)
class TestSealedLogFaults:
    def committed(self, store, tmp_path):
        path = tmp_path / "log.jsonl"
        store.write(path)
        ids, corrupt = store.read(path)
        assert corrupt == 0
        assert len(ids) == len(_lines(path)) >= 5
        return path, ids

    def test_last_record_cut_at_every_byte(self, store, tmp_path):
        path, ids = self.committed(store, tmp_path)
        intact = path.read_bytes()
        last_start = len(intact) - len(_lines(path)[-1])
        # every cut from "the whole last line" down to "only its newline"
        for cut in range(last_start, len(intact)):
            path.write_bytes(intact[:cut])
            torn = int(cut > last_start)
            assert store.read(path) == (ids[:-1], torn), cut
            added = store.reopen_and_append(path)
            assert store.read(path) == (ids[:-1] + [added], 0), cut

    @pytest.mark.parametrize(
        "damage", [_flip_middle_byte, _set_high_bit], ids=DAMAGE_IDS
    )
    def test_one_damaged_record_skipped(self, store, tmp_path, damage):
        path, ids = self.committed(store, tmp_path)
        intact = _lines(path)
        # line 0 is the header, whose damage is tested per store
        for k in range(1, len(intact)):
            lines = list(intact)
            lines[k] = damage(lines[k])
            path.write_bytes(b"".join(lines))
            survivors = ids[:k] + ids[k + 1 :]
            assert store.read(path) == (survivors, 1), k
            # a complete corrupt line is no torn tail: it stays
            added = store.reopen_and_append(path)
            assert store.read(path) == (survivors + [added], 1), k

    def test_foreign_middle_lines_skipped(self, store, tmp_path):
        path, ids = self.committed(store, tmp_path)
        lines = _lines(path)
        lines[2:2] = [
            b'{"type": "shard"}  not-a-checksum\n',
            b"garbage that is not json at all\n",
        ]
        path.write_bytes(b"".join(lines))
        assert store.read(path) == (ids, 2)


# ----------------------------------------------------------------------
# Resume from a damaged checkpoint
# ----------------------------------------------------------------------
TRIALS = 20_000
SHARDS = 8
SEED = 1234


def run_sharded(fault_tolerance=None):
    return estimate_winning_probability_sharded(
        DistributedSystem([SingleThresholdRule(Fraction(3, 5))] * 3, 1),
        TRIALS,
        SeedSequenceFactory(SEED),
        shards=SHARDS,
        workers=1,
        fault_tolerance=fault_tolerance,
    )


@pytest.fixture(scope="module")
def clean_estimate():
    return run_sharded()


@pytest.fixture
def partial_checkpoint(tmp_path):
    """A checkpoint of shards 0-4, left by a run whose shard 5 died."""
    path = tmp_path / "ckpt.jsonl"
    with pytest.raises(ShardRetriesExhaustedError):
        run_sharded(
            FaultToleranceConfig(
                retry=RetryPolicy(max_retries=0, backoff_base=0.0),
                fault_plan=FaultPlan({(None, 5, 0): FaultSpec("crash")}),
                checkpoint_path=path,
            )
        )
    assert len(load_checkpoint(path, SEED).records) == 5
    return path


def _resume(path):
    return run_sharded(FaultToleranceConfig(checkpoint_path=path, resume=True))


def _assert_bit_identical(estimate, clean):
    assert estimate.summary == clean.summary
    assert estimate.shard_outcomes == clean.shard_outcomes


def only_fingerprint(checkpoint):
    """The one run fingerprint a single-run checkpoint holds."""
    (fingerprint,) = {record.fingerprint for record in checkpoint.records}
    return fingerprint


class TestResumeFromDamagedCheckpoint:
    def test_torn_newline_then_resume_keeps_every_shard(
        self, partial_checkpoint, clean_estimate
    ):
        """Regression: a final record that lost only its newline is
        torn.  Resume re-runs its shard and cuts the tail before
        appending, so no later record is glued onto it."""
        path = partial_checkpoint
        path.write_bytes(path.read_bytes()[:-1])
        before = load_checkpoint(path, SEED)
        assert (len(before.records), before.corrupt_lines) == (4, 1)
        estimate = _resume(path)
        _assert_bit_identical(estimate, clean_estimate)
        assert estimate.resumed_shards == 4
        after = load_checkpoint(path, SEED)
        assert after.corrupt_lines == 0
        assert len(after.records) == SHARDS
        assert len(after.outcomes(only_fingerprint(after))) == SHARDS

    def test_resume_after_a_cut_at_every_byte(
        self, partial_checkpoint, clean_estimate
    ):
        path = partial_checkpoint
        intact = path.read_bytes()
        last_start = len(intact) - len(_lines(path)[-1])
        for cut in range(last_start, len(intact)):
            path.write_bytes(intact[:cut])
            estimate = _resume(path)
            _assert_bit_identical(estimate, clean_estimate)
            assert estimate.resumed_shards == 4, cut
            after = load_checkpoint(path, SEED)
            assert after.corrupt_lines == 0, cut
            assert len(after.records) == SHARDS, cut

    @pytest.mark.parametrize(
        "damage", [_flip_middle_byte, _set_high_bit], ids=DAMAGE_IDS
    )
    @pytest.mark.parametrize("line", [3, -1], ids=["middle", "last"])
    def test_resume_after_a_damaged_record(
        self, partial_checkpoint, clean_estimate, damage, line
    ):
        path = partial_checkpoint
        lines = _lines(path)
        lines[line] = damage(lines[line])
        path.write_bytes(b"".join(lines))
        estimate = _resume(path)
        _assert_bit_identical(estimate, clean_estimate)
        assert estimate.resumed_shards == 4
        after = load_checkpoint(path, SEED)
        assert after.corrupt_lines == 1
        assert len(after.outcomes(only_fingerprint(after))) == SHARDS


# ----------------------------------------------------------------------
# The disk cache
# ----------------------------------------------------------------------
class TestDiskCacheFaults:
    @pytest.fixture
    def disk_kernel(self, tmp_path):
        calls = []

        @memoized_kernel
        def kernel(a, b):
            calls.append((a, b))
            return Fraction(a) + Fraction(b)

        configure_cache(directory=tmp_path)
        yield kernel, calls, tmp_path
        configure_cache(directory=None)

    def test_cut_entries_and_orphaned_temp_files(self, disk_kernel):
        kernel, calls, directory = disk_kernel
        value = kernel(1, 2)
        (entry,) = directory.glob("*.json")
        intact = entry.read_bytes()
        # a crash between write and rename leaves the temp file behind
        orphan = directory / f".{entry.name}.x1y2z3.tmp"
        orphan.write_bytes(intact[: len(intact) // 2])
        damaged = [intact[:cut] for cut in range(len(intact))]
        damaged.append(_set_high_bit(intact))
        for count, payload in enumerate(damaged, start=1):
            entry.write_bytes(payload)
            clear_cache(include_disk=False)
            assert kernel(1, 2) == value
            assert len(calls) == 1 + count
            disk = cache_stats()["disk"]
            assert disk["corrupt"] == count
            assert disk["entries"] == 1  # the orphan is not an entry
            assert entry.read_bytes() == intact  # recomputed and rewritten
        assert orphan.exists()
        clear_cache(include_disk=False)
        assert kernel(1, 2) == value
        assert len(calls) == 1 + len(damaged)  # a hit again
