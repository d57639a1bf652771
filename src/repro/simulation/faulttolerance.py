"""Fault tolerance for the sharded Monte Carlo executor.

At the trial counts needed to resolve tail probabilities near the
optimal threshold (10^7-10^9), a single crashed worker or one hung
shard must not discard hours of completed work.  This module supplies
the three ingredients the executor in
:mod:`repro.simulation.parallel` composes:

* **Retry policy** -- :class:`RetryPolicy` bounds how many times a
  failed shard is re-executed, with exponential backoff between
  attempts and an optional per-shard wall-clock timeout.  A retried
  shard replays the *same* named seed stream
  (``f"{stream}/shard-{i}"``), so the result is bit-identical to a
  run that never failed: the stream name, not the schedule, is the
  randomness.
* **Deterministic fault injection** -- :class:`FaultPlan` maps
  ``(stream, shard_index, attempt)`` keys to :class:`FaultSpec`
  actions.  Compute faults (crash, hang, slow, corrupt-result) fire
  inside the worker entry point before the trial loop; network faults
  (drop, delay, partition, dup) fire at the frame layer of the
  distributed transport (:mod:`repro.distributed`).  The plan is
  inert data threaded through both layers; it is only ever populated
  by tests and the CLI chaos mode, so every recovery path can be
  exercised reproducibly -- the same plan always fails the same
  attempt of the same shard.
* **Checkpoint/resume** -- completed shard outcomes stream to a JSONL
  checkpoint (:class:`CheckpointWriter`: append-then-``fsync``, one
  self-checksummed record per shard, a header pinning the root seed).
  :func:`load_checkpoint` returns the salvageable records for a run
  fingerprint (root seed, stream, shard plan, system digest), so a
  resumed run re-executes only missing or corrupt shards.

Nothing here touches a random stream: fault tolerance changes *when*
shards execute, never *what* they draw.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.fsutil import _open_line, _sealed_line, fsync_directory
from repro.observability.runmeta import run_header

__all__ = [
    "ALL_FAULT_KINDS",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "CheckpointFingerprintError",
    "CheckpointRecord",
    "CheckpointWriter",
    "CorruptShardResultError",
    "FAULT_KINDS",
    "NETWORK_FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "FaultToleranceConfig",
    "FaultToleranceError",
    "InjectedCrashError",
    "RetryPolicy",
    "ShardFailure",
    "ShardRetriesExhaustedError",
    "ShardTimeoutError",
    "backoff_jitter_unit",
    "load_checkpoint",
    "run_fingerprint",
    "system_digest",
]

CHECKPOINT_VERSION = 1

#: Compute-layer fault kinds: applied by the shard worker entry point
#: before the trial loop starts (serial, pool and remote paths alike).
FAULT_KINDS = ("crash", "hang", "slow", "corrupt")

#: Network-layer fault kinds: applied at the frame layer of the
#: distributed transport when a worker delivers a shard summary.
#: ``drop`` discards the summary frame (the lease expires and the
#: shard is reassigned), ``delay`` sleeps before sending, ``partition``
#: severs the connection mid-send (the worker reconnects), ``dup``
#: sends the summary twice (the coordinator must deduplicate).
NETWORK_FAULT_KINDS = ("drop", "delay", "partition", "dup")

#: Every fault kind a :class:`FaultPlan` accepts.
ALL_FAULT_KINDS = FAULT_KINDS + NETWORK_FAULT_KINDS


class FaultToleranceError(RuntimeError):
    """Base class for every failure the fault-tolerance layer raises."""


class InjectedCrashError(FaultToleranceError):
    """Raised inside a worker by a ``crash`` fault (chaos mode only)."""


class ShardTimeoutError(FaultToleranceError):
    """A shard exceeded the policy's per-shard wall-clock timeout."""


class CorruptShardResultError(FaultToleranceError):
    """A shard returned an impossible result (win count outside
    ``[0, trials]``); the parent rejects it and schedules a retry."""


class ShardRetriesExhaustedError(FaultToleranceError):
    """A shard failed more times than :attr:`RetryPolicy.max_retries`
    allows.  Carries enough context for callers to report which shard
    gave up, after how many attempts, and why."""

    def __init__(
        self, index: int, stream: str, attempts: int, last_error: str
    ):
        super().__init__(
            f"shard {index} (stream {stream!r}) failed {attempts} "
            f"attempt(s); last error: {last_error}"
        )
        self.index = index
        self.stream = stream
        self.attempts = attempts
        self.last_error = last_error


class CheckpointError(FaultToleranceError):
    """A checkpoint file could not be written or read."""


class CheckpointFingerprintError(CheckpointError):
    """A checkpoint belongs to a different run (root seed mismatch)."""


def backoff_jitter_unit(jitter_key: Tuple[Any, ...]) -> float:
    """A deterministic value in ``[0, 1)`` derived from *jitter_key*.

    The key's parts (typically stream name, shard index, attempt) are
    joined textually and hashed with SHA-256; the first 8 bytes become
    a uniform-looking fraction.  Pure arithmetic on the key -- no RNG
    object, no global state -- so retry scheduling stays exactly
    reproducible across runs, processes and machines.
    """
    text = "\x1f".join(str(part) for part in jitter_key)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class RetryPolicy:
    """How the executor responds to shard failures.

    ``max_retries`` bounds *re*-executions: a shard runs at most
    ``max_retries + 1`` times.  ``shard_timeout`` is a per-shard
    wall-clock limit in seconds, enforced only on the process-pool
    path (an in-process shard cannot be interrupted).  Backoff before
    retry ``k`` (0-based) is
    ``min(backoff_max, backoff_base * backoff_factor**k)`` seconds --
    the backoff only delays scheduling, it never touches a stream.

    When a *jitter key* is supplied to :meth:`backoff_seconds`, the
    delay is scaled down by a deterministic per-key fraction of up to
    ``backoff_jitter`` (SHA-256 of the key, no RNG state), so shards
    that fail simultaneously -- a killed worker drops every lease it
    held at once -- retry staggered instead of stampeding, while the
    same key always yields the same delay.  Jitter shapes *when* a
    retry runs, never *what* it draws, so replay stays bit-identical.
    """

    max_retries: int = 0
    shard_timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    backoff_jitter: float = 0.5

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError(
                f"shard_timeout must be positive, got {self.shard_timeout}"
            )
        if self.backoff_base < 0:
            raise ValueError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )
        if self.backoff_factor < 1:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.backoff_max < 0:
            raise ValueError(
                f"backoff_max must be >= 0, got {self.backoff_max}"
            )
        if not 0 <= self.backoff_jitter <= 1:
            raise ValueError(
                f"backoff_jitter must be in [0, 1], got "
                f"{self.backoff_jitter}"
            )

    @property
    def max_attempts(self) -> int:
        """Total executions allowed per shard (first try + retries)."""
        return self.max_retries + 1

    def backoff_seconds(
        self,
        retry_index: int,
        jitter_key: Optional[Tuple[Any, ...]] = None,
    ) -> float:
        """Delay before retry *retry_index* (0-based), in seconds.

        Without *jitter_key* the delay is the exact exponential
        schedule (the historical behaviour).  With a key -- the
        executor passes ``(stream, shard, attempt)`` -- the delay is
        multiplied by a deterministic factor in
        ``[1 - backoff_jitter, 1]`` derived from SHA-256 of the key:
        distinct shards de-synchronise, while the same shard's same
        attempt always waits the same time (the replay guarantee
        extends to scheduling).
        """
        if retry_index < 0:
            raise ValueError(
                f"retry_index must be >= 0, got {retry_index}"
            )
        delay = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor**retry_index,
        )
        if jitter_key is not None and self.backoff_jitter > 0 and delay > 0:
            delay *= 1.0 - self.backoff_jitter * backoff_jitter_unit(
                jitter_key
            )
        return delay


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: what happens and (for timed kinds) how long.

    Compute kinds fire in the shard worker: ``crash`` raises
    :class:`InjectedCrashError` before the shard consumes any
    randomness; ``hang`` and ``slow`` sleep *seconds* before running
    normally (a hang is just a sleep the caller's timeout or lease is
    expected to beat); ``corrupt`` returns an impossible win count
    (``trials + 1``) without running, which the parent's range check
    rejects.

    Network kinds fire at the distributed frame layer when the worker
    delivers its summary: ``drop`` discards the frame, ``delay``
    sleeps *seconds* before sending, ``partition`` severs the
    connection instead of sending, ``dup`` sends the frame twice.
    """

    kind: str
    seconds: float = 0.0

    def __post_init__(self):
        if self.kind not in ALL_FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{ALL_FAULT_KINDS}"
            )
        if self.seconds < 0:
            raise ValueError(
                f"seconds must be >= 0, got {self.seconds}"
            )

    @property
    def is_network(self) -> bool:
        """Whether this fault fires at the frame layer rather than in
        the shard worker."""
        return self.kind in NETWORK_FAULT_KINDS


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected faults.

    Keys are ``(stream, shard_index, attempt)`` where *stream* is the
    executor's base stream name (``None`` matches any stream, which is
    what the CLI chaos mode uses).  The plan is plain picklable data:
    it crosses the process boundary with the task and is consulted by
    the worker entry point before the trial loop starts, so the same
    plan deterministically fails the same attempts everywhere --
    serial path included.
    """

    faults: Mapping[Tuple[Optional[str], int, int], FaultSpec] = field(
        default_factory=dict
    )

    def __post_init__(self):
        for key, spec in self.faults.items():
            stream, index, attempt = key
            if stream is not None and not isinstance(stream, str):
                raise ValueError(f"stream key must be str or None: {key!r}")
            if index < 0 or attempt < 0:
                raise ValueError(
                    f"shard index and attempt must be >= 0: {key!r}"
                )
            if not isinstance(spec, FaultSpec):
                raise ValueError(
                    f"fault for {key!r} must be a FaultSpec, got {spec!r}"
                )

    @classmethod
    def single(
        cls,
        kind: str,
        shard: int,
        attempt: int = 0,
        stream: Optional[str] = None,
        seconds: float = 0.0,
    ) -> "FaultPlan":
        """A plan with exactly one fault (the common test/chaos case)."""
        return cls(
            {(stream, shard, attempt): FaultSpec(kind, seconds=seconds)}
        )

    def lookup(
        self, stream: str, shard_index: int, attempt: int
    ) -> Optional[FaultSpec]:
        """The fault to inject for this attempt, if any.  An exact
        stream match wins over the ``None`` wildcard."""
        spec = self.faults.get((stream, shard_index, attempt))
        if spec is None:
            spec = self.faults.get((None, shard_index, attempt))
        return spec

    def compute_fault(
        self, stream: str, shard_index: int, attempt: int
    ) -> Optional[FaultSpec]:
        """The compute-layer fault for this attempt, if any.  Network
        kinds are invisible here: they target the transport, and the
        shard worker must run normally underneath them."""
        spec = self.lookup(stream, shard_index, attempt)
        if spec is not None and spec.is_network:
            return None
        return spec

    def network_fault(
        self, stream: str, shard_index: int, attempt: int
    ) -> Optional[FaultSpec]:
        """The frame-layer fault for this attempt, if any.  Compute
        kinds are invisible here for the symmetric reason."""
        spec = self.lookup(stream, shard_index, attempt)
        if spec is not None and not spec.is_network:
            return None
        return spec

    def __len__(self) -> int:
        """Number of scheduled faults."""
        return len(self.faults)


@dataclass(frozen=True)
class FaultToleranceConfig:
    """Everything the sharded executor needs to survive failures.

    *retry* governs re-execution; *fault_plan* (tests/chaos mode only)
    injects deterministic failures; *checkpoint_path* streams completed
    shard outcomes to a JSONL file; *resume* additionally loads that
    file first and re-executes only shards it does not already hold.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    fault_plan: Optional[FaultPlan] = None
    checkpoint_path: Optional[Union[str, Path]] = None
    resume: bool = False

    def __post_init__(self):
        if self.resume and self.checkpoint_path is None:
            raise ValueError("resume=True requires a checkpoint_path")


@dataclass(frozen=True)
class ShardFailure:
    """One observed shard failure: which shard, which attempt, why.

    ``kind`` is one of ``"error"`` (the worker raised), ``"timeout"``
    (the shard exceeded the policy's wall-clock limit), ``"corrupt"``
    (the result failed the parent's range check), ``"pool"`` (the
    process pool died under the shard), ``"lease"`` (a distributed
    lease expired before the summary arrived), ``"disconnect"`` (the
    leasing worker's connection dropped), or ``"rejected"`` (a remote
    summary failed fingerprint validation).
    """

    index: int
    stream: str
    attempt: int
    kind: str
    message: str


# ---------------------------------------------------------------------------
# Run fingerprints
# ---------------------------------------------------------------------------


def system_digest(system: Any, inputs: Any = None) -> str:
    """A stable digest of the simulated system (and input distribution).

    Uses the pickle byte stream when the objects are picklable (they
    must be for the pool path anyway) and falls back to ``repr`` so the
    serial path can still fingerprint unpicklable systems.  The digest
    guards checkpoint reuse: a resumed run only salvages records whose
    fingerprint -- which includes this digest -- matches exactly.
    """
    try:
        payload = pickle.dumps((system, inputs), protocol=2)
    except Exception:
        payload = repr((system, inputs)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def run_fingerprint(
    root_seed: int,
    stream: str,
    plan: Sequence[int],
    digest: str,
    batch_size: int,
) -> str:
    """The identity of one sharded call, as stored on every checkpoint
    record: root seed, base stream, exact shard plan, system digest and
    batch size.  Two calls share a fingerprint iff their shard results
    are interchangeable bit for bit."""
    payload = json.dumps(
        {
            "root_seed": root_seed,
            "stream": stream,
            "plan": list(plan),
            "system": digest,
            "batch_size": batch_size,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Checkpoint file format
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckpointRecord:
    """One salvaged shard outcome as read back from a checkpoint."""

    index: int
    stream: str
    trials: int
    wins: int
    elapsed_seconds: Optional[float]
    attempt: int


class CheckpointWriter:
    """Streams completed shard outcomes to an append-only JSONL file.

    The first line is a header pinning the checkpoint version and the
    run's root seed; every further line is one shard record sealed
    with its own checksum.  Each ``append`` is written, flushed and
    ``fsync``-ed before returning, so a crash can lose at most the
    record being written -- and a torn final line is detected (and
    skipped) by the per-record checksum on load.  Reopening an
    existing checkpoint validates the header and keeps appending.
    """

    def __init__(self, path: Union[str, Path], root_seed: int):
        self._path = Path(path)
        self._root_seed = int(root_seed)
        try:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            fresh = (
                not self._path.exists()
                or self._path.stat().st_size == 0
            )
            if not fresh:
                _read_header(self._path, self._root_seed)
            self._handle = self._path.open("a")
            if fresh:
                # the common run stamp (run id, UTC time, version,
                # argv) makes the checkpoint joinable with the metrics
                # / trace / event-log artifacts of the same run; the
                # resume path ignores it, so old checkpoints load fine
                self._write_line(
                    {
                        "type": "header",
                        "version": CHECKPOINT_VERSION,
                        "root_seed": self._root_seed,
                        "meta": run_header(),
                    }
                )
                # per-record fsync makes the *contents* durable; the
                # brand-new file's directory entry needs its own sync
                # or the whole checkpoint can vanish on power loss
                fsync_directory(self._path.parent)
        except OSError as exc:
            raise CheckpointError(
                f"cannot open checkpoint {self._path}: {exc}"
            ) from exc

    @property
    def path(self) -> Path:
        """Where this writer appends."""
        return self._path

    def _write_line(self, payload: Dict[str, Any]) -> None:
        self._handle.write(_sealed_line(payload))
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def append(
        self,
        fingerprint: str,
        index: int,
        stream: str,
        trials: int,
        wins: int,
        elapsed_seconds: Optional[float],
        attempt: int,
    ) -> None:
        """Durably record one completed shard."""
        try:
            self._write_line(
                {
                    "type": "shard",
                    "fingerprint": fingerprint,
                    "index": int(index),
                    "stream": stream,
                    "trials": int(trials),
                    "wins": int(wins),
                    "elapsed_seconds": elapsed_seconds,
                    "attempt": int(attempt),
                }
            )
        except OSError as exc:
            raise CheckpointError(
                f"cannot append to checkpoint {self._path}: {exc}"
            ) from exc

    def close(self) -> None:
        """Close the underlying file handle."""
        self._handle.close()

    def __enter__(self) -> "CheckpointWriter":
        """Context-manager entry: the writer itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: close the file."""
        self.close()


def _read_header(path: Path, root_seed: int) -> None:
    """Validate an existing checkpoint's header against *root_seed*."""
    with path.open("rb") as handle:
        first = handle.readline()
    header = _open_line(first)
    if (
        header is None
        or header.get("type") != "header"
        or header.get("version") != CHECKPOINT_VERSION
    ):
        raise CheckpointError(
            f"{path} is not a version-{CHECKPOINT_VERSION} checkpoint "
            "(header missing or corrupt)"
        )
    if header.get("root_seed") != root_seed:
        raise CheckpointFingerprintError(
            f"checkpoint {path} was written for root seed "
            f"{header.get('root_seed')}, not {root_seed}; refusing to "
            "resume a different run"
        )


@dataclass(frozen=True)
class Checkpoint:
    """Everything salvageable from one checkpoint file."""

    records: Tuple[CheckpointRecord, ...]
    fingerprints: Tuple[str, ...]
    corrupt_lines: int

    def outcomes(self, fingerprint: str) -> Dict[int, CheckpointRecord]:
        """The per-shard records matching *fingerprint*, by index.
        Later records win (a shard re-checkpointed after a resume
        supersedes its older record)."""
        matching: Dict[int, CheckpointRecord] = {}
        for record, fp in zip(self.records, self.fingerprints):
            if fp == fingerprint:
                matching[record.index] = record
        return matching


def load_checkpoint(
    path: Union[str, Path], root_seed: int
) -> Checkpoint:
    """Read a checkpoint, keeping every intact record.

    Corrupt lines -- torn writes, flipped bytes, truncation -- fail to
    decode or fail their checksum and are *skipped* (counted in
    ``corrupt_lines``), never fatal: the executor simply re-runs those
    shards.  A missing file or unreadable header raises
    :class:`CheckpointError`; a header written for a different root
    seed raises :class:`CheckpointFingerprintError`.
    """
    target = Path(path)
    try:
        with target.open("rb") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint {target}: {exc}"
        ) from exc
    if not lines:
        raise CheckpointError(f"checkpoint {target} is empty")
    _read_header(target, root_seed)
    records = []
    fingerprints = []
    corrupt = 0
    for line in lines[1:]:
        if not line.strip():
            continue
        record = _open_line(line)
        if record is None or record.get("type") != "shard":
            corrupt += 1
            continue
        try:
            parsed = CheckpointRecord(
                index=int(record["index"]),
                stream=str(record["stream"]),
                trials=int(record["trials"]),
                wins=int(record["wins"]),
                elapsed_seconds=record.get("elapsed_seconds"),
                attempt=int(record.get("attempt", 0)),
            )
            fingerprint = str(record["fingerprint"])
        except (KeyError, TypeError, ValueError):
            corrupt += 1
            continue
        if not 0 <= parsed.wins <= parsed.trials:
            corrupt += 1
            continue
        records.append(parsed)
        fingerprints.append(fingerprint)
    return Checkpoint(
        records=tuple(records),
        fingerprints=tuple(fingerprints),
        corrupt_lines=corrupt,
    )
