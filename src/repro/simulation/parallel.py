"""Sharded, parallel Monte Carlo execution.

The fixed-budget engine runs one trial loop on one stream.  At the
trial counts the balls-into-bins literature calls for (10^7-10^9 to
resolve tail probabilities), a single process is the bottleneck --
especially on the scalar path, where every trial executes the full
message-visibility machinery.  This module splits a trial budget into
**shards**, runs the shards across a process pool, and reduces the
per-shard win counts into the usual :class:`BinomialSummary`.

Reproducibility is the design constraint, not an afterthought:

* The shard plan depends only on ``(trials, shards)`` -- never on the
  worker count.  ``plan_shards(10**6, 16)`` is the same list whether it
  is executed by 1 worker or 64.
* Shard ``i`` of stream ``s`` draws from the named child stream
  ``f"{s}/shard-{i}"`` of the caller's :class:`SeedSequenceFactory`.
  Streams are keyed by name (SHA-256, see :mod:`repro.simulation.rng`),
  so a fixed root seed yields **bit-identical results regardless of
  worker count or scheduling order**.
* The reduction is a plain integer sum, which is associative and
  exact; no floating-point reduction order can perturb the summary.

Execution is **fault tolerant** (see
:mod:`repro.simulation.faulttolerance`): shards are submitted
individually, each with its own wall-clock deadline and bounded
retries, and a broken process pool is rebuilt rather than trusted.
Because a retried shard replays the *same* named stream, every
recovery path -- retry, timeout, pool reconstruction, serial salvage,
checkpoint resume -- produces the bit-identical summary; only the
wall-clock (and the failure telemetry) differs.  Completed shards are
never discarded: when the pool cannot be (re)built, only the
*missing* shards run on the in-process serial path.

The per-run state and its accounting live in one private ledger,
``_ShardRun``, which the TCP coordinator of :mod:`repro.distributed`
uses too; the process-pool loop here and the coordinator's lease
server are the two transport loops that feed it.
"""

from __future__ import annotations

import math
import pickle
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

import numpy as np

from repro.errors import ValidationError
from repro.model.system import DistributedSystem
from repro.observability import Instrumentation, get_instrumentation
from repro.observability.metrics import MetricsRegistry, MetricsSnapshot
from repro.observability.progress import ProgressCallback, ShardProgress
from repro.simulation.faulttolerance import (
    CheckpointRecord,
    CheckpointWriter,
    CorruptShardResultError,
    FaultPlan,
    FaultToleranceConfig,
    InjectedCrashError,
    ShardFailure,
    ShardRetriesExhaustedError,
    ShardTimeoutError,
    run_fingerprint,
    system_digest,
)
from repro.simulation.rng import SeedSequenceFactory
from repro.simulation.statistics import BinomialSummary

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from repro.model.inputs import InputDistribution

__all__ = [
    "DEFAULT_SHARDS",
    "ShardOutcome",
    "ShardedEstimate",
    "count_wins",
    "estimate_winning_probability_sharded",
    "plan_shards",
    "resolve_shard_count",
    "shard_stream_name",
]

#: Default number of shards when the caller does not choose one.  A
#: fixed constant (not ``os.cpu_count()``) so that results never depend
#: on the machine executing them; 16 shards keep 2-16 workers busy
#: while costing nothing when run serially.
DEFAULT_SHARDS = 16


def count_wins(
    system: DistributedSystem,
    trials: int,
    rng: np.random.Generator,
    inputs: Optional["InputDistribution"] = None,
    batch_size: int = 262_144,
) -> int:
    """Run *trials* executions of *system* and return the win count.

    This is the single trial loop shared by the serial engine and every
    shard worker: vectorised when all algorithms are local, scalar (one
    protocol execution per trial) otherwise.  Keeping one implementation
    is what makes "serial fallback" and "worker process" bit-identical.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    vectorised = all(alg.is_local for alg in system.algorithms)
    wins = 0
    if vectorised:
        remaining = trials
        while remaining > 0:
            batch = min(remaining, batch_size)
            if inputs is None:
                matrix = rng.random((batch, system.n))
            else:
                matrix = inputs.sample(rng, batch, system.n)
            wins += int(system.run_batch(matrix, rng).sum())
            remaining -= batch
    else:
        for _ in range(trials):
            if inputs is None:
                vector = rng.random(system.n)
            else:
                vector = inputs.sample(rng, 1, system.n)[0]
            if system.run(vector, rng).won:
                wins += 1
    return wins


def shard_stream_name(stream: str, index: int) -> str:
    """The derived stream name for shard *index* of *stream*."""
    return f"{stream}/shard-{index}"


def resolve_shard_count(trials: int, shards: Optional[int]) -> int:
    """The effective shard count: the requested (or default) count,
    capped so no shard is empty.  Independent of the worker count by
    construction."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if shards is None:
        shards = DEFAULT_SHARDS
    if shards < 1:
        raise ValidationError(f"shards must be >= 1, got {shards}")
    return min(shards, trials)


def plan_shards(trials: int, shards: Optional[int] = None) -> List[int]:
    """Per-shard trial counts summing to *trials*.

    The remainder of ``trials / shards`` is spread one trial at a time
    over the leading shards, so the plan is a pure function of its
    arguments -- the invariant the determinism suite pins down.
    """
    count = resolve_shard_count(trials, shards)
    base, extra = divmod(trials, count)
    return [base + (1 if i < extra else 0) for i in range(count)]


@dataclass(frozen=True)
class ShardOutcome:
    """The result of one shard: which stream it drew from and what it saw.

    ``elapsed_seconds`` and ``attempt`` are execution history as
    observed in this run -- observability, not outcome identity -- so
    both are excluded from equality: a run that retried shard 3 twice
    and a run that never failed compare equal when their counts agree,
    which is exactly what the determinism suite asserts."""

    index: int
    stream: str
    trials: int
    wins: int
    elapsed_seconds: Optional[float] = field(
        default=None, compare=False, repr=False
    )
    attempt: int = field(default=0, compare=False, repr=False)

    @property
    def trials_per_second(self) -> Optional[float]:
        """This shard's throughput.

        ``None`` only when timing is unavailable (``elapsed_seconds is
        None``); a measured ``0.0`` elapsed -- an instant shard --
        reports ``inf``, mirroring
        :attr:`repro.observability.progress.ShardProgress.trials_per_second`.
        """
        if self.elapsed_seconds is None:
            return None
        if self.elapsed_seconds == 0.0:
            return math.inf
        return self.trials / self.elapsed_seconds


@dataclass(frozen=True)
class ShardedEstimate:
    """A :class:`BinomialSummary` plus the per-shard breakdown and how
    the shards were actually executed.

    The fault-tolerance fields (``failures``, ``resumed_shards``,
    ``salvaged_shards``) describe *how* the run survived, never *what*
    it computed, so they are excluded from equality for the same
    reason per-shard timings are.

    ``salvaged_shards`` means different things per transport.  From
    :func:`estimate_winning_probability_sharded` it counts completed
    shards *kept* across a failure: shards that ran once, cleanly, in
    a run that saw at least one failure (0 for a failure-free run).
    From :func:`repro.distributed.coordinator.estimate_winning_probability_distributed`
    it counts shards the fleet did *not* deliver, which then ran on
    the in-process serial path (0 when remote workers did everything).
    """

    summary: BinomialSummary
    shard_outcomes: Tuple[ShardOutcome, ...]
    workers_used: int
    failures: Tuple[ShardFailure, ...] = field(default=(), compare=False)
    resumed_shards: int = field(default=0, compare=False)
    salvaged_shards: int = field(default=0, compare=False)

    @property
    def shards(self) -> int:
        return len(self.shard_outcomes)

    @property
    def retried_shards(self) -> int:
        """How many distinct shards needed at least one re-execution."""
        return len(
            {f.index for f in self.failures if f.kind != "pool"}
        )


@dataclass(frozen=True)
class _ShardTask:
    """Everything one shard execution needs, picklable for the pool."""

    system: DistributedSystem
    trials: int
    base_stream: str
    index: int
    stream: str
    root_seed: int
    inputs: Optional["InputDistribution"]
    batch_size: int
    collect: bool
    fault_plan: Optional[FaultPlan]


def _run_shard(
    task: _ShardTask, attempt: int = 0
) -> Tuple[int, float, Optional[MetricsSnapshot]]:
    """Worker entry point: rebuild the shard's generator from (root
    seed, stream name), run its trial loop, and time it.  Module-level
    so it is picklable by every multiprocessing start method.

    Any injected *compute* fault for ``(base_stream, index, attempt)``
    is applied first: a ``crash`` raises before the stream is touched,
    ``hang`` and ``slow`` sleep before running normally, and
    ``corrupt`` returns an impossible win count the parent's range
    check rejects.  Network fault kinds in the same plan are ignored
    here -- they target the distributed frame layer, and the shard
    must run normally underneath them.  A retried attempt rebuilds
    the *same* named stream, so the win count is identical no matter
    which attempt succeeds.

    Returns ``(wins, elapsed_seconds, metrics_snapshot)``; the snapshot
    is ``None`` unless metrics collection was requested, and crosses
    the process boundary by pickling so the parent can merge per-shard
    metrics exactly.  Nothing measured here touches the shard's random
    stream, so the win count is identical with metrics on or off."""
    if task.fault_plan is not None:
        spec = task.fault_plan.compute_fault(
            task.base_stream, task.index, attempt
        )
        if spec is not None:
            if spec.kind == "crash":
                raise InjectedCrashError(
                    f"injected crash: shard {task.index} attempt {attempt}"
                )
            if spec.kind == "corrupt":
                return task.trials + 1, 0.0, None
            time.sleep(spec.seconds)  # hang / slow
    rng = SeedSequenceFactory(task.root_seed).generator(task.stream)
    start = time.perf_counter()
    wins = count_wins(
        task.system,
        task.trials,
        rng,
        inputs=task.inputs,
        batch_size=task.batch_size,
    )
    elapsed = time.perf_counter() - start
    snapshot: Optional[MetricsSnapshot] = None
    if task.collect:
        registry = MetricsRegistry(enabled=True)
        registry.increment("shard.count")
        registry.increment("shard.trials", task.trials)
        registry.increment("shard.wins", wins)
        registry.observe("shard.seconds", elapsed)
        snapshot = registry.snapshot()
    return wins, elapsed, snapshot


def _pickle_failure(*objects) -> Optional[str]:
    """Why these objects cannot cross a process boundary (None if they
    can).  Only genuine serialisation failures count -- any other
    exception propagates instead of silently degrading to the serial
    path (an earlier revision swallowed *all* exceptions here, which
    hid real bugs behind a quiet slowdown)."""
    try:
        for obj in objects:
            pickle.dumps(obj)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        return type(exc).__name__
    return None


class _PoolUnavailableError(Exception):
    """Internal: the process pool cannot be (re)built; the caller
    salvages completed shards and finishes on the serial path."""


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting for hung workers.

    ``shutdown`` alone only *asks* workers to exit after their current
    task, which a hung task never finishes; terminating the worker
    processes is the only way to reclaim them.  The pool is discarded
    afterwards, so the private ``_processes`` access is best-effort."""
    pool.shutdown(wait=False, cancel_futures=True)
    try:
        for process in list(getattr(pool, "_processes", {}).values()):
            process.terminate()
    except Exception:
        pass


_Result = Tuple[int, Optional[float], Optional[MetricsSnapshot]]


class _Done(NamedTuple):
    """One completed shard as the ledger holds it."""

    wins: int
    elapsed: Optional[float]
    snapshot: Optional[MetricsSnapshot]
    attempt: int
    resumed: bool
    worker: Optional[str] = None


class _ShardRun:
    """The per-run state and accounting of one sharded estimate.

    Both facades -- :func:`estimate_winning_probability_sharded` (serial
    or process pool) and
    :func:`repro.distributed.coordinator.estimate_winning_probability_distributed`
    (TCP leases) -- build one from their arguments; only the transport
    loop that feeds it differs.  The ledger owns the shard plan, stream
    names and tasks, the run fingerprint, checkpoint resume and append,
    the win-range check every result passes, the contiguous-prefix
    progress callbacks with their ``shard`` events, ``fault`` events,
    retry charging, and the final :class:`ShardedEstimate`.  As a
    context manager it closes the checkpoint on exit, so every
    completed shard stays durable for a resume whatever went wrong.
    """

    def __init__(
        self,
        system: DistributedSystem,
        trials: int,
        factory: SeedSequenceFactory,
        stream: str,
        shards: Optional[int],
        inputs: Optional["InputDistribution"],
        batch_size: int,
        z_score: float,
        instrumentation: Optional[Instrumentation],
        progress: Optional[ProgressCallback],
        fault_tolerance: Optional[FaultToleranceConfig],
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        config = (
            FaultToleranceConfig()
            if fault_tolerance is None
            else fault_tolerance
        )
        self.policy = config.retry
        self.instr = (
            get_instrumentation()
            if instrumentation is None
            else instrumentation
        )
        self.collect = self.instr.enabled
        self.trials = trials
        self.stream = stream
        self.z_score = z_score
        self.progress = progress
        self.plan = plan_shards(trials, shards)
        root_seed = factory.root_seed
        if root_seed is None:
            root_seed = int(np.random.SeedSequence().entropy)
        self.root_seed = root_seed
        self.names = [
            shard_stream_name(stream, i) for i in range(len(self.plan))
        ]
        for name in self.names:
            factory.record_issue(name)
        self.tasks = [
            _ShardTask(
                system=system,
                trials=shard_trials,
                base_stream=stream,
                index=i,
                stream=name,
                root_seed=root_seed,
                inputs=inputs,
                batch_size=batch_size,
                collect=self.collect,
                fault_plan=config.fault_plan,
            )
            for i, (shard_trials, name) in enumerate(
                zip(self.plan, self.names)
            )
        ]
        self.fingerprint = run_fingerprint(
            root_seed,
            stream,
            self.plan,
            system_digest(system, inputs),
            batch_size,
        )
        self.completed: Dict[int, _Done] = {}
        self.attempts: Dict[int, int] = {i: 0 for i in range(len(self.plan))}
        self.failures: List[ShardFailure] = []
        self.retries = 0
        self._fired = 0
        self.writer: Optional[CheckpointWriter] = None
        if config.checkpoint_path is not None:
            self.writer = CheckpointWriter(config.checkpoint_path, root_seed)
            saved = self.writer.loaded.outcomes(self.fingerprint)
            for index, record in saved.items():
                if (
                    config.resume
                    and 0 <= index < len(self.plan)
                    and record.trials == self.plan[index]
                ):
                    self.completed[index] = _Done(
                        record.wins,
                        record.elapsed_seconds,
                        None,
                        record.attempt,
                        True,
                    )
        self.resumed = len(self.completed)

    def __enter__(self) -> "_ShardRun":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.writer is not None:
            self.writer.close()

    def pending(self) -> List[int]:
        """The shards not yet completed, in index order."""
        return [i for i in range(len(self.plan)) if i not in self.completed]

    def flush_progress(self) -> None:
        """Report the contiguous completed prefix: exactly once per
        shard, in index order, whatever order the transport finished
        the shards in."""
        while self._fired < len(self.plan) and self._fired in self.completed:
            index = self._fired
            done = self.completed[index]
            report = ShardProgress(
                index=index,
                trials=self.plan[index],
                wins=done.wins,
                elapsed_seconds=done.elapsed,
                completed_shards=index + 1,
                total_shards=len(self.plan),
                attempt=done.attempt,
                recovered=done.resumed or done.attempt > 0,
            )
            if self.progress is not None:
                self.progress(report)
            event: Dict[str, Any] = dict(
                stream=self.stream,
                index=index,
                trials=report.trials,
                wins=report.wins,
                elapsed_ns=(
                    None
                    if done.elapsed is None
                    else int(round(done.elapsed * 1e9))
                ),
                attempt=done.attempt,
                recovered=report.recovered,
                completed=report.completed_shards,
                total=report.total_shards,
            )
            if done.worker is not None:
                event["worker"] = done.worker
            self.instr.emit("shard", **event)
            self._fired += 1

    def accept(
        self,
        index: int,
        result: _Result,
        attempt: int,
        worker: Optional[str] = None,
    ) -> Optional[CorruptShardResultError]:
        """Record one shard result, or return why it is impossible.

        This is the one win-range check: a win count outside
        ``[0, trials]`` is returned as a
        :class:`CorruptShardResultError` and recorded nowhere (the
        transport decides between a charged retry and a requeue).  A
        valid result is checkpointed and reported."""
        wins, elapsed, snapshot = result
        trials = self.plan[index]
        if not isinstance(wins, int) or not 0 <= wins <= trials:
            return CorruptShardResultError(
                f"shard {index} returned wins={wins!r}, outside "
                f"[0, {trials}]"
            )
        self.completed[index] = _Done(
            wins, elapsed, snapshot, attempt, False, worker
        )
        if self.writer is not None:
            self.writer.append(
                CheckpointRecord(
                    self.fingerprint,
                    index,
                    self.names[index],
                    trials,
                    wins,
                    elapsed,
                    attempt,
                )
            )
        self.flush_progress()
        return None

    def fail(self, failure: ShardFailure) -> None:
        """Log one failure and emit its ``fault`` event."""
        self.failures.append(failure)
        self.instr.emit(
            "fault",
            kind=failure.kind,
            index=failure.index,
            stream=failure.stream,
            attempt=failure.attempt,
            message=failure.message,
        )

    def charge_retry(
        self, index: int, attempt: int, exc: BaseException
    ) -> float:
        """Record *exc* as the failure of *attempt* and charge a retry.

        Returns the jittered backoff before the next attempt; raises
        :class:`ShardRetriesExhaustedError` once the shard has used
        its ``max_attempts`` executions."""
        stream = self.names[index]
        if isinstance(exc, ShardTimeoutError):
            kind = "timeout"
        elif isinstance(exc, CorruptShardResultError):
            kind = "corrupt"
        else:
            kind = "error"
        self.fail(ShardFailure(index, stream, attempt, kind, str(exc)))
        used = self.attempts[index]
        if used >= self.policy.max_attempts:
            raise ShardRetriesExhaustedError(
                index, stream, used, str(exc)
            ) from exc
        self.retries += 1
        return self.policy.backoff_seconds(
            used - 1, jitter_key=(stream, index, used)
        )

    def run_serial(self, pending: List[int]) -> None:
        """Run *pending* shards in-process, in index order, with the
        pool's retry accounting (timeouts excepted: an in-process
        shard cannot be interrupted)."""
        for index in sorted(pending):
            while True:
                attempt = self.attempts[index]
                self.attempts[index] = attempt + 1
                try:
                    result = _run_shard(self.tasks[index], attempt)
                except Exception as exc:
                    error: Optional[Exception] = exc
                else:
                    error = self.accept(index, result, attempt)
                if error is None:
                    break
                time.sleep(self.charge_retry(index, attempt, error))

    def result(
        self,
        workers_used: int,
        wall_seconds: float,
        salvaged: int,
        counters: Iterable[Tuple[str, int]],
    ) -> ShardedEstimate:
        """The estimate.  With collection on, first merge the per-shard
        metrics, record throughput and add every nonzero counter."""
        if self.collect:
            for done in self.completed.values():
                if done.snapshot is not None:
                    self.instr.metrics.merge(done.snapshot)
            self.instr.throughput.record(self.trials, wall_seconds)
            for name, value in counters:
                if value:
                    self.instr.increment(name, value)
        return ShardedEstimate(
            summary=BinomialSummary(
                successes=sum(done.wins for done in self.completed.values()),
                trials=self.trials,
                z_score=self.z_score,
            ),
            shard_outcomes=tuple(
                ShardOutcome(
                    index=i,
                    stream=name,
                    trials=shard_trials,
                    wins=self.completed[i].wins,
                    elapsed_seconds=self.completed[i].elapsed,
                    attempt=self.completed[i].attempt,
                )
                for i, (shard_trials, name) in enumerate(
                    zip(self.plan, self.names)
                )
            ),
            workers_used=workers_used,
            failures=tuple(self.failures),
            resumed_shards=self.resumed,
            salvaged_shards=salvaged,
        )


def _run_pool(
    run: _ShardRun,
    pending: List[int],
    workers_used: int,
    stats: Dict[str, int],
) -> None:
    """Run *pending* shards across a process pool, fault-tolerantly.

    Shards are submitted individually (``submit``, not ``map``) so each
    gets its own wall-clock deadline and retry budget.  Three failure
    modes, three responses:

    * a worker raises (or returns a corrupt result): the shard is
      retried after exponential backoff, up to the policy's budget,
      then :class:`ShardRetriesExhaustedError`;
    * a shard exceeds ``policy.shard_timeout``: the pool is killed
      (a hung worker cannot be cancelled), rebuilt, the timed-out
      shard charged one attempt, and every innocent in-flight shard
      resubmitted uncharged;
    * the pool itself breaks (worker segfault/OOM): the pool is
      rebuilt -- bounded by ``max_retries + 1`` reconstructions --
      and the affected shards resubmitted uncharged; a pool that
      cannot be rebuilt raises :class:`_PoolUnavailableError`, and the
      caller finishes the *missing* shards serially, keeping every
      completed result.

    Retried shards replay their original named stream, so nothing here
    can change the estimate -- only when (and where) shards run.
    """
    ready = deque(sorted(pending))
    delayed: List[Tuple[float, int]] = []  # (not-before, index)
    inflight: Dict = {}  # future -> (index, attempt, deadline)
    rebuilds_left = run.policy.max_retries + 1
    shard_timeout = run.policy.shard_timeout

    def new_pool() -> ProcessPoolExecutor:
        try:
            return ProcessPoolExecutor(max_workers=workers_used)
        except (OSError, PermissionError, RuntimeError) as exc:
            raise _PoolUnavailableError(str(exc)) from exc

    def rebuild_pool(old: ProcessPoolExecutor) -> ProcessPoolExecutor:
        nonlocal rebuilds_left
        stats["pool_rebuilds"] += 1
        rebuilds_left -= 1
        _kill_pool(old)
        if rebuilds_left < 0:
            raise _PoolUnavailableError(
                "process pool kept breaking; falling back to serial"
            )
        return new_pool()

    def reschedule_uncharged(index: int) -> None:
        # the shard never got to run through no fault of its own:
        # give the execution back and resubmit without backoff
        run.attempts[index] -= 1
        ready.append(index)

    def schedule_retry(index: int, attempt: int, exc: Exception) -> None:
        not_before = time.monotonic() + run.charge_retry(index, attempt, exc)
        delayed.append((not_before, index))
        delayed.sort()

    pool = new_pool()
    try:
        while ready or delayed or inflight:
            now = time.monotonic()
            still_delayed = []
            for not_before, index in delayed:
                if not_before <= now:
                    ready.append(index)
                else:
                    still_delayed.append((not_before, index))
            delayed[:] = still_delayed

            submit_failed = False
            while ready:
                index = ready[0]
                attempt = run.attempts[index]
                try:
                    future = pool.submit(_run_shard, run.tasks[index], attempt)
                except (RuntimeError, OSError):
                    # the pool broke between waits; if work is in
                    # flight the wait loop below will observe the
                    # breakage and rebuild once, otherwise rebuild here
                    submit_failed = True
                    break
                ready.popleft()
                run.attempts[index] = attempt + 1
                deadline = (
                    now + shard_timeout if shard_timeout is not None else None
                )
                inflight[future] = (index, attempt, deadline)
            if submit_failed and not inflight:
                pool = rebuild_pool(pool)
                continue

            if not inflight:
                if delayed:
                    time.sleep(
                        max(0.0, delayed[0][0] - time.monotonic())
                    )
                continue

            horizons = [
                deadline
                for (_, _, deadline) in inflight.values()
                if deadline is not None
            ] + [not_before for not_before, _ in delayed]
            timeout = (
                max(0.0, min(horizons) - time.monotonic())
                if horizons
                else None
            )
            done, _ = wait(
                set(inflight), timeout=timeout, return_when=FIRST_COMPLETED
            )
            now = time.monotonic()

            broken = False
            for future in done:
                index, attempt, _ = inflight.pop(future)
                try:
                    result = future.result()
                except BrokenProcessPool as exc:
                    broken = True
                    run.fail(
                        ShardFailure(
                            index=index,
                            stream=run.names[index],
                            attempt=attempt,
                            kind="pool",
                            message=str(exc) or "process pool died",
                        )
                    )
                    reschedule_uncharged(index)
                    continue
                except Exception as exc:
                    error: Optional[Exception] = exc
                else:
                    error = run.accept(index, result, attempt)
                if error is not None:
                    schedule_retry(index, attempt, error)
            if broken:
                for index, _, _ in inflight.values():
                    reschedule_uncharged(index)
                inflight.clear()
                pool = rebuild_pool(pool)
                continue

            expired = {
                future
                for future, (_, _, deadline) in inflight.items()
                if deadline is not None and deadline <= now
            }
            if expired:
                # a running task cannot be cancelled: kill the pool,
                # charge the timed-out shards, resubmit the innocents
                stats["shard_timeouts"] += len(expired)
                for future, (index, attempt, _) in list(inflight.items()):
                    if future in expired:
                        schedule_retry(
                            index,
                            attempt,
                            ShardTimeoutError(
                                f"shard {index} exceeded "
                                f"{shard_timeout}s wall-clock limit"
                            ),
                        )
                    else:
                        reschedule_uncharged(index)
                inflight.clear()
                stats["pool_rebuilds"] += 1
                _kill_pool(pool)
                pool = new_pool()
    except BaseException:
        _kill_pool(pool)
        raise
    # Every shard is in: join the workers and the executor's manager
    # thread now, so none is left closing its pipe at interpreter exit.
    pool.shutdown(wait=True)


def estimate_winning_probability_sharded(
    system: DistributedSystem,
    trials: int,
    factory: SeedSequenceFactory,
    stream: str = "winning-probability",
    shards: Optional[int] = None,
    workers: int = 1,
    inputs: Optional["InputDistribution"] = None,
    batch_size: int = 262_144,
    z_score: float = 3.89,
    instrumentation: Optional[Instrumentation] = None,
    progress: Optional[ProgressCallback] = None,
    fault_tolerance: Optional[FaultToleranceConfig] = None,
) -> ShardedEstimate:
    """Estimate the winning probability over a sharded trial budget.

    The budget is split by :func:`plan_shards`; shard ``i`` draws from
    the child stream ``shard_stream_name(stream, i)``.  With a seeded
    *factory* the returned summary is bit-identical for every value of
    *workers* (including the serial fallback), because neither the plan
    nor the per-shard streams depend on how shards are scheduled.

    An unseeded factory first materialises a root seed from OS entropy
    so that all shards of *this call* still draw from disjoint streams
    of one (unreproducible) root.

    *fault_tolerance* configures per-shard retries with exponential
    backoff, a per-shard wall-clock timeout, deterministic fault
    injection (tests/chaos mode), and shard-level checkpoint/resume --
    see :class:`~repro.simulation.faulttolerance.FaultToleranceConfig`.
    Because a retried shard replays the same named stream, the summary
    is bit-identical across any combination of injected faults,
    retries, pool reconstructions and resumes; a shard that fails more
    than ``retry.max_retries`` times raises
    :class:`~repro.simulation.faulttolerance.ShardRetriesExhaustedError`
    (already-completed shards remain in the checkpoint, if one was
    requested, so the run is resumable).  The default config retries
    nothing but still *salvages*: when the pool dies, completed shards
    are kept and only the missing ones re-run serially.

    *instrumentation* (default: the active instrument, a no-op unless
    activated) receives per-shard timing histograms, trial/win counters
    and the sharded-estimate span; per-shard metrics collected inside
    worker processes travel back as pickled snapshots and merge exactly.
    Fault-tolerance events surface as ``engine.shard_retries``,
    ``engine.shard_timeouts``, ``engine.pool_rebuilds``,
    ``engine.shard_failures``, ``engine.shards_salvaged``,
    ``engine.shards_resumed`` and ``engine.pickle_fallback`` counters.
    *progress*, when given, is called **exactly once per shard**, in
    index order (completions are buffered so the callback sequence is
    deterministic even when shards finish out of order or retry);
    each :class:`~repro.observability.progress.ShardProgress` carries
    the attempt that succeeded and whether the shard was recovered
    (retried or loaded from a checkpoint).  Neither instrumentation
    nor progress touches any random stream: the estimate is
    bit-identical with them on or off.
    """
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    run = _ShardRun(
        system,
        trials,
        factory,
        stream,
        shards,
        inputs,
        batch_size,
        z_score,
        instrumentation,
        progress,
        fault_tolerance,
    )
    stats = {"shard_timeouts": 0, "pool_rebuilds": 0}
    workers_used = min(workers, len(run.plan))
    pool_used = False
    with run, run.instr.span(
        "simulation.sharded_estimate",
        stream=stream,
        trials=trials,
        shards=len(run.plan),
        workers=workers,
    ):
        start = time.perf_counter()
        run.flush_progress()  # resumed prefix, if any
        pending = run.pending()
        if pending and workers_used > 1:
            reason = _pickle_failure(system, inputs)
            if reason is None:
                try:
                    _run_pool(run, pending, workers_used, stats)
                    pool_used = True
                    pending = []
                except _PoolUnavailableError:
                    # salvage: keep everything completed so far and
                    # finish only the missing shards in-process
                    pending = run.pending()
            elif run.collect:
                run.instr.increment("engine.pickle_fallback")
                run.instr.increment(f"engine.pickle_fallback.{reason}")
        if pending:
            run.run_serial(pending)
        wall_seconds = time.perf_counter() - start
    if not pool_used:
        workers_used = 1

    failed_indices = {f.index for f in run.failures}
    salvaged = (
        sum(
            1
            for index, done in run.completed.items()
            if not done.resumed
            and run.attempts[index] == 1
            and index not in failed_indices
        )
        if run.failures
        else 0
    )
    if run.collect:
        run.instr.set_gauge("engine.workers_used", workers_used)
        run.instr.observe("engine.sharded_wall_seconds", wall_seconds)
    return run.result(
        workers_used,
        wall_seconds,
        salvaged,
        [
            ("engine.sharded_calls", 1),
            ("engine.shard_retries", run.retries),
            *((f"engine.{name}", value) for name, value in stats.items()),
            ("engine.shard_failures", len(run.failures)),
            ("engine.shards_salvaged", salvaged),
            ("engine.shards_resumed", run.resumed),
        ],
    )
