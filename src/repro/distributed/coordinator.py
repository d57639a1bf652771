"""The lease-granting coordinator and its synchronous facade.

The coordinator owns the run: it computes the worker-count-invariant
shard plan, serves it to workers as **leases** -- (shard index, stream
name, trial count, attempt, deadline) -- and folds returning sealed
summaries into exactly the per-shard state the in-process executor
keeps.  Determinism needs no trust in scheduling: a shard's result is
a pure function of ``(root seed, stream name)``, so the coordinator
only has to ensure *each shard is counted exactly once*, which the
accept-first-valid rule below provides.

Robustness ladder, from least to most degraded:

1. **Lease expiry -> reassignment.**  A worker that crashes, hangs,
   partitions, or drops its summary simply never completes its lease;
   the watchdog returns the shard to the pending queue and the next
   ``lease_request`` re-grants it (same stream, next attempt).
2. **Accept-first-valid.**  The first summary with the right run
   fingerprint and a plausible win count completes a shard -- even a
   "late" one from an expired lease, because the stream, not the
   attempt, determines the value.  Later copies (duplicates, the
   raced re-assignment) are counted and discarded; invalid summaries
   requeue the shard.
3. **Local salvage.**  When no worker ever connects (bounded wait),
   every worker has gone away (idle grace), a shard exhausts its
   assignment budget, or the optional phase deadline passes, the
   remaining shards run on the in-process serial path -- same entry
   point, same streams, same answer.

The facade (:func:`estimate_winning_probability_distributed`) keeps
its per-run state in the same shard-run ledger as
:func:`repro.simulation.parallel.estimate_winning_probability_sharded`
-- plan, checkpoint and resume, progress and ``shard``/``fault``
events, the win-range check, metrics merging -- so this module holds
only the lease transport.
"""

from __future__ import annotations

import asyncio
import signal
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.distributed.protocol import (
    PROTOCOL_VERSION,
    ConnectionClosedError,
    DistributedError,
    FrameError,
    FrameTimeoutError,
    ProtocolError,
    encode_blob,
    read_frame,
    write_frame,
)
from repro.distributed.worker import (
    WorkerConfig,
    worker_session,
)
from repro.errors import RunInterruptedError
from repro.model.system import DistributedSystem
from repro.observability import Instrumentation, get_instrumentation
from repro.observability.events import snapshot_from_payload
from repro.observability.metrics import MetricsSnapshot
from repro.observability.progress import ProgressCallback
from repro.simulation.faulttolerance import (
    FaultToleranceConfig,
    InjectedCrashError,
    ShardFailure,
)
from repro.simulation.parallel import ShardedEstimate, _ShardRun
from repro.simulation.rng import SeedSequenceFactory

__all__ = [
    "DistributedConfig",
    "estimate_winning_probability_distributed",
]


@dataclass(frozen=True)
class DistributedConfig:
    """Tuning for the coordinator's server and robustness ladder.

    ``lease_seconds`` is the reassignment clock: how long a granted
    shard may stay unreported before the coordinator assumes its
    worker is gone.  ``wait_for_workers_seconds`` bounds how long the
    run waits for a *first* worker before degrading to local
    execution; ``idle_grace_seconds`` does the same after the *last*
    worker disconnects.  ``max_assignments_per_shard`` caps lease
    grants per shard (a shard the fleet keeps losing goes local
    instead of looping).  ``max_phase_seconds`` optionally bounds the
    whole distributed phase -- a stuck fleet degrades rather than
    stalls the run.
    """

    host: str = "127.0.0.1"
    port: int = 0
    lease_seconds: float = 30.0
    frame_timeout_seconds: float = 60.0
    wait_for_workers_seconds: float = 10.0
    idle_grace_seconds: float = 2.0
    max_assignments_per_shard: int = 5
    watchdog_interval_seconds: float = 0.02
    idle_retry_seconds: float = 0.05
    max_phase_seconds: Optional[float] = None

    def __post_init__(self):
        if not 0 <= self.port < 65536:
            raise ValueError(f"port must be in [0, 65536), got {self.port}")
        for name in (
            "lease_seconds",
            "frame_timeout_seconds",
            "watchdog_interval_seconds",
            "idle_retry_seconds",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )
        for name in ("wait_for_workers_seconds", "idle_grace_seconds"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must be >= 0, got {getattr(self, name)}"
                )
        if self.max_assignments_per_shard < 1:
            raise ValueError(
                f"max_assignments_per_shard must be >= 1, got "
                f"{self.max_assignments_per_shard}"
            )
        if self.max_phase_seconds is not None and self.max_phase_seconds <= 0:
            raise ValueError(
                f"max_phase_seconds must be positive, got "
                f"{self.max_phase_seconds}"
            )


@dataclass
class _Lease:
    """One outstanding grant: who holds it and until when."""

    worker_id: str
    attempt: int
    deadline: float


class _Coordinator:
    """The asyncio server: grants leases, folds summaries, watches
    deadlines.  All state is touched only on the event-loop thread."""

    def __init__(
        self,
        config: DistributedConfig,
        run: _ShardRun,
        instr: Instrumentation,
    ):
        self.config = config
        self.run = run
        self.instr = instr

        self.pending: deque = deque(run.pending())
        self.leases: Dict[int, _Lease] = {}
        self.local_only: set = set()
        self.interrupted: Optional[int] = None
        self.workers: Dict[str, asyncio.StreamWriter] = {}
        self.peak_workers = 0
        self.ever_connected = False
        self.done = asyncio.Event()
        self.stats = {
            "leases_granted": 0,
            "lease_expiries": 0,
            "duplicate_summaries": 0,
            "rejected_summaries": 0,
            "workers_connected": 0,
        }
        self._server: Optional[asyncio.AbstractServer] = None
        self._watchdog: Optional[asyncio.Task] = None
        self._started = 0.0
        self._last_activity = 0.0
        self.port = 0
        # the system payload is pickled once, not per connection
        task = run.tasks[0]
        self._welcome_blob = encode_blob(
            (task.system, task.inputs, task.fault_plan)
        )

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        """Bind the server and start the lease watchdog."""
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started = time.monotonic()
        self._last_activity = self._started
        self._watchdog = asyncio.create_task(self._watch())

    async def shutdown(self) -> None:
        """Stop granting, tell connected workers to drain, close up."""
        if self._watchdog is not None:
            self._watchdog.cancel()
            try:
                await self._watchdog
            except asyncio.CancelledError:
                pass
        for writer in list(self.workers.values()):
            try:
                await write_frame(writer, {"type": "drain"}, timeout=1.0)
            except DistributedError:
                pass
            try:
                writer.close()
            except Exception:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # -- helpers ------------------------------------------------------

    def _touch(self) -> None:
        self._last_activity = time.monotonic()

    def _all_done(self) -> bool:
        return len(self.run.completed) == len(self.run.plan)

    def _next_grantable(self) -> Optional[int]:
        """Pop the next shard worth granting, retiring over-assigned
        shards to the local-salvage set as they surface."""
        while self.pending:
            shard = self.pending.popleft()
            if shard in self.run.completed:
                continue
            if (
                self.run.attempts[shard]
                >= self.config.max_assignments_per_shard
            ):
                self.local_only.add(shard)
                continue
            return shard
        return None

    def _finish(self) -> None:
        if not self.done.is_set():
            self.done.set()

    # -- the watchdog -------------------------------------------------

    async def _watch(self) -> None:
        """Expire overdue leases; decide when the phase is over."""
        cfg = self.config
        while not self.done.is_set():
            await asyncio.sleep(cfg.watchdog_interval_seconds)
            now = time.monotonic()
            for shard, lease in list(self.leases.items()):
                if lease.deadline > now:
                    continue
                del self.leases[shard]
                self.stats["lease_expiries"] += 1
                self.run.fail(
                    ShardFailure(
                        index=shard,
                        stream=self.run.names[shard],
                        attempt=lease.attempt,
                        kind="lease",
                        message=(
                            f"lease expired after {cfg.lease_seconds}s "
                            f"(worker {lease.worker_id})"
                        ),
                    )
                )
                self.instr.emit(
                    "lease",
                    action="expire",
                    shard=shard,
                    attempt=lease.attempt,
                    worker=lease.worker_id,
                )
                self.pending.append(shard)
            if self._all_done():
                self._finish()
                return
            # the rungs of the degradation ladder, cheapest first
            if (
                cfg.max_phase_seconds is not None
                and now - self._started >= cfg.max_phase_seconds
            ):
                self._finish()
                return
            if not self.workers:
                if (
                    not self.ever_connected
                    and now - self._started
                    >= cfg.wait_for_workers_seconds
                ):
                    self._finish()
                    return
                if (
                    self.ever_connected
                    and now - self._last_activity
                    >= cfg.idle_grace_seconds
                ):
                    self._finish()
                    return
            if not self.leases and not self.pending and self.local_only:
                # everything left has exhausted its assignment budget
                self._finish()
                return

    # -- per-connection handling --------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        worker_id = ""
        granted: set = set()
        try:
            hello = await read_frame(
                reader, timeout=self.config.frame_timeout_seconds
            )
            if (
                hello.get("type") != "hello"
                or hello.get("protocol") != PROTOCOL_VERSION
            ):
                await write_frame(
                    writer,
                    {
                        "type": "reject",
                        "reason": (
                            f"expected hello at protocol "
                            f"{PROTOCOL_VERSION}, got "
                            f"{hello.get('type')!r} at "
                            f"{hello.get('protocol')!r}"
                        ),
                    },
                )
                return
            worker_id = str(
                hello.get("worker_id") or f"worker-{id(writer):x}"
            )
            self.ever_connected = True
            self.workers[worker_id] = writer
            self.peak_workers = max(self.peak_workers, len(self.workers))
            self.stats["workers_connected"] += 1
            self._touch()
            self.instr.emit(
                "worker",
                action="connect",
                worker=worker_id,
                workers=len(self.workers),
            )
            await write_frame(
                writer,
                {
                    "type": "welcome",
                    "protocol": PROTOCOL_VERSION,
                    "fingerprint": self.run.fingerprint,
                    "root_seed": self.run.root_seed,
                    "base_stream": self.run.stream,
                    "batch_size": self.run.tasks[0].batch_size,
                    "collect": self.run.collect,
                    "payload": self._welcome_blob,
                },
            )
            while not self.done.is_set():
                frame = await read_frame(reader)
                self._touch()
                kind = frame.get("type")
                if kind == "lease_request":
                    await self._grant(worker_id, writer, granted)
                elif kind == "summary":
                    self._accept_summary(worker_id, frame, granted)
                elif kind == "goodbye":
                    return
                # unknown frames are ignored: forward compatibility
            # the phase ended while this worker may have a request in
            # flight: tell it so, or its next read sees a bare close
            # and it burns its whole reconnect budget on a dead server
            try:
                await write_frame(writer, {"type": "drain"}, timeout=1.0)
            except DistributedError:
                pass
        except (
            ConnectionClosedError,
            FrameError,
            FrameTimeoutError,
            ProtocolError,
            OSError,
        ):
            # connection-level failure; leases return to pending below
            pass
        finally:
            if worker_id and self.workers.get(worker_id) is writer:
                del self.workers[worker_id]
                self.instr.emit(
                    "worker",
                    action="disconnect",
                    worker=worker_id,
                    workers=len(self.workers),
                )
            for shard in granted:
                lease = self.leases.get(shard)
                if lease is not None and lease.worker_id == worker_id:
                    del self.leases[shard]
                    self.run.fail(
                        ShardFailure(
                            index=shard,
                            stream=self.run.names[shard],
                            attempt=lease.attempt,
                            kind="disconnect",
                            message=(
                                f"worker {worker_id} disconnected "
                                "holding the lease"
                            ),
                        )
                    )
                    self.pending.append(shard)
            self._touch()
            try:
                writer.close()
            except Exception:
                pass

    async def _grant(
        self,
        worker_id: str,
        writer: asyncio.StreamWriter,
        granted: set,
    ) -> None:
        shard = self._next_grantable()
        if shard is None:
            if self._all_done():
                await write_frame(writer, {"type": "drain"})
            else:
                await write_frame(
                    writer,
                    {
                        "type": "idle",
                        "retry_after": self.config.idle_retry_seconds,
                    },
                )
            return
        attempt = self.run.attempts[shard]
        self.run.attempts[shard] = attempt + 1
        self.leases[shard] = _Lease(
            worker_id=worker_id,
            attempt=attempt,
            deadline=time.monotonic() + self.config.lease_seconds,
        )
        granted.add(shard)
        self.stats["leases_granted"] += 1
        self.instr.emit(
            "lease",
            action="grant",
            shard=shard,
            attempt=attempt,
            worker=worker_id,
        )
        await write_frame(
            writer,
            {
                "type": "lease",
                "shard": shard,
                "stream": self.run.names[shard],
                "trials": self.run.plan[shard],
                "attempt": attempt,
                "lease_seconds": self.config.lease_seconds,
            },
        )

    def _accept_summary(
        self, worker_id: str, frame: Dict[str, Any], granted: set
    ) -> None:
        """Fold one summary in under the accept-first-valid rule."""
        try:
            shard = int(frame["shard"])
            attempt = int(frame.get("attempt", 0))
            wins = frame["wins"]
        except (KeyError, TypeError, ValueError):
            self.stats["rejected_summaries"] += 1
            return
        run = self.run
        if not 0 <= shard < len(run.plan):
            self.stats["rejected_summaries"] += 1
            return
        granted.discard(shard)
        lease = self.leases.get(shard)
        if lease is not None and lease.worker_id == worker_id:
            del self.leases[shard]
        if shard in run.completed:
            # duplicate or raced reassignment: the stream already
            # determined the value, so the copy carries no information
            self.stats["duplicate_summaries"] += 1
            self.instr.emit(
                "lease",
                action="duplicate",
                shard=shard,
                attempt=attempt,
                worker=worker_id,
            )
            return
        snapshot: Optional[MetricsSnapshot] = None
        payload = frame.get("metrics")
        if payload is not None:
            try:
                snapshot = snapshot_from_payload(payload)
            except (KeyError, TypeError, ValueError):
                snapshot = None  # metrics are observational: drop, keep wins
        if frame.get("fingerprint") != run.fingerprint:
            error: Any = "run fingerprint mismatch"
        else:
            error = run.accept(
                shard,
                (wins, frame.get("elapsed_seconds"), snapshot),
                attempt,
                worker=worker_id,
            )
        if error is not None:
            self.stats["rejected_summaries"] += 1
            run.fail(
                ShardFailure(
                    index=shard,
                    stream=run.names[shard],
                    attempt=attempt,
                    kind="rejected",
                    message=f"summary from {worker_id} rejected: {error}",
                )
            )
            self.pending.append(shard)
            return
        if self._all_done():
            self._finish()


async def _local_worker_task(
    port: int, index: int, config: DistributedConfig
) -> None:
    """One in-process worker (tests and the smoke path): behaves like
    a subprocess, including dying on an injected crash."""
    worker = WorkerConfig(
        host=config.host,
        port=port,
        worker_id=f"local-{index}",
        frame_timeout_seconds=config.frame_timeout_seconds,
    )
    try:
        await worker_session(worker)
    except (InjectedCrashError, DistributedError):
        # a crashed or stranded local worker is the scenario under
        # test; the coordinator's ladder handles the consequences
        pass


async def _serve_phase(
    coordinator: _Coordinator,
    config: DistributedConfig,
    local_workers: int,
    on_ready: Optional[Callable[[int], Any]],
    handle_signals: bool = False,
) -> None:
    await coordinator.start()
    installed: List[int] = []
    if handle_signals:
        # SIGTERM/SIGINT end the phase but not the cleanup: the drain
        # in coordinator.shutdown() still tells every connected worker
        # to stop leasing, and the facade finalizes the checkpoint
        # before surfacing RunInterruptedError -> exit 128 + signum.
        loop = asyncio.get_running_loop()

        def _on_signal(signum: int) -> None:
            if coordinator.interrupted is None:
                coordinator.interrupted = signum
                coordinator.instr.emit(
                    "fault",
                    kind="interrupt",
                    index=-1,
                    attempt=0,
                    message=f"signal {signum}: draining coordinator",
                )
            coordinator._finish()

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, _on_signal, signum)
            except (NotImplementedError, RuntimeError, ValueError):
                continue  # non-main thread or exotic loop: skip
            installed.append(signum)
    if on_ready is not None:
        on_ready(coordinator.port)
    helpers = [
        asyncio.create_task(
            _local_worker_task(coordinator.port, i, config)
        )
        for i in range(local_workers)
    ]
    try:
        await coordinator.done.wait()
    finally:
        await coordinator.shutdown()
        for task in helpers:
            task.cancel()
        if helpers:
            await asyncio.gather(*helpers, return_exceptions=True)
        if installed:
            loop = asyncio.get_running_loop()
            for signum in installed:
                try:
                    loop.remove_signal_handler(signum)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass


def estimate_winning_probability_distributed(
    system: DistributedSystem,
    trials: int,
    factory: SeedSequenceFactory,
    stream: str = "winning-probability",
    shards: Optional[int] = None,
    inputs: Optional[Any] = None,
    batch_size: int = 262_144,
    z_score: float = 3.89,
    instrumentation: Optional[Instrumentation] = None,
    progress: Optional[ProgressCallback] = None,
    fault_tolerance: Optional[FaultToleranceConfig] = None,
    config: Optional[DistributedConfig] = None,
    local_workers: int = 0,
    on_ready: Optional[Callable[[int], Any]] = None,
    handle_signals: bool = False,
) -> ShardedEstimate:
    """Estimate the winning probability with shards leased to remote
    workers; bit-identical to the serial and pooled executors.

    The shard plan, stream names and run fingerprint are computed
    exactly as in
    :func:`~repro.simulation.parallel.estimate_winning_probability_sharded`;
    workers connect over TCP (``repro work``), lease shards and stream
    back summaries.  Under any combination of worker crashes, hangs,
    partitions, dropped/duplicated/late summaries and full worker
    absence, the returned summary and per-shard outcomes equal the
    serial engine's -- recovery changes scheduling, never streams.

    *local_workers* spawns that many in-process worker tasks on the
    coordinator's own event loop (the test and smoke-mode transport);
    *on_ready* is called with the bound port once the server accepts
    connections (used to spawn worker subprocesses and by tests); a
    run fully resumed from its checkpoint never starts the server.
    *config* tunes lease duration and the degradation ladder;
    *fault_tolerance* carries the retry policy, chaos plan and
    checkpoint/resume settings shared with the local executors.

    *handle_signals* (the ``repro coordinate`` CLI turns it on)
    installs SIGTERM/SIGINT handlers for the duration of the serve
    phase: a signal drains connected workers, returns outstanding
    leases, finalizes the checkpoint, and raises
    :class:`~repro.errors.RunInterruptedError` instead of salvaging
    locally -- a re-run with ``resume`` continues from the shards that
    completed before the signal.

    Returns a :class:`~repro.simulation.parallel.ShardedEstimate`
    whose ``workers_used`` is the peak number of simultaneously
    connected remote workers (1 when the run degraded fully local).
    """
    if local_workers < 0:
        raise ValueError(
            f"local_workers must be >= 0, got {local_workers}"
        )
    net_config = DistributedConfig() if config is None else config
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
    salvaged = 0
    with run, run.instr.span(
        "distributed.estimate",
        stream=stream,
        trials=trials,
        shards=len(run.plan),
        local_workers=local_workers,
    ):
        coordinator = _Coordinator(net_config, run, run.instr)
        start = time.perf_counter()
        run.flush_progress()  # resumed prefix, if any
        if run.pending():  # a fully resumed run has nothing to lease
            asyncio.run(
                _serve_phase(
                    coordinator,
                    net_config,
                    local_workers,
                    on_ready,
                    handle_signals=handle_signals,
                )
            )
        if coordinator.interrupted is not None:
            # graceful interrupt: workers drained, leases returned;
            # skip local salvage and surface the signal.  Leaving the
            # ledger closes the checkpoint, so every completed shard is
            # durable for a --resume re-run.
            raise RunInterruptedError(
                coordinator.interrupted, len(run.completed), len(run.plan)
            )
        missing = run.pending()
        if missing:
            # final rung of the ladder: run whatever the fleet did
            # not deliver on the in-process serial path
            salvaged = len(missing)
            run.run_serial(missing)
        wall_seconds = time.perf_counter() - start

    if run.collect:
        run.instr.set_gauge(
            "distributed.workers_peak", coordinator.peak_workers
        )
        run.instr.observe("distributed.wall_seconds", wall_seconds)
    return run.result(
        max(1, coordinator.peak_workers),
        wall_seconds,
        salvaged,
        [
            ("distributed.calls", 1),
            *(
                (f"distributed.{name}", value)
                for name, value in coordinator.stats.items()
            ),
            ("distributed.shards_salvaged", salvaged),
            ("distributed.shards_resumed", run.resumed),
            ("distributed.serial_retries", run.retries),
        ],
    )
