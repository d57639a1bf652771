"""The worker side of the lease protocol: connect, lease, execute,
report, repeat.

A worker is stateless between leases by design.  Everything a shard
execution needs arrives in the ``welcome`` frame (the digest-verified
system payload, root seed, base stream, batch size) and the ``lease``
frame (shard index, stream name, trial count, attempt); the shard then
runs through the **same worker entry point** as the in-process
executor (:func:`repro.simulation.parallel._run_shard`), rebuilding
its generator from ``(root seed, stream name)``.  That sharing is the
bit-identity argument in one line: a remote shard cannot differ from a
local one because they are the same function on the same inputs.

Failure behaviour:

* **Connection refused / lost** -- bounded retries with the
  fault-tolerance layer's jittered exponential backoff (keyed by
  worker id and attempt, so a fleet of workers started together does
  not stampede the coordinator).  A worker that already completed at
  least one shard treats a failed *re*-connect as "the coordinator
  finished and went away" and exits cleanly.
* **Injected compute faults** -- ``crash`` propagates out of the
  session (a subprocess dies with it; the in-process harness swallows
  it), after aborting the transport so the coordinator sees the
  disconnect promptly.  ``hang``/``slow``/``corrupt`` happen inside
  the shard entry point exactly as on the local paths.
* **Injected network faults** -- applied to the summary delivery by
  :func:`repro.distributed.chaos.deliver_with_chaos`; a ``partition``
  severs the transport, and the session reconnects and carries on.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.distributed import chaos
from repro.distributed.protocol import (
    PROTOCOL_VERSION,
    ConnectionClosedError,
    CoordinatorUnreachableError,
    DistributedError,
    FrameError,
    FrameTimeoutError,
    HandshakeError,
    ProtocolError,
    decode_blob,
    read_frame,
    write_frame,
)
from repro.observability.events import snapshot_to_payload
from repro.simulation.faulttolerance import (
    FaultPlan,
    InjectedCrashError,
    RetryPolicy,
)

__all__ = ["WorkerConfig", "WorkerReport", "run_worker", "worker_session"]


def _default_connect_policy() -> RetryPolicy:
    """Connect retries: patient (the coordinator may start second) but
    jittered so simultaneously-started workers spread their attempts."""
    return RetryPolicy(
        max_retries=40,
        backoff_base=0.05,
        backoff_factor=1.5,
        backoff_max=1.0,
        backoff_jitter=0.5,
    )


@dataclass(frozen=True)
class WorkerConfig:
    """How one worker reaches and speaks to its coordinator."""

    host: str = "127.0.0.1"
    port: int = 0
    worker_id: str = ""
    connect_policy: RetryPolicy = field(
        default_factory=_default_connect_policy
    )
    frame_timeout_seconds: float = 60.0

    def __post_init__(self):
        if not 0 < self.port < 65536:
            raise ValueError(f"port must be in (0, 65536), got {self.port}")
        if self.frame_timeout_seconds <= 0:
            raise ValueError(
                f"frame_timeout_seconds must be positive, got "
                f"{self.frame_timeout_seconds}"
            )


@dataclass
class WorkerReport:
    """What one worker session did, for logs and tests."""

    worker_id: str = ""
    shards_completed: int = 0
    summaries_sent: int = 0
    summaries_dropped: int = 0
    partitions: int = 0
    reconnects: int = 0
    drained: bool = False
    #: signal number that ended the session early (SIGTERM/SIGINT),
    #: or ``None`` for a normal coordinator-driven drain.  Set only
    #: when signal handling is enabled (``repro work``); the CLI exits
    #: ``128 + interrupted_signal``.
    interrupted_signal: Optional[int] = None


@dataclass
class _Session:
    """Everything learned from one welcome frame."""

    system: Any
    inputs: Any
    fault_plan: Optional[FaultPlan]
    fingerprint: str
    root_seed: int
    base_stream: str
    batch_size: int
    collect: bool


#: Reconnect attempts once a session has already completed work.  The
#: patient schedule in :func:`_default_connect_policy` exists for
#: start-up ordering (the coordinator may bind second); after work has
#: flowed, an unreachable coordinator almost always means the run
#: finished and the server went away, so give up fast and exit clean.
_RECONNECT_ATTEMPTS = 5


async def _connect(
    config: WorkerConfig,
    worker_id: str,
    max_attempts: Optional[int] = None,
) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Open a connection with bounded, jittered retries."""
    policy = config.connect_policy
    attempts = (
        policy.max_attempts
        if max_attempts is None
        else min(max_attempts, policy.max_attempts)
    )
    last_error = "no attempt made"
    for attempt in range(attempts):
        try:
            return await asyncio.open_connection(config.host, config.port)
        except OSError as exc:
            last_error = str(exc)
        if attempt + 1 < attempts:
            await asyncio.sleep(
                policy.backoff_seconds(
                    attempt, jitter_key=(worker_id, attempt)
                )
            )
    raise CoordinatorUnreachableError(
        f"cannot reach coordinator at {config.host}:{config.port} after "
        f"{attempts} attempt(s): {last_error}"
    )


async def _handshake(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    config: WorkerConfig,
    worker_id: str,
) -> Optional[_Session]:
    """hello -> welcome; decode and digest-verify the system payload.

    ``None`` when the coordinator answers the hello with ``drain``: the
    phase ended before this worker connected.
    """
    await write_frame(
        writer,
        {
            "type": "hello",
            "protocol": PROTOCOL_VERSION,
            "worker_id": worker_id,
        },
        timeout=config.frame_timeout_seconds,
    )
    welcome = await read_frame(
        reader, timeout=config.frame_timeout_seconds
    )
    if welcome.get("type") == "drain":
        return None  # connected after the phase ended: nothing to do
    if welcome.get("type") == "reject":
        raise HandshakeError(
            f"coordinator rejected worker: {welcome.get('reason')}"
        )
    if welcome.get("type") != "welcome":
        raise HandshakeError(
            f"expected welcome, got {welcome.get('type')!r}"
        )
    if welcome.get("protocol") != PROTOCOL_VERSION:
        raise HandshakeError(
            f"protocol mismatch: coordinator speaks "
            f"{welcome.get('protocol')}, worker speaks {PROTOCOL_VERSION}"
        )
    system, inputs, fault_plan = decode_blob(welcome["payload"])
    return _Session(
        system=system,
        inputs=inputs,
        fault_plan=fault_plan,
        fingerprint=str(welcome["fingerprint"]),
        root_seed=int(welcome["root_seed"]),
        base_stream=str(welcome["base_stream"]),
        batch_size=int(welcome["batch_size"]),
        collect=bool(welcome.get("collect", False)),
    )


async def _execute_lease(
    session: _Session, lease: Dict[str, Any]
) -> Dict[str, Any]:
    """Run one leased shard off-loop and build its summary payload.

    The shard executes in the default executor so the event loop keeps
    answering the transport (a slow shard must not starve keepalives
    or delay a concurrent in-process worker).
    """
    # deferred import: the worker module must stay importable even
    # where numpy-heavy simulation extras are being stubbed out
    from repro.simulation.parallel import _ShardTask, _run_shard

    index = int(lease["shard"])
    attempt = int(lease["attempt"])
    task = _ShardTask(
        system=session.system,
        trials=int(lease["trials"]),
        base_stream=session.base_stream,
        index=index,
        stream=str(lease["stream"]),
        root_seed=session.root_seed,
        inputs=session.inputs,
        batch_size=session.batch_size,
        collect=session.collect,
        fault_plan=session.fault_plan,
    )
    loop = asyncio.get_running_loop()
    wins, elapsed, snapshot = await loop.run_in_executor(
        None, _run_shard, task, attempt
    )
    return {
        "type": "summary",
        "shard": index,
        "attempt": attempt,
        "stream": task.stream,
        "trials": task.trials,
        "wins": wins,
        "elapsed_seconds": elapsed,
        "fingerprint": session.fingerprint,
        "metrics": (
            None if snapshot is None else snapshot_to_payload(snapshot)
        ),
    }


async def worker_session(
    config: WorkerConfig, log=None, stop: Optional[asyncio.Event] = None
) -> WorkerReport:
    """Serve one coordinator until it drains (or disappears for good).

    Returns the session's :class:`WorkerReport`.  Raises
    :class:`CoordinatorUnreachableError` if the *first* connection
    cannot be made, and :class:`InjectedCrashError` when a chaos plan
    kills this worker (callers decide whether that ends a process or
    just a task).

    *stop* (an :class:`asyncio.Event`, used by ``repro work``'s signal
    handlers) requests a graceful exit: the worker **finishes the
    lease it is executing and delivers its summary** -- never dying
    mid-lease, so the coordinator does not have to wait out a lease
    expiry -- then sends ``goodbye`` and returns instead of
    requesting more work.
    """
    worker_id = config.worker_id or f"worker-{id(config) & 0xFFFF:04x}"
    report = WorkerReport(worker_id=worker_id)

    def say(message: str) -> None:
        if log is not None:
            log(f"[{worker_id}] {message}")

    def stopping() -> bool:
        return stop is not None and stop.is_set()

    while True:
        if stopping():
            report.drained = True
            say("stop requested while disconnected; exiting")
            return report
        try:
            reader, writer = await _connect(
                config,
                worker_id,
                max_attempts=(
                    _RECONNECT_ATTEMPTS
                    if (report.summaries_sent or report.shards_completed)
                    else None
                ),
            )
        except CoordinatorUnreachableError:
            if report.summaries_sent or report.shards_completed:
                # the coordinator completed and went away; this is the
                # normal end of a session that outlived the run
                report.drained = True
                return report
            raise
        try:
            session = await _handshake(reader, writer, config, worker_id)
            if session is None:
                report.drained = True
                say("drained")
                return report
            say(f"connected to {config.host}:{config.port}")
            while True:
                if stopping():
                    # the graceful-signal contract: the lease that was
                    # running when the signal arrived has already been
                    # executed and its summary delivered above; tell
                    # the coordinator we are leaving instead of
                    # vanishing and exit clean.
                    report.drained = True
                    try:
                        await write_frame(writer, {"type": "goodbye"})
                    except DistributedError:
                        pass
                    say("stop requested; sent final frame")
                    return report
                await write_frame(
                    writer,
                    {"type": "lease_request", "worker_id": worker_id},
                    timeout=config.frame_timeout_seconds,
                )
                frame = await read_frame(
                    reader, timeout=config.frame_timeout_seconds
                )
                kind = frame.get("type")
                if kind == "idle":
                    await asyncio.sleep(
                        float(frame.get("retry_after", 0.05))
                    )
                    continue
                if kind in ("drain", "shutdown"):
                    report.drained = True
                    try:
                        await write_frame(writer, {"type": "goodbye"})
                    except DistributedError:
                        pass
                    say("drained")
                    return report
                if kind != "lease":
                    continue  # unknown frame: forward compatibility
                try:
                    summary = await _execute_lease(session, frame)
                except InjectedCrashError:
                    # simulate sudden worker death: sever the transport
                    # so the coordinator notices immediately
                    transport = writer.transport
                    if transport is not None:
                        transport.abort()
                    say("crashed (injected)")
                    raise
                report.shards_completed += 1
                spec = None
                if session.fault_plan is not None:
                    spec = session.fault_plan.network_fault(
                        session.base_stream,
                        int(frame["shard"]),
                        int(frame["attempt"]),
                    )
                outcome = await chaos.deliver_with_chaos(
                    writer,
                    summary,
                    spec,
                    timeout=config.frame_timeout_seconds,
                )
                if outcome == chaos.DROPPED:
                    report.summaries_dropped += 1
                    say(f"summary for shard {frame['shard']} dropped")
                    continue
                if outcome == chaos.PARTITIONED:
                    report.partitions += 1
                    say("partitioned; reconnecting")
                    raise ConnectionClosedError("injected partition")
                report.summaries_sent += 1
        except (
            ConnectionClosedError,
            FrameError,
            FrameTimeoutError,
            ProtocolError,
            OSError,
        ) as exc:
            # connection-level trouble: the coordinator reassigns any
            # lease this worker held; reconnect and keep serving
            report.reconnects += 1
            say(f"connection lost ({exc}); reconnecting")
            continue
        finally:
            try:
                writer.close()
            except Exception:
                pass


def run_worker(
    config: WorkerConfig, log=None, handle_signals: bool = False
) -> WorkerReport:
    """Synchronous entry point: serve one coordinator to completion.

    *handle_signals* (on for ``repro work``) turns SIGTERM/SIGINT into
    a graceful drain: the in-flight lease finishes and its summary is
    delivered, a final ``goodbye`` frame is sent, and the returned
    report carries ``interrupted_signal`` so the CLI can exit
    ``128 + signum`` (130 for SIGINT, 143 for SIGTERM).
    """

    async def main() -> WorkerReport:
        stop: Optional[asyncio.Event] = None
        installed = []
        caught: dict = {}
        if handle_signals:
            import signal as _signal

            stop = asyncio.Event()
            loop = asyncio.get_running_loop()

            def on_signal(signum: int) -> None:
                caught.setdefault("signum", signum)
                stop.set()

            for signum in (_signal.SIGTERM, _signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, on_signal, signum)
                except (NotImplementedError, RuntimeError, ValueError):
                    continue  # non-main thread or exotic loop: skip
                installed.append((loop, signum))
        try:
            report = await worker_session(config, log=log, stop=stop)
        finally:
            for loop, signum in installed:
                try:
                    loop.remove_signal_handler(signum)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass
        if handle_signals and caught:
            report.interrupted_signal = caught["signum"]
        return report

    return asyncio.run(main())
