"""The asyncio HTTP/1.1 server: transport, lifecycle, graceful drain.

Zero dependencies beyond the standard library: requests are parsed
straight off :class:`asyncio.StreamReader` (request line, headers,
optional body -- enough HTTP/1.1 for JSON-over-GET with keep-alive),
so the serving layer inherits none of a framework's failure modes and
the whole request path stays auditable.

Lifecycle::

    start()             bind; /healthz live, /readyz 503 "warming"
      warm task         compile warm-set tables, prime the disk cache,
                        pre-solve warm optima; then ready = True
    serve_until_stopped()
      ... requests ...
    SIGTERM/SIGINT  ->  request_stop(): draining = True
      - the listening socket closes (no new connections)
      - new requests on live keep-alive connections get 503 + close
      - in-flight requests run to completion, up to drain_seconds
      - stragglers past the drain deadline are aborted
    -> a ServeReport of what happened, and a clean exit

Chaos: a :class:`~repro.simulation.faulttolerance.FaultPlan` (CLI
``--chaos KIND:REQUEST[:SECONDS]``) keys faults by the **request
sequence number** on the ``serve`` stream -- request 3 of a chaos run
hits the same fault every run.  ``slow``/``hang`` burn kernel budget
(handlers), ``corrupt`` forces a cache-bypassing recompute (handlers),
``delay`` stalls the response write, ``drop``/``partition`` sever the
connection mid-request.  None of them can produce a 500: every fault
lands as a degraded-but-bounded answer, a shed, or a visibly killed
connection.
"""

from __future__ import annotations

import asyncio
import signal
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from repro.errors import ServeError
from repro.observability import Instrumentation, get_instrumentation
from repro.serve.admission import AdmissionController, CircuitBreaker
from repro.serve.degrade import Deadline
from repro.serve.handlers import Coalescer, Response, handle_request
from repro.simulation.faulttolerance import FaultPlan

__all__ = ["ReproServer", "ServeConfig", "ServeReport", "run_server"]

#: The chaos-plan stream name for serve-path faults.
CHAOS_STREAM = "serve"

#: Faults that sever the client connection instead of degrading.
_SEVERING_KINDS = ("drop", "partition")


def _default_warm() -> Tuple[Tuple[int, Fraction], ...]:
    """The paper's small-n cases: cheap to compile, and they cover the
    worked examples every quickstart query hits."""
    half = Fraction(1, 2)
    return ((2, half), (3, half), (4, half))


@dataclass(frozen=True)
class ServeConfig:
    """Everything ``repro serve`` is allowed to decide."""

    host: str = "127.0.0.1"
    port: int = 8080
    max_inflight: int = 8
    queue_depth: int = 16
    deadline_ms: float = 250.0
    drain_seconds: float = 5.0
    warm: Tuple[Tuple[int, Fraction], ...] = field(
        default_factory=_default_warm
    )
    warm_optima: bool = True
    chaos: Optional[FaultPlan] = None
    max_n: int = 32
    asymptotic_max_n: int = 10_000_000
    breaker_failures: int = 3
    breaker_cooldown_seconds: float = 5.0
    breaker_slow_seconds: float = 0.5
    keepalive_seconds: float = 5.0

    def __post_init__(self):
        if not 0 <= self.port < 65536:
            raise ServeError(
                f"port must be in [0, 65536), got {self.port}"
            )
        if self.deadline_ms <= 0:
            raise ServeError(
                f"deadline_ms must be positive, got {self.deadline_ms}"
            )
        if self.drain_seconds < 0:
            raise ServeError(
                f"drain_seconds must be >= 0, got {self.drain_seconds}"
            )
        if self.max_inflight < 1:
            raise ServeError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.queue_depth < 0:
            raise ServeError(
                f"queue_depth must be >= 0, got {self.queue_depth}"
            )
        if self.asymptotic_max_n < self.max_n:
            raise ServeError(
                "asymptotic_max_n must be >= max_n, got "
                f"{self.asymptotic_max_n} < {self.max_n}"
            )


@dataclass
class ServeReport:
    """What one server lifetime did, for the CLI summary and tests."""

    accepted: int = 0
    shed: int = 0
    completed: int = 0
    degraded: int = 0
    drained_clean: bool = True
    aborted_connections: int = 0
    stop_reason: str = ""
    uptime_seconds: float = 0.0


class ReproServer:
    """One serving lifetime: bind, warm, answer, drain."""

    def __init__(
        self,
        config: ServeConfig,
        instrumentation: Optional[Instrumentation] = None,
        log: Optional[Callable[[str], None]] = None,
    ):
        if instrumentation is None:
            ambient = get_instrumentation()
            instrumentation = (
                ambient if ambient.enabled else Instrumentation()
            )
        self.config = config
        self.instrumentation = instrumentation
        self.admission = AdmissionController(
            config.max_inflight,
            config.queue_depth,
            instrumentation=instrumentation,
        )
        self.breaker = CircuitBreaker(
            failure_threshold=config.breaker_failures,
            cooldown_seconds=config.breaker_cooldown_seconds,
            slow_seconds=config.breaker_slow_seconds,
            instrumentation=instrumentation,
        )
        self.coalescer = Coalescer(instrumentation=instrumentation)
        self._log = log
        self.ready = False
        self.draining = False
        self._request_seq = 0
        self._started_at = 0.0
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event = asyncio.Event()
        self._stop_reason = ""
        self._warm_task: Optional[asyncio.Task] = None
        self._writers: set = set()

    # ------------------------------------------------------------------
    # Introspection and per-request policy (used by handlers)
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the real one)."""
        if self._server is None or not self._server.sockets:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    def say(self, message: str) -> None:
        if self._log is not None:
            self._log(f"repro serve: {message}")

    def new_deadline(self, query) -> Deadline:
        """The request's budget: the server default, or a *smaller*
        per-request ``deadline_ms`` override (never larger -- a client
        cannot opt out of the server's latency discipline)."""
        budget = self.config.deadline_ms
        raw = query.get("deadline_ms")
        if raw:
            try:
                requested = float(raw[0])
            except ValueError:
                requested = budget
            if 0 < requested < budget:
                budget = requested
        return Deadline(budget)

    def retry_after_hint(self) -> str:
        """Seconds a shed client should wait: one deadline's worth."""
        return str(max(1, round(self.config.deadline_ms / 1000.0)))

    def next_chaos(self):
        """The fault scheduled for this request sequence number, if any."""
        seq = self._request_seq
        self._request_seq += 1
        if self.config.chaos is None:
            return None
        return self.config.chaos.lookup(CHAOS_STREAM, seq, 0)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the socket and kick off warming; returns once the
        control plane is answering (``/readyz`` says warming)."""
        self._loop = asyncio.get_running_loop()
        self._started_at = time.monotonic()
        try:
            self._server = await asyncio.start_server(
                self._on_connection, self.config.host, self.config.port
            )
        except OSError as exc:
            raise ServeError(
                f"cannot bind {self.config.host}:{self.config.port}: {exc}"
            ) from exc
        self.say(f"listening on http://{self.config.host}:{self.port}")
        self.instrumentation.emit(
            "serve", action="listening", host=self.config.host,
            port=self.port,
        )
        self._warm_task = asyncio.create_task(self._warm())

    async def _warm(self) -> None:
        """Compile the warm-set tables (and prime the disk cache via
        their persisted exact tables) off-loop, then flip ready."""
        def build_all() -> int:
            from repro.batch.tables import (
                compiled_oblivious_curve,
                compiled_threshold_curve,
            )

            built = 0
            for n, delta in self.config.warm:
                compiled_threshold_curve(n, delta)
                compiled_oblivious_curve(delta, n)
                built += 2
                if self.config.warm_optima:
                    from repro.optimize.threshold_opt import (
                        optimal_symmetric_threshold,
                    )

                    optimal_symmetric_threshold(n, delta)
                    built += 1
            return built

        loop = asyncio.get_running_loop()
        built = await loop.run_in_executor(None, build_all)
        self.instrumentation.increment("serve.warmed_kernels", built)
        self.ready = True
        elapsed = time.monotonic() - self._started_at
        self.say(
            f"ready ({built} kernels warmed in {elapsed * 1000:.0f}ms)"
        )
        self.instrumentation.emit(
            "serve", action="ready", warmed=built,
            warm_seconds=round(elapsed, 6),
        )

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT -> graceful drain.  A no-op where the loop
        cannot take handlers (non-main thread, e.g. the test harness --
        which stops the server with :meth:`stop_threadsafe` instead)."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum,
                    self.request_stop,
                    signal.Signals(signum).name,
                )
            except (NotImplementedError, RuntimeError, ValueError):
                return

    def request_stop(self, reason: str = "stop") -> None:
        """Begin the drain; idempotent, loop-thread only."""
        if self.draining:
            return
        self.draining = True
        self._stop_reason = reason
        self.say(f"{reason}: draining ({self.admission.inflight} in flight)")
        self.instrumentation.emit(
            "serve", action="draining", reason=reason,
            inflight=self.admission.inflight,
        )
        self._stop_event.set()

    def stop_threadsafe(self, reason: str = "stop") -> None:
        """Schedule :meth:`request_stop` from any thread; a no-op once
        the server's loop has already shut down."""
        if self._loop is None:
            return
        try:
            self._loop.call_soon_threadsafe(self.request_stop, reason)
        except RuntimeError:
            pass  # loop closed: the server is already stopped

    async def serve_until_stopped(self) -> ServeReport:
        """Answer until a stop is requested, then drain and report."""
        await self._stop_event.wait()
        return await self._drain()

    async def _drain(self) -> ServeReport:
        """Stop accepting, let in-flight work finish, then cut losses.

        The drain deadline bounds how long a stuck request can hold
        the process; connections still open past it are aborted and
        counted, so the exit is clean either way -- just not silent
        about what it had to abandon.
        """
        if self._server is not None:
            self._server.close()
        if self._warm_task is not None and not self._warm_task.done():
            self._warm_task.cancel()
        drain_deadline = time.monotonic() + self.config.drain_seconds
        while not self.admission.idle():
            if time.monotonic() >= drain_deadline:
                break
            await asyncio.sleep(0.005)
        clean = self.admission.idle()
        aborted = 0
        for writer in list(self._writers):
            transport = writer.transport
            if transport is not None:
                transport.abort()
                aborted += 1
        if self._server is not None:
            await self._server.wait_closed()
        report = ServeReport(
            accepted=self.admission.accepted,
            shed=self.admission.shed,
            completed=self.admission.completed,
            degraded=self.instrumentation.metrics.counter_value(
                "serve.degraded"
            ),
            drained_clean=clean,
            aborted_connections=aborted if not clean else 0,
            stop_reason=self._stop_reason,
            uptime_seconds=time.monotonic() - self._started_at,
        )
        self.say(
            f"stopped ({report.completed} completed, {report.shed} shed, "
            f"drain {'clean' if clean else 'forced'})"
        )
        self.instrumentation.emit(
            "serve", action="stopped", completed=report.completed,
            shed=report.shed, clean=clean,
        )
        return report

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, query_string, version, headers = request
                chaos = self.next_chaos()
                if chaos is not None and chaos.kind in _SEVERING_KINDS:
                    self.instrumentation.increment("serve.chaos_severed")
                    self.instrumentation.emit(
                        "fault", kind=chaos.kind, index=-1, attempt=0,
                        layer="serve",
                    )
                    transport = writer.transport
                    if transport is not None:
                        transport.abort()
                    return
                response = await handle_request(
                    self, method, path, query_string, chaos
                )
                if chaos is not None and chaos.kind == "delay":
                    self.instrumentation.increment("serve.chaos_delayed")
                    await asyncio.sleep(chaos.seconds)
                close = (
                    self.draining
                    or version == "HTTP/1.0"
                    or headers.get("connection", "").lower() == "close"
                    or response.headers.get("Connection") == "close"
                )
                await self._write_response(writer, response, close)
                if close:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
        ):
            pass
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
            except Exception:
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one request; ``None`` ends the connection quietly."""
        try:
            raw_line = await asyncio.wait_for(
                reader.readline(), timeout=self.config.keepalive_seconds
            )
        except asyncio.TimeoutError:
            return None
        if not raw_line:
            return None
        try:
            line = raw_line.decode("latin-1").strip()
            method, target, version = line.split(" ", 2)
        except ValueError:
            return None
        headers = {}
        while True:
            raw = await asyncio.wait_for(
                reader.readline(), timeout=self.config.keepalive_seconds
            )
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0) or 0)
        if length:
            await reader.readexactly(length)  # body read and ignored
        path, _, query_string = target.partition("?")
        return method.upper(), path, query_string, version, headers

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        response: Response,
        close: bool,
    ) -> None:
        reason = {
            200: "OK",
            400: "Bad Request",
            404: "Not Found",
            405: "Method Not Allowed",
            429: "Too Many Requests",
            503: "Service Unavailable",
        }.get(response.status, "Response")
        head: List[str] = [
            f"HTTP/1.1 {response.status} {reason}",
            f"Content-Type: {response.content_type}",
            f"Content-Length: {len(response.body)}",
        ]
        for name, value in response.headers.items():
            if name != "Connection":
                head.append(f"{name}: {value}")
        head.append(f"Connection: {'close' if close else 'keep-alive'}")
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode() + response.body
        )
        await writer.drain()


def run_server(
    config: ServeConfig,
    log: Optional[Callable[[str], None]] = None,
    on_listening: Optional[Callable[[ReproServer], None]] = None,
) -> ServeReport:
    """Synchronous entry point: serve until SIGTERM/SIGINT, drain,
    return the report.  *on_listening* fires once the socket is bound
    (the test harness uses it to learn a ``port=0`` assignment)."""

    async def _main() -> ServeReport:
        server = ReproServer(config, log=log)
        await server.start()
        server.install_signal_handlers()
        if on_listening is not None:
            on_listening(server)
        return await server.serve_until_stopped()

    return asyncio.run(_main())
