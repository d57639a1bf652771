"""The run-telemetry event bus: one append-only JSONL stream per run.

PR 2 gave the pipeline point-in-time exports (``--metrics-out``,
``--trace-out``); PR 3 gave shards durable checkpoints.  What was
missing is the *stream*: one schema'd sequence of events unifying
shard progress, retry/fault events, cache and batch counters, and
periodic metrics snapshots -- the substrate the live dashboard renders
from, the run-history store persists, and the regression gate queries.

Design rules, inherited from the rest of the observability layer:

* **Observation only.**  Emitting an event never touches a random
  stream and never changes a result; with no bus attached,
  :meth:`Instrumentation.emit <repro.observability.Instrumentation>`
  is a single ``is None`` branch.
* **Sealed lines.**  Every line carries its own checksum (the
  checkpoint idiom of :mod:`repro.simulation.faulttolerance`), so a
  torn final line -- the expected failure mode of an interrupted run
  -- is detected and *skipped* by the reader, never fatal.
* **Exact reconstruction.**  Metrics snapshots are encoded with the
  registry's native integers (counts and nanosecond totals verbatim,
  bucket tallies as lists); :func:`reconstruct_metrics` returns a
  :class:`~repro.observability.metrics.MetricsSnapshot` equal to the
  one snapshotted at emit time, bit for bit, at any worker count.

Event vocabulary (``schema_version`` 1):

========== ==========================================================
type       payload
========== ==========================================================
run_start  the :func:`~repro.observability.runmeta.run_header` stamp
shard      one completed shard: index/trials/wins/attempt/recovered,
           elapsed_ns, completed/total, the owning stream
fault      one shard failure: kind/index/attempt/stream/message
point      one sweep grid point completed: label, index, total
batch      one batched evaluation: points/certified/fallbacks
worker     a remote worker joined or left: action (``connect`` /
           ``disconnect``), worker id, workers now connected
lease      one shard-lease transition: action (``grant`` / ``expire``
           / ``duplicate``), shard, attempt, worker
metrics    a cumulative snapshot (kind ``periodic`` or ``final``)
run_end    exit_code plus total elapsed_ns
========== ==========================================================

All timestamps are ``t_ns``: integer nanoseconds since the run
context's monotonic origin.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.fsutil import _open_line, _sealed_line
from repro.observability.metrics import (
    MetricsRegistry,
    MetricsSnapshot,
    TimingStats,
)
from repro.observability.runmeta import RunContext, current_run, run_header

__all__ = [
    "EVENT_LOG_SCHEMA_VERSION",
    "EventBus",
    "EventLogRead",
    "EventSubscriber",
    "counter_samples_from_events",
    "read_events",
    "reconstruct_metrics",
    "snapshot_from_payload",
    "snapshot_to_payload",
]

EVENT_LOG_SCHEMA_VERSION = 1

#: An event consumer: called synchronously with each emitted event
#: dict.  Subscribers must not mutate the event.
EventSubscriber = Callable[[Dict[str, Any]], None]


# ---------------------------------------------------------------------------
# Exact snapshot codec
# ---------------------------------------------------------------------------


def snapshot_to_payload(snapshot: MetricsSnapshot) -> Dict[str, Any]:
    """A snapshot as JSON-ready dicts, losslessly.

    Counters and every timing field are the registry's own integers;
    gauges are floats, which JSON round-trips exactly (shortest-repr
    encoding both ways).
    """
    return {
        "counters": dict(snapshot.counters),
        "gauges": dict(snapshot.gauges),
        "timings": {
            name: {
                "count": stats.count,
                "total_ns": stats.total_ns,
                "min_ns": stats.min_ns,
                "max_ns": stats.max_ns,
                "bucket_bounds_ns": list(stats.bucket_bounds_ns),
                "bucket_counts": list(stats.bucket_counts),
            }
            for name, stats in snapshot.timings.items()
        },
    }


def snapshot_from_payload(payload: Mapping[str, Any]) -> MetricsSnapshot:
    """The inverse of :func:`snapshot_to_payload`, bit-exactly."""
    timings = {}
    for name, fields in payload.get("timings", {}).items():
        timings[name] = TimingStats(
            count=int(fields["count"]),
            total_ns=int(fields["total_ns"]),
            min_ns=(
                None if fields["min_ns"] is None else int(fields["min_ns"])
            ),
            max_ns=(
                None if fields["max_ns"] is None else int(fields["max_ns"])
            ),
            bucket_bounds_ns=tuple(
                int(bound) for bound in fields["bucket_bounds_ns"]
            ),
            bucket_counts=tuple(
                int(count) for count in fields["bucket_counts"]
            ),
        )
    return MetricsSnapshot(
        counters={
            name: int(value)
            for name, value in payload.get("counters", {}).items()
        },
        gauges={
            name: float(value)
            for name, value in payload.get("gauges", {}).items()
        },
        timings=timings,
    )


# ---------------------------------------------------------------------------
# The bus
# ---------------------------------------------------------------------------


class EventBus:
    """Collects one run's events; optionally persists them as JSONL.

    *path* (optional) is the append-only event log; without one the bus
    only fans out to subscribers (the dashboard-without-recording
    case).  *metrics* (optional) attaches a registry: after any
    non-metrics event, if *snapshot_interval_seconds* of run time have
    passed since the last snapshot, a cumulative ``metrics`` event is
    emitted automatically -- so long sweeps produce a rate-over-time
    series without any caller pumping explicitly.

    Writes are append + flush per event (an interrupted run loses at
    most its torn final line, which the reader's per-line checksum
    skips); ``close`` fsyncs before releasing the handle.  All emission
    is serialised behind one lock, so shard callbacks from any thread
    interleave safely.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        context: Optional[RunContext] = None,
        subscribers: Sequence[EventSubscriber] = (),
        metrics: Optional[MetricsRegistry] = None,
        snapshot_interval_seconds: float = 1.0,
    ):
        self._context = current_run() if context is None else context
        self._subscribers: List[EventSubscriber] = list(subscribers)
        self._metrics = metrics
        self._snapshot_interval_ns = max(
            0, int(snapshot_interval_seconds * 1e9)
        )
        self._last_snapshot_ns = 0
        self._lock = threading.RLock()
        self._closed = False
        self._events_emitted = 0
        self._path: Optional[Path] = None
        self._handle = None
        if path is not None:
            self._path = Path(path)
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self._path.open("a")
        self.emit(
            "run_start",
            schema_version=EVENT_LOG_SCHEMA_VERSION,
            **run_header(self._context),
        )

    @property
    def path(self) -> Optional[Path]:
        """Where this bus appends (``None`` for an in-memory bus)."""
        return self._path

    @property
    def context(self) -> RunContext:
        """The run this bus belongs to."""
        return self._context

    @property
    def events_emitted(self) -> int:
        """How many events this bus has emitted so far."""
        return self._events_emitted

    def subscribe(self, subscriber: EventSubscriber) -> None:
        """Add a consumer; it sees every event emitted from now on."""
        with self._lock:
            self._subscribers.append(subscriber)

    def emit(self, event_type: str, **payload: Any) -> Dict[str, Any]:
        """Record one event; returns the event dict as written.

        The event is stamped with ``t_ns`` (integer nanoseconds since
        the run started), written to the log (if any), then handed to
        every subscriber in subscription order.  Subscriber exceptions
        propagate: a broken dashboard is a bug to surface, not hide.
        """
        with self._lock:
            if self._closed:
                return {}
            event = {
                "type": event_type,
                "t_ns": self._context.elapsed_ns(),
                **payload,
            }
            if self._handle is not None:
                self._handle.write(_sealed_line(event))
                self._handle.flush()
            self._events_emitted += 1
            for subscriber in list(self._subscribers):
                subscriber(event)
            if (
                self._metrics is not None
                and event_type not in ("metrics", "run_end")
                and event["t_ns"] - self._last_snapshot_ns
                >= self._snapshot_interval_ns
            ):
                self._emit_metrics_locked("periodic")
            return event

    def _emit_metrics_locked(self, kind: str) -> None:
        snapshot = self._metrics.snapshot()
        self._last_snapshot_ns = self._context.elapsed_ns()
        event = {
            "type": "metrics",
            "t_ns": self._last_snapshot_ns,
            "kind": kind,
            "snapshot": snapshot_to_payload(snapshot),
        }
        if self._handle is not None:
            self._handle.write(_sealed_line(event))
            self._handle.flush()
        self._events_emitted += 1
        for subscriber in list(self._subscribers):
            subscriber(event)

    def emit_metrics(self, kind: str = "periodic") -> None:
        """Emit a cumulative metrics snapshot now (no-op without an
        attached registry)."""
        with self._lock:
            if self._closed or self._metrics is None:
                return
            self._emit_metrics_locked(kind)

    def close(self, exit_code: Optional[int] = None) -> None:
        """Emit the final snapshot and ``run_end``, then seal the log.

        Idempotent; the final ``metrics`` event (kind ``"final"``) is
        what :func:`reconstruct_metrics` replays.
        """
        with self._lock:
            if self._closed:
                return
            if self._metrics is not None:
                self._emit_metrics_locked("final")
            event = {
                "type": "run_end",
                "t_ns": self._context.elapsed_ns(),
                "exit_code": exit_code,
                "events": self._events_emitted,
            }
            if self._handle is not None:
                self._handle.write(_sealed_line(event))
                self._handle.flush()
                os.fsync(self._handle.fileno())
                self._handle.close()
                self._handle = None
            self._events_emitted += 1
            for subscriber in list(self._subscribers):
                subscriber(event)
            self._closed = True

    def __enter__(self) -> "EventBus":
        """Context-manager entry: the bus itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: close the log cleanly."""
        self.close()

    def __repr__(self) -> str:
        target = "memory" if self._path is None else str(self._path)
        return (
            f"EventBus({target}, {self._events_emitted} events, "
            f"run {self._context.run_id})"
        )


# ---------------------------------------------------------------------------
# Reading the log back
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EventLogRead:
    """Everything salvageable from one event log."""

    events: Tuple[Dict[str, Any], ...]
    corrupt_lines: int

    @property
    def header(self) -> Optional[Dict[str, Any]]:
        """The ``run_start`` event, when intact."""
        for event in self.events:
            if event.get("type") == "run_start":
                return event
        return None

    def of_type(self, event_type: str) -> List[Dict[str, Any]]:
        """Every event of one type, in emission order."""
        return [e for e in self.events if e.get("type") == event_type]


def read_events(path: Union[str, Path]) -> EventLogRead:
    """Read an event log, keeping every intact line.

    Corrupt lines -- torn writes, flipped bytes, truncation -- fail to
    decode or fail their checksum and are skipped (counted in
    ``corrupt_lines``), never fatal: telemetry must degrade, not
    block.  A missing file raises ``OSError`` like any other read.
    """
    target = Path(path)
    events: List[Dict[str, Any]] = []
    corrupt = 0
    with target.open("rb") as handle:
        for line in handle:
            if not line.strip():
                continue
            event = _open_line(line)
            if event is None or "type" not in event:
                corrupt += 1
                continue
            events.append(event)
    return EventLogRead(events=tuple(events), corrupt_lines=corrupt)


def reconstruct_metrics(
    source: Union[str, Path, EventLogRead],
) -> Optional[MetricsSnapshot]:
    """Replay an event log into its final :class:`MetricsSnapshot`.

    Returns the decoded snapshot of the last ``metrics`` event
    (``kind="final"`` when the run closed cleanly; the last periodic
    one when it did not), exactly equal to the registry snapshot taken
    at emit time -- the reconstruction the test-suite pins down bit
    for bit at every worker count.  ``None`` when the log carries no
    snapshot at all.
    """
    log = (
        source
        if isinstance(source, EventLogRead)
        else read_events(source)
    )
    snapshots = log.of_type("metrics")
    if not snapshots:
        return None
    return snapshot_from_payload(snapshots[-1]["snapshot"])


# ---------------------------------------------------------------------------
# Rate series (for Chrome counter events and sparklines)
# ---------------------------------------------------------------------------


def _counter(snapshot: Mapping[str, Any], *names: str) -> int:
    counters = snapshot.get("counters", {})
    return sum(int(counters.get(name, 0)) for name in names)


def counter_samples_from_events(
    events: Sequence[Mapping[str, Any]],
) -> List[Dict[str, Any]]:
    """Per-snapshot rate samples from a run's ``metrics`` events.

    For each snapshot: instantaneous throughput (trials since the
    previous snapshot over the time between them), cumulative cache
    hit-rate (memory + disk tiers), and cumulative batch fallback-rate
    -- the three series :func:`~repro.observability.reporting.
    write_chrome_trace` renders as Chrome counter tracks.  Rates whose
    denominator is zero are reported as ``None`` and skipped by the
    renderers.
    """
    samples: List[Dict[str, Any]] = []
    previous_trials = 0
    previous_t_ns = 0
    for event in events:
        if event.get("type") != "metrics":
            continue
        snapshot = event.get("snapshot", {})
        t_ns = int(event.get("t_ns", 0))
        trials = _counter(snapshot, "shard.trials") or _counter(
            snapshot, "engine.trials"
        )
        delta_ns = t_ns - previous_t_ns
        throughput = (
            (trials - previous_trials) / (delta_ns / 1e9)
            if delta_ns > 0
            else None
        )
        cache_hits = _counter(snapshot, "cache.hits", "cache.disk_hits")
        cache_total = cache_hits + _counter(
            snapshot, "cache.misses", "cache.disk_misses"
        )
        batch_points = _counter(snapshot, "batch.points")
        samples.append(
            {
                "t_us": t_ns / 1e3,
                "trials_per_second": throughput,
                "cache_hit_rate": (
                    cache_hits / cache_total if cache_total else None
                ),
                "batch_fallback_rate": (
                    _counter(snapshot, "batch.fallbacks") / batch_points
                    if batch_points
                    else None
                ),
            }
        )
        previous_trials = trials
        previous_t_ns = t_ns
    return samples
