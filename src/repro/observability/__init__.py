"""Zero-dependency instrumentation for the simulation/optimization pipeline.

The subsystem answers "where does a run spend its time?" without
perturbing the run: metrics, spans and throughput are collected out of
band, never touch any random stream, and default to a shared no-op
instance whose every operation is a single branch -- simulation
results are bit-identical whether instrumentation is on, off, or
absent.

* :mod:`~repro.observability.metrics` -- thread-safe counters, gauges
  and timing histograms with exact (integer) snapshot/merge, so
  per-shard metrics cross the process boundary losslessly;
* :mod:`~repro.observability.tracing` -- hierarchical wall-clock spans
  exportable as JSON or Chrome trace events (Perfetto-loadable);
* :mod:`~repro.observability.progress` -- trials/sec throughput and
  the per-shard progress callback;
* :mod:`~repro.observability.reporting` -- the ``--profile`` text
  report and the Chrome trace writer;
* :mod:`~repro.observability.events` -- the run's sealed event log,
  which ``--metrics-out`` writes and :func:`reconstruct_metrics`
  replays.

Usage, scoped (preferred)::

    from repro.observability import use_instrumentation

    with use_instrumentation() as instr:
        engine.estimate_winning_probability(system, trials=10**6, workers=8)
    print(render_report(instr))

or explicit: pass ``instrumentation=`` to :class:`MonteCarloEngine` or
the sharded executor.  Library code resolves the instrument at call
time via :func:`get_instrumentation`, which returns the no-op
:data:`NULL_INSTRUMENTATION` unless a caller activated one.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.observability.events import (
    EventBus,
    read_events,
    reconstruct_metrics,
)
from repro.observability.metrics import (
    MetricsRegistry,
    MetricsSnapshot,
    TimingStats,
    merge_snapshots,
)
from repro.observability.progress import (
    ProgressCallback,
    ShardProgress,
    ThroughputTracker,
    format_rate,
)
from repro.observability.reporting import (
    render_report,
    render_span_tree,
    write_chrome_trace,
)
from repro.observability.runmeta import (
    RunContext,
    current_run,
    new_run_context,
    run_header,
    set_current_run,
)
from repro.observability.tracing import Span, Tracer, traced

__all__ = [
    "EventBus",
    "Instrumentation",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NULL_INSTRUMENTATION",
    "ProgressCallback",
    "RunContext",
    "ShardProgress",
    "Span",
    "ThroughputTracker",
    "TimingStats",
    "Tracer",
    "current_run",
    "format_rate",
    "get_instrumentation",
    "merge_snapshots",
    "new_run_context",
    "read_events",
    "reconstruct_metrics",
    "render_report",
    "render_span_tree",
    "run_header",
    "set_current_run",
    "set_instrumentation",
    "traced",
    "use_instrumentation",
    "write_chrome_trace",
]


class Instrumentation:
    """One run's telemetry: a metrics registry, a tracer, a throughput
    tracker, sharing a single enabled flag.

    The disabled instance (:data:`NULL_INSTRUMENTATION`) is what the
    library sees by default; all of its operations are no-ops, so
    instrumented hot paths cost one branch when observability is off.
    """

    __slots__ = ("_enabled", "metrics", "tracer", "throughput", "events")

    def __init__(self, enabled: bool = True):
        self._enabled = bool(enabled)
        self.metrics = MetricsRegistry(enabled=self._enabled)
        self.tracer = Tracer(enabled=self._enabled)
        self.throughput = ThroughputTracker(enabled=self._enabled)
        #: Optional :class:`EventBus`: attach one to stream run events
        #: (shard completions, faults, periodic metrics snapshots) to
        #: the dashboard and/or the run-history store.  ``None`` keeps
        #: every ``emit`` call a single branch.
        self.events: Optional[EventBus] = None

    @property
    def enabled(self) -> bool:
        """Whether any component of this instrument records anything."""
        return self._enabled

    @classmethod
    def disabled(cls) -> "Instrumentation":
        """A fresh all-no-op instrument (rarely needed; prefer
        :data:`NULL_INSTRUMENTATION`)."""
        return cls(enabled=False)

    def span(self, name: str, **meta: Any):
        """Shorthand for ``self.tracer.span(name, **meta)``."""
        return self.tracer.span(name, **meta)

    def increment(self, name: str, amount: int = 1) -> None:
        """Shorthand for ``self.metrics.increment(name, amount)``."""
        self.metrics.increment(name, amount)

    def observe(self, name: str, seconds: float) -> None:
        """Shorthand for ``self.metrics.observe(name, seconds)``."""
        self.metrics.observe(name, seconds)

    def set_gauge(self, name: str, value: float) -> None:
        """Shorthand for ``self.metrics.set_gauge(name, value)``."""
        self.metrics.set_gauge(name, value)

    def emit(self, event_type: str, **payload: Any) -> None:
        """Emit a run event onto the attached bus (no-op without one).

        This is the hook instrumented call sites use -- one attribute
        load and one ``is None`` branch when no bus is attached, so
        the disabled path stays within the observability overhead
        gate."""
        if self.events is not None:
            self.events.emit(event_type, **payload)

    def __repr__(self) -> str:
        state = "enabled" if self._enabled else "disabled"
        return f"Instrumentation({state})"


#: The shared no-op instrument: what :func:`get_instrumentation`
#: returns while nothing is activated.
NULL_INSTRUMENTATION = Instrumentation(enabled=False)

_active: Instrumentation = NULL_INSTRUMENTATION


def get_instrumentation() -> Instrumentation:
    """The active instrument (the no-op singleton unless one was set).

    Library call sites resolve this lazily at call time, so turning
    instrumentation on never requires re-constructing engines.
    """
    return _active


def set_instrumentation(
    instrumentation: Optional[Instrumentation],
) -> Instrumentation:
    """Install *instrumentation* as the active instrument; returns the
    previous one so callers can restore it.  ``None`` resets to the
    no-op singleton.  Prefer :func:`use_instrumentation` for scoped
    activation."""
    global _active
    previous = _active
    _active = (
        NULL_INSTRUMENTATION if instrumentation is None else instrumentation
    )
    return previous


@contextmanager
def use_instrumentation(
    instrumentation: Optional[Instrumentation] = None,
) -> Iterator[Instrumentation]:
    """Activate an instrument for the duration of a ``with`` block.

    Creates a fresh enabled :class:`Instrumentation` when called with
    no argument; always restores the previously active instrument on
    exit, so nesting and test isolation work."""
    instrument = (
        Instrumentation() if instrumentation is None else instrumentation
    )
    previous = set_instrumentation(instrument)
    try:
        yield instrument
    finally:
        set_instrumentation(previous)
