"""Render and export collected telemetry.

Two outputs from one instrumented run:

* :func:`render_report` -- the human-readable run report printed by
  every CLI subcommand's ``--profile`` flag: counters, gauges, timing
  histograms, aggregate throughput, and the span tree;
* :func:`write_chrome_trace` -- the span forest as a Chrome trace-event
  file (``{"traceEvents": [...]}``), the format behind ``--trace-out``,
  loadable in ``chrome://tracing`` or Perfetto.

Only the rendering lives here; all collection is in
:mod:`~repro.observability.metrics` and
:mod:`~repro.observability.tracing`.  The metrics export behind
``--metrics-out`` is the run's event log itself
(:mod:`~repro.observability.events`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Union

from repro.observability.metrics import MetricsSnapshot
from repro.observability.progress import format_rate
from repro.observability.runmeta import run_header
from repro.observability.tracing import Span, Tracer

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from repro.observability import Instrumentation

__all__ = [
    "FAILURE_COUNTERS",
    "chrome_counter_events",
    "render_failure_section",
    "render_report",
    "render_span_tree",
    "write_chrome_trace",
]

#: Counters recorded by the fault-tolerant sharded executor.  Each maps
#: to the one-line gloss shown in the report's failure section; the
#: section appears only when at least one of them is non-zero, so a
#: clean run's report is unchanged.
FAILURE_COUNTERS = {
    "engine.shard_failures": "shard attempts that failed",
    "engine.shard_retries": "retries scheduled (same seed stream replayed)",
    "engine.shard_timeouts": "shard attempts killed at the wall-clock limit",
    "engine.pool_rebuilds": "process-pool reconstructions",
    "engine.shards_salvaged": "completed shards kept across a failure",
    "engine.shards_resumed": "shards loaded from a checkpoint",
    "engine.pickle_fallback": "serial fallbacks due to unpicklable work",
}


def render_span_tree(
    tracer: Tracer, max_depth: int = 6, max_children: int = 12
) -> str:
    """Indented text rendering of the tracer's span forest.

    Depth and sibling counts are clamped (with an elision marker) so a
    fine sweep cannot turn the report into a thousand-line dump.
    """
    lines: List[str] = []

    def visit(span: Span, depth: int) -> None:
        duration = (
            "?" if span.duration_us is None
            else f"{span.duration_us / 1e6:.4f} s"
        )
        meta = ""
        if span.meta:
            rendered = ", ".join(
                f"{key}={value}" for key, value in sorted(span.meta.items())
            )
            meta = f"  [{rendered}]"
        lines.append(f"{'  ' * depth}{span.name}  {duration}{meta}")
        if depth + 1 >= max_depth and span.children:
            lines.append(
                f"{'  ' * (depth + 1)}... {len(span.children)} nested "
                "span(s) elided"
            )
            return
        for child in span.children[:max_children]:
            visit(child, depth + 1)
        if len(span.children) > max_children:
            lines.append(
                f"{'  ' * (depth + 1)}... "
                f"{len(span.children) - max_children} more sibling(s)"
            )

    for root in tracer.roots():
        visit(root, 0)
    if tracer.dropped:
        lines.append(f"... {tracer.dropped} span(s) dropped at cap")
    return "\n".join(lines)


def render_failure_section(snapshot: MetricsSnapshot) -> str:
    """The failures/recoveries section of the run report.

    Empty (``""``) when no fault-tolerance counter fired -- i.e. for
    every clean run -- so it costs nothing in the common case.  The
    recovery machinery replays named seed streams, so a non-empty
    section never implies the run's numbers are suspect; it reports
    wall-clock spent surviving, not results at risk.
    """
    rows = [
        (name, gloss)
        for name, gloss in FAILURE_COUNTERS.items()
        if snapshot.counters.get(name)
    ]
    if not rows:
        return ""
    width = max(len(name) for name, _ in rows)
    lines = ["failures and recoveries:"]
    for name, gloss in rows:
        lines.append(
            f"  {name:<{width}}  {snapshot.counters[name]:>8,}  ({gloss})"
        )
    return "\n".join(lines)


def render_report(
    instrumentation: "Instrumentation",
    title: str = "instrumentation report",
) -> str:
    """The human-readable run report for one instrumented run."""
    snapshot = instrumentation.metrics.snapshot()
    lines = [f"== {title} =="]

    if snapshot.counters:
        lines.append("counters:")
        width = max(len(name) for name in snapshot.counters)
        for name in sorted(snapshot.counters):
            lines.append(
                f"  {name:<{width}}  {snapshot.counters[name]:>14,}"
            )

    if snapshot.gauges:
        lines.append("gauges:")
        width = max(len(name) for name in snapshot.gauges)
        for name in sorted(snapshot.gauges):
            lines.append(
                f"  {name:<{width}}  {snapshot.gauges[name]:>14,.6g}"
            )

    if snapshot.timings:
        lines.append(
            "timings (seconds):"
        )
        width = max(len(name) for name in snapshot.timings)
        header = (
            f"  {'name':<{width}}  {'count':>8}  {'total':>10}  "
            f"{'mean':>10}  {'min':>10}  {'max':>10}"
        )
        lines.append(header)
        for name in sorted(snapshot.timings):
            stats = snapshot.timings[name]
            lines.append(
                f"  {name:<{width}}  {stats.count:>8,}  "
                f"{stats.total_seconds:>10.4f}  "
                f"{stats.mean_seconds:>10.6f}  "
                f"{stats.min_seconds:>10.6f}  "
                f"{stats.max_seconds:>10.6f}"
            )

    failures = render_failure_section(snapshot)
    if failures:
        lines.append(failures)

    throughput = instrumentation.throughput
    if throughput.units:
        lines.append(
            f"throughput: {format_rate(throughput.rate)} "
            f"({throughput.units:,} trials in {throughput.seconds:.3f} s "
            "of engine wall-clock)"
        )

    tree = render_span_tree(instrumentation.tracer)
    if tree:
        lines.append("spans:")
        lines.append(tree)

    if len(lines) == 1:
        lines.append("(nothing recorded)")
    return "\n".join(lines)


#: The Chrome counter tracks rendered from telemetry rate samples:
#: (sample key, track name, value label).
_COUNTER_TRACKS = (
    ("trials_per_second", "throughput", "trials/s"),
    ("cache_hit_rate", "cache hit rate", "hit fraction"),
    ("batch_fallback_rate", "batch fallback rate", "fallback fraction"),
)


def chrome_counter_events(
    samples: List[dict],
) -> List[dict]:
    """Chrome counter events (``"ph": "C"``) from telemetry samples.

    *samples* come from :func:`repro.observability.events.
    counter_samples_from_events`: one dict per periodic metrics
    snapshot with ``t_us`` plus the rates at that instant.  Each
    non-``None`` rate becomes one point on its counter track, so
    Perfetto shows throughput, cache hit-rate and batch fallback-rate
    *over time* alongside the span rows.
    """
    events: List[dict] = []
    for sample in samples:
        for key, track, label in _COUNTER_TRACKS:
            value = sample.get(key)
            if value is None:
                continue
            events.append(
                {
                    "name": track,
                    "cat": "repro",
                    "ph": "C",
                    "ts": sample["t_us"],
                    "pid": 1,
                    "args": {label: value},
                }
            )
    return events


def write_chrome_trace(
    path: Union[str, Path],
    tracer: Tracer,
    counter_samples: Optional[List[dict]] = None,
) -> Path:
    """Write the span forest as a Chrome trace-event JSON file.

    The payload is stamped with the common run header under
    ``"metadata"`` (ignored by chrome://tracing and Perfetto, joinable
    by everything else).  *counter_samples*, when given, add
    throughput / cache hit-rate / batch fallback-rate counter tracks
    (see :func:`chrome_counter_events`).
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    events = tracer.chrome_trace_events()
    if counter_samples:
        events.extend(chrome_counter_events(counter_samples))
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": run_header(),
    }
    with target.open("w") as handle:
        json.dump(payload, handle, indent=2)
    return target
