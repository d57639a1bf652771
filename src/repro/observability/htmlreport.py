"""A self-contained static HTML report for one recorded run.

``repro report --html`` renders everything a run's event log holds --
identity, exit status, final metrics, timing histograms, the rate
series the dashboard showed live, and the span tree of its ``spans``
event -- into one file with inline CSS and inline SVG.  No scripts are
fetched, no CDN is touched, nothing external is referenced: the file
can be archived as a CI artifact and opened years later, offline,
exactly as written.  It reads no file but the log.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import (
    Any,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.observability.events import (
    EventLogRead,
    counter_samples_from_events,
    read_events,
    reconstruct_metrics,
)
from repro.observability.runlog import RunSummary

__all__ = [
    "render_html_report",
    "sparkline_svg",
    "write_html_report",
]

def sparkline_svg(
    values: Sequence[float],
    width: int = 160,
    height: int = 36,
) -> str:
    """An inline SVG polyline through *values* (left = oldest).

    A flat series draws a centred horizontal line; a single point
    draws a dot.  Everything is sized in-element -- no CSS classes, no
    external references.
    """
    if not values:
        return ""
    pad = 3
    lo, hi = min(values), max(values)
    span = hi - lo
    inner_w, inner_h = width - 2 * pad, height - 2 * pad

    def x(i: int) -> float:
        if len(values) == 1:
            return width / 2
        return pad + inner_w * i / (len(values) - 1)

    def y(v: float) -> float:
        if span == 0:
            return height / 2
        return pad + inner_h * (1 - (v - lo) / span)

    points = " ".join(
        f"{x(i):.1f},{y(v):.1f}" for i, v in enumerate(values)
    )
    last_x, last_y = x(len(values) - 1), y(values[-1])
    return (
        f'<svg width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img">'
        f'<polyline points="{points}" fill="none" '
        'stroke="#2a6fb0" stroke-width="1.5"/>'
        f'<circle cx="{last_x:.1f}" cy="{last_y:.1f}" r="2.5" '
        'fill="#2a6fb0"/>'
        "</svg>"
    )


# ---------------------------------------------------------------------------
# Span tree from the log's ``spans`` event
# ---------------------------------------------------------------------------

#: Span rows rendered before the tree is cut off.
_MAX_SPAN_ROWS = 400


def _span_rows(
    spans: Iterable[Mapping[str, Any]], depth: int = 0
) -> Iterable[Tuple[int, Mapping[str, Any]]]:
    """``(depth, span)`` pairs of a span forest, depth first."""
    for span in spans:
        yield depth, span
        yield from _span_rows(span.get("children", ()), depth + 1)


# ---------------------------------------------------------------------------
# HTML assembly
# ---------------------------------------------------------------------------

_CSS = """
body { font: 14px/1.5 -apple-system, 'Segoe UI', sans-serif;
       margin: 2em auto; max-width: 60em; color: #1c2733; }
h1 { font-size: 1.4em; border-bottom: 2px solid #2a6fb0;
     padding-bottom: .2em; }
h2 { font-size: 1.1em; margin-top: 1.6em; }
table { border-collapse: collapse; margin: .5em 0; }
th, td { text-align: left; padding: .15em .8em .15em 0;
         font-variant-numeric: tabular-nums; }
th { border-bottom: 1px solid #aab4bf; }
td.num { text-align: right; }
code, .mono { font-family: ui-monospace, 'SF Mono', Consolas, monospace;
              font-size: .93em; }
.kv td:first-child { color: #5a6a7a; padding-right: 1.5em; }
.span-name { white-space: pre; }
.muted { color: #5a6a7a; }
.badge-ok { color: #1d7a3d; font-weight: 600; }
.badge-bad { color: #b02a2a; font-weight: 600; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value))


def _kv_table(rows: Sequence[Tuple[str, str]]) -> str:
    body = "".join(
        f"<tr><td>{_esc(k)}</td><td class='mono'>{_esc(v)}</td></tr>"
        for k, v in rows
    )
    return f"<table class='kv'>{body}</table>"


def render_html_report(
    run: RunSummary,
    events: Optional[EventLogRead] = None,
) -> str:
    """The full report document as an HTML string.

    *events* defaults to reading the run's own log.  Every section
    tolerates absent data by disappearing rather than erroring.
    """
    if events is None:
        try:
            events = read_events(run.events_path)
        except OSError:
            events = EventLogRead(events=[], corrupt_lines=0)

    exit_text = (
        "?" if run.exit_code is None else str(run.exit_code)
    )
    exit_class = "badge-ok" if run.exit_code == 0 else "badge-bad"
    sections: List[str] = [
        f"<h1>repro run <span class='mono'>{_esc(run.run_id)}</span></h1>",
        _kv_table(
            [
                ("command", run.command or "?"),
                ("argv", " ".join(run.argv) if run.argv else "?"),
                ("version", run.version or "?"),
                ("started (UTC)", run.started_utc or "?"),
                ("finished (UTC)", run.finished_utc or "?"),
                (
                    "elapsed",
                    "?"
                    if run.elapsed_seconds is None
                    else f"{run.elapsed_seconds:.3f} s",
                ),
                ("state", "complete" if run.complete else "INCOMPLETE"),
            ]
        ),
        f"<p>exit code: <span class='{exit_class}'>{exit_text}</span>"
        + (
            f"  <span class='muted'>({events.corrupt_lines} corrupt "
            "event line(s) skipped)</span>"
            if events.corrupt_lines
            else ""
        )
        + "</p>",
    ]

    snapshot = reconstruct_metrics(events) if events.events else None
    if snapshot is not None and snapshot.counters:
        rows = "".join(
            f"<tr><td class='mono'>{_esc(name)}</td>"
            f"<td class='num'>{snapshot.counters[name]:,}</td></tr>"
            for name in sorted(snapshot.counters)
        )
        sections.append(
            "<h2>Counters</h2><table><tr><th>name</th>"
            f"<th>value</th></tr>{rows}</table>"
        )
    if snapshot is not None and snapshot.timings:
        rows = "".join(
            "<tr>"
            f"<td class='mono'>{_esc(name)}</td>"
            f"<td class='num'>{stats.count:,}</td>"
            f"<td class='num'>{stats.total_seconds:.4f}</td>"
            f"<td class='num'>{stats.mean_seconds:.6f}</td>"
            f"<td class='num'>{stats.min_seconds:.6f}</td>"
            f"<td class='num'>{stats.max_seconds:.6f}</td>"
            "</tr>"
            for name, stats in sorted(snapshot.timings.items())
        )
        sections.append(
            "<h2>Timings (seconds)</h2><table><tr><th>name</th>"
            "<th>count</th><th>total</th><th>mean</th><th>min</th>"
            f"<th>max</th></tr>{rows}</table>"
        )

    samples = counter_samples_from_events(events.events)
    series = [
        ("throughput (trials/s)", "trials_per_second"),
        ("cache hit rate", "cache_hit_rate"),
        ("batch fallback rate", "batch_fallback_rate"),
    ]
    rate_rows = []
    for label, key in series:
        values = [s[key] for s in samples if s.get(key) is not None]
        if len(values) >= 2:
            rate_rows.append(
                f"<tr><td>{_esc(label)}</td>"
                f"<td>{sparkline_svg(values)}</td>"
                f"<td class='num mono'>{values[-1]:,.4g}</td></tr>"
            )
    if rate_rows:
        sections.append(
            "<h2>Rates over the run</h2><table><tr><th>series</th>"
            "<th>trend</th><th>final</th></tr>"
            + "".join(rate_rows)
            + "</table>"
        )

    span_events = events.of_type("spans")
    span_rows = list(
        _span_rows(span_events[-1].get("spans", ()) if span_events else ())
    )
    if span_rows:
        rows = "".join(
            "<tr><td class='mono span-name'>"
            f"{_esc('  ' * depth + str(span.get('name', '?')))}</td>"
            f"<td class='num'>{(span.get('duration_us') or 0) / 1e6:.4f}"
            "</td></tr>"
            for depth, span in span_rows[:_MAX_SPAN_ROWS]
        )
        more = (
            f"<p class='muted'>... {len(span_rows) - _MAX_SPAN_ROWS} more "
            "span(s)</p>"
            if len(span_rows) > _MAX_SPAN_ROWS
            else ""
        )
        sections.append(
            "<h2>Span tree</h2><table><tr><th>span</th>"
            f"<th>seconds</th></tr>{rows}</table>{more}"
        )

    body = "\n".join(sections)
    return (
        "<!DOCTYPE html>\n<html lang='en'><head>"
        "<meta charset='utf-8'>"
        f"<title>repro run {_esc(run.run_id)}</title>"
        f"<style>{_CSS}</style></head>\n"
        f"<body>\n{body}\n</body></html>\n"
    )


def write_html_report(
    path: Union[str, Path],
    run: RunSummary,
    events: Optional[EventLogRead] = None,
) -> Path:
    """Render and write the report; returns the path written."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(render_html_report(run, events))
    return target
