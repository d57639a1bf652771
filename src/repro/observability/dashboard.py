"""A live terminal dashboard fed by the run's event bus.

The dashboard is an :class:`~repro.observability.events.EventBus`
subscriber: every telemetry event updates a small mutable
:class:`DashboardState`, and -- on a TTY -- the panel is redrawn in
place with ANSI cursor movement (``ESC [ n F`` to return to the top of
the previous frame, ``ESC [ J`` to clear it).  On anything that is not
a TTY (CI logs, pipes, ``2>file``) the same events degrade to plain,
append-only progress lines, so a captured log stays readable and no
control bytes land in it.

Rendering is a pure function of the state (:func:`render_dashboard`),
so the tests can drive it with synthetic events and assert on the text
without a terminal.  The dashboard never touches the computation: it
observes the same event stream the run log records, and a run with the
dashboard on is bit-identical to one with it off.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, TextIO

from repro.observability.events import counter_rates
from repro.observability.progress import format_rate

__all__ = [
    "Dashboard",
    "DashboardState",
    "render_dashboard",
]


@dataclass
class _StreamProgress:
    """One sharded estimate (one named seed stream) on the panel."""

    completed: int = 0
    total: int = 0
    trials: int = 0
    wins: int = 0
    attempts: int = 0
    recovered: bool = False

    @property
    def fraction(self) -> float:
        return self.completed / self.total if self.total else 0.0


@dataclass
class DashboardState:
    """Everything the panel shows, folded from the event stream."""

    run_id: str = ""
    command: str = ""
    point_label: str = ""
    point_index: Optional[int] = None
    point_total: Optional[int] = None
    streams: Dict[str, _StreamProgress] = field(default_factory=dict)
    faults: int = 0
    last_fault: str = ""
    workers: int = 0
    peak_workers: int = 0
    leases_granted: int = 0
    lease_expiries: int = 0
    duplicate_summaries: int = 0
    counters: Dict[str, int] = field(default_factory=dict)
    requests: int = 0
    requests_shed: int = 0
    requests_degraded: int = 0
    serve_listening: str = ""
    serve_ready: bool = False
    serve_draining: bool = False
    last_t_ns: int = 0
    finished: bool = False
    exit_code: Optional[int] = None

    def apply(self, event: Mapping[str, Any]) -> None:
        """Fold one telemetry event into the state."""
        kind = event.get("type")
        self.last_t_ns = max(self.last_t_ns, int(event.get("t_ns", 0)))
        if kind == "run_start":
            self.run_id = str(event.get("run_id", ""))
            self.command = str(event.get("command", ""))
        elif kind == "point":
            self.point_label = str(event.get("label", ""))
            self.point_index = event.get("index")
            self.point_total = event.get("total")
        elif kind == "shard":
            stream = str(event.get("stream", ""))
            progress = self.streams.setdefault(stream, _StreamProgress())
            progress.completed = int(event.get("completed", 0))
            progress.total = int(event.get("total", 0))
            progress.trials += int(event.get("trials", 0))
            progress.wins += int(event.get("wins", 0))
            progress.attempts = max(
                progress.attempts, int(event.get("attempt", 0))
            )
            progress.recovered = progress.recovered or bool(
                event.get("recovered", False)
            )
        elif kind == "fault":
            self.faults += 1
            self.last_fault = (
                f"{event.get('kind', '?')} on shard "
                f"{event.get('index', '?')} "
                f"(attempt {event.get('attempt', '?')})"
            )
        elif kind == "worker":
            self.workers = int(event.get("workers", 0))
            self.peak_workers = max(self.peak_workers, self.workers)
        elif kind == "lease":
            action = event.get("action")
            if action == "grant":
                self.leases_granted += 1
            elif action == "expire":
                self.lease_expiries += 1
            elif action == "duplicate":
                self.duplicate_summaries += 1
        elif kind == "request":
            self.requests += 1
            if event.get("tier") == "shed":
                self.requests_shed += 1
            elif event.get("tier") == "degraded":
                self.requests_degraded += 1
        elif kind == "serve":
            action = event.get("action")
            if action == "listening":
                self.serve_listening = (
                    f"{event.get('host', '')}:{event.get('port', '')}"
                )
            elif action == "ready":
                self.serve_ready = True
            elif action == "draining":
                self.serve_draining = True
            elif action == "stopped":
                self.serve_ready = False
        elif kind == "metrics":
            snapshot = event.get("snapshot", {})
            counters = snapshot.get("counters", {})
            if isinstance(counters, dict):
                self.counters = dict(counters)
        elif kind == "run_end":
            self.finished = True
            self.exit_code = event.get("exit_code")

    # -- derived rates (None when the denominator never fired) --------

    @property
    def elapsed_seconds(self) -> float:
        return self.last_t_ns / 1e9

    @property
    def trials(self) -> int:
        # the shard events and the counters count the same trials; the
        # counters only arrive with the next metrics snapshot
        return max(
            counter_rates(self.counters)[0],
            sum(stream.trials for stream in self.streams.values()),
        )

    @property
    def throughput(self) -> Optional[float]:
        if self.last_t_ns <= 0 or not self.trials:
            return None
        return self.trials / self.elapsed_seconds

    @property
    def cache_hit_rate(self) -> Optional[float]:
        return counter_rates(self.counters)[1]

    @property
    def batch_fallback_rate(self) -> Optional[float]:
        return counter_rates(self.counters)[2]

    @property
    def retries(self) -> int:
        return self.counters.get("engine.shard_retries", 0)

    @property
    def salvaged(self) -> int:
        return self.counters.get("engine.shards_salvaged", 0)


def _bar(fraction: float, width: int = 24) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def _fmt_fraction(value: Optional[float]) -> str:
    return "-" if value is None else f"{value * 100:5.1f}%"


def render_dashboard(
    state: DashboardState, max_streams: int = 6
) -> List[str]:
    """The panel as a list of lines -- pure, terminal-free.

    The most recently updated *max_streams* streams get progress bars;
    older ones collapse into a single "+N more" line so the frame
    height stays bounded no matter how fine the sweep grid is.
    """
    header = f"repro {state.command or 'run'}"
    if state.run_id:
        header += f"  run {state.run_id}"
    if state.point_total:
        header += (
            f"  point {int(state.point_index or 0) + 1}"
            f"/{state.point_total}"
        )
        if state.point_label:
            header += f" ({state.point_label})"
    lines = [header]

    recent = list(state.streams.items())[-max_streams:]
    name_width = max((len(name) for name, _ in recent), default=0)
    for name, progress in recent:
        flags = ""
        if progress.recovered:
            flags += " R"
        lines.append(
            f"  {name:<{name_width}} {_bar(progress.fraction)} "
            f"{progress.completed:>3}/{progress.total} shards  "
            f"{progress.trials:>12,} trials{flags}"
        )
    hidden = len(state.streams) - len(recent)
    if hidden > 0:
        lines.append(f"  ... +{hidden} earlier stream(s)")

    lines.append(
        f"  throughput {format_rate(state.throughput):>14}   "
        f"trials {state.trials:>14,}   "
        f"elapsed {state.elapsed_seconds:>8.1f}s"
    )
    lines.append(
        f"  cache hit {_fmt_fraction(state.cache_hit_rate)}   "
        f"batch fallback {_fmt_fraction(state.batch_fallback_rate)}   "
        f"retries {state.retries}   salvaged {state.salvaged}"
    )
    if state.peak_workers or state.leases_granted:
        lines.append(
            f"  workers {state.workers} (peak {state.peak_workers})   "
            f"leases {state.leases_granted}   "
            f"expired {state.lease_expiries}   "
            f"dup {state.duplicate_summaries}"
        )
    if state.requests or state.serve_listening:
        status = (
            "draining"
            if state.serve_draining
            else ("ready" if state.serve_ready else "warming")
        )
        lines.append(
            f"  serve {state.serve_listening or '-'} [{status}]   "
            f"requests {state.requests}   "
            f"shed {state.requests_shed}   "
            f"degraded {state.requests_degraded}"
        )
    if state.faults:
        lines.append(
            f"  faults {state.faults}  (last: {state.last_fault})"
        )
    if state.finished:
        lines.append(
            f"  done  exit={state.exit_code}"
        )
    return lines


class Dashboard:
    """An EventBus subscriber that paints the live panel.

    On a TTY, frames overwrite each other in place (``\\x1b[{n}F`` then
    ``\\x1b[J``), throttled to *min_interval* seconds between redraws
    so a hot event stream cannot saturate the terminal; ``run_end``
    always forces a final frame.  On a non-TTY the panel degrades to
    plain one-line progress messages on point boundaries, faults and
    completion -- nothing ANSI, safe for CI logs.
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        interactive: Optional[bool] = None,
        min_interval: float = 0.2,
    ):
        self._stream = stream if stream is not None else sys.stderr
        if interactive is None:
            isatty = getattr(self._stream, "isatty", None)
            interactive = bool(isatty and isatty())
        self._interactive = interactive
        self._min_interval = min_interval
        self._last_draw = 0.0
        self._frame_height = 0
        self.state = DashboardState()

    @property
    def interactive(self) -> bool:
        """Whether the dashboard paints ANSI frames (vs plain lines)."""
        return self._interactive

    def __call__(self, event: Mapping[str, Any]) -> None:
        """The subscriber entry point: fold the event, maybe repaint."""
        self.state.apply(event)
        if self._interactive:
            now = time.monotonic()
            final = event.get("type") == "run_end"
            if not final and now - self._last_draw < self._min_interval:
                return
            self._last_draw = now
            self._redraw(final=final)
        else:
            line = self._plain_line(event)
            if line is not None:
                self._stream.write(line + "\n")
                self._stream.flush()

    def _redraw(self, final: bool = False) -> None:
        lines = render_dashboard(self.state)
        out = self._stream
        if self._frame_height:
            out.write(f"\x1b[{self._frame_height}F\x1b[J")
        out.write("\n".join(lines) + "\n")
        out.flush()
        self._frame_height = len(lines)
        if final:
            self._frame_height = 0

    def _plain_line(self, event: Mapping[str, Any]) -> Optional[str]:
        kind = event.get("type")
        state = self.state
        if kind == "run_start":
            return (
                f"[dashboard] run {state.run_id} "
                f"({state.command or 'run'}) started"
            )
        if kind == "point":
            total = event.get("total")
            return (
                f"[dashboard] point {int(event.get('index', 0)) + 1}"
                f"/{total} {event.get('label', '')}  "
                f"trials={state.trials:,}  "
                f"throughput={format_rate(state.throughput)}"
            )
        if kind == "worker":
            return (
                f"[dashboard] worker {event.get('worker', '?')} "
                f"{event.get('action', '?')}ed "
                f"({state.workers} connected)"
            )
        if kind == "serve":
            # one line per lifecycle edge; per-request events stay
            # silent so a long-lived server cannot flood a CI log
            action = event.get("action", "?")
            if action == "listening":
                return f"[dashboard] serve listening on {state.serve_listening}"
            if action == "ready":
                return (
                    f"[dashboard] serve ready "
                    f"({event.get('warmed', 0)} kernel(s) warmed)"
                )
            if action == "draining":
                return (
                    f"[dashboard] serve draining "
                    f"({event.get('inflight', 0)} in flight)"
                )
            if action == "stopped":
                return (
                    f"[dashboard] serve stopped  "
                    f"requests={state.requests}  "
                    f"shed={state.requests_shed}  "
                    f"degraded={state.requests_degraded}"
                )
            return None
        if kind == "fault":
            return f"[dashboard] fault: {state.last_fault}"
        if kind == "run_end":
            return (
                f"[dashboard] run {state.run_id} finished  "
                f"exit={state.exit_code}  trials={state.trials:,}  "
                f"elapsed={state.elapsed_seconds:.1f}s  "
                f"retries={state.retries}  "
                f"cache_hit={_fmt_fraction(state.cache_hit_rate)}"
            )
        return None
