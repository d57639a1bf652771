"""The run-history store: durable telemetry for every recorded run.

One directory per run under the store root (default ``.repro/runs``,
overridable via ``--runs-dir`` / ``REPRO_RUNS_DIR``)::

    .repro/runs/<utc>-<run_id>/
        events.jsonl   the sealed event log, the run's only record

``events.jsonl`` is written live by the :class:`~repro.observability.
events.EventBus` while the run executes, and every
:class:`RunSummary` is read back from it: ``run_start`` carries the
run's identity, ``run_end`` its exit code, elapsed time and finish
time.  A log without an intact ``run_end`` carrying an exit code -- a
run killed mid-flight, a torn tail, a run aborted by an exception --
is an *incomplete* run, listed as such rather than hidden.

The store is an accelerator for humans (``repro runs list|show|
compare|prune``, the HTML report); nothing in the computation pipeline
depends on it, and every reader tolerates damage: a corrupt or torn
event line degrades to less detail, never an error.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.observability.events import read_events, reconstruct_metrics
from repro.observability.metrics import MetricsSnapshot
from repro.observability.runmeta import RunContext

__all__ = [
    "RunStore",
    "RunStoreError",
    "RunSummary",
    "compare_runs",
    "default_runs_root",
    "render_comparison",
    "render_run",
]

_EVENTS_NAME = "events.jsonl"


class RunStoreError(RuntimeError):
    """A run could not be resolved (unknown id, empty store)."""


def default_runs_root() -> Path:
    """The store root: ``REPRO_RUNS_DIR`` or ``.repro/runs``."""
    env = os.environ.get("REPRO_RUNS_DIR")
    return Path(env) if env else Path(".repro") / "runs"


@dataclass(frozen=True)
class RunSummary:
    """One run as its event log tells it.

    ``complete`` distinguishes a finished run (an intact ``run_end``
    with an exit code) from one that only got as far as streaming
    events -- an interrupted run is still listable, comparable and
    reportable from what its log kept.
    """

    run_id: str
    directory: Path
    command: str = ""
    argv: Tuple[str, ...] = ()
    version: str = ""
    started_utc: str = ""
    finished_utc: str = ""
    elapsed_seconds: Optional[float] = None
    exit_code: Optional[int] = None
    complete: bool = False

    @property
    def events_path(self) -> Path:
        """The run's event log."""
        return self.directory / _EVENTS_NAME

    def metrics(self) -> Optional[MetricsSnapshot]:
        """The run's final metrics, replayed from its event log."""
        try:
            return reconstruct_metrics(self.events_path)
        except OSError:
            return None


def _directory_run_id(directory: Path) -> str:
    """The run id a run directory's name ends with."""
    return directory.name.rsplit("-", 1)[-1]


def _summary_from_directory(directory: Path) -> RunSummary:
    """A run's summary from its event log alone (the directory name's
    id when even the ``run_start`` header is lost)."""
    run_id = _directory_run_id(directory)
    try:
        log = read_events(directory / _EVENTS_NAME)
    except OSError:
        return RunSummary(run_id=run_id, directory=directory)
    header = log.header or {}
    ends = log.of_type("run_end")
    end = ends[-1] if ends else {}
    exit_code = end.get("exit_code")
    return RunSummary(
        run_id=str(header.get("run_id", run_id)),
        directory=directory,
        command=str(header.get("command", "")),
        argv=tuple(header.get("argv", ())),
        version=str(header.get("version", "")),
        started_utc=str(header.get("started_utc", "")),
        finished_utc=str(end.get("finished_utc", "")),
        elapsed_seconds=end["t_ns"] / 1e9 if "t_ns" in end else None,
        exit_code=exit_code,
        complete=exit_code is not None,
    )


class RunStore:
    """list/show/compare/prune over a directory of recorded runs."""

    def __init__(self, root: Optional[Union[str, Path]] = None):
        self._root = (
            default_runs_root() if root is None else Path(root)
        )

    @property
    def root(self) -> Path:
        """The store's root directory."""
        return self._root

    def events_path(self, context: RunContext) -> Path:
        """Where the run's event bus should write (its directory is
        created)."""
        directory = self._root / context.directory_name
        directory.mkdir(parents=True, exist_ok=True)
        return directory / _EVENTS_NAME

    def _directories(self) -> List[Path]:
        """Every run directory, oldest first (names start with the
        compact UTC start time, end with the run id)."""
        try:
            return sorted(
                child for child in self._root.iterdir() if child.is_dir()
            )
        except OSError:
            return []

    def list_runs(self) -> List[RunSummary]:
        """Every recorded run, oldest first."""
        return [
            _summary_from_directory(directory)
            for directory in self._directories()
        ]

    def find(self, reference: str) -> RunSummary:
        """Resolve one run by id prefix, directory-name prefix, or the
        special reference ``"latest"``; only that run's log is read."""
        directories = self._directories()
        if not directories:
            raise RunStoreError(
                f"no recorded runs under {self._root} (record one with "
                "--record-run)"
            )
        if reference == "latest":
            return _summary_from_directory(directories[-1])
        matches = [
            directory
            for directory in directories
            if directory.name.startswith(reference)
            or _directory_run_id(directory).startswith(reference)
        ]
        if not matches:
            raise RunStoreError(
                f"no run matches {reference!r} under {self._root}"
            )
        if len(matches) > 1:
            names = ", ".join(map(_directory_run_id, matches))
            raise RunStoreError(
                f"{reference!r} is ambiguous: matches {names}"
            )
        return _summary_from_directory(matches[0])

    def prune(self, keep: int) -> int:
        """Delete the oldest runs beyond *keep*; returns how many."""
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        directories = self._directories()
        victims = directories[: max(0, len(directories) - keep)]
        for directory in victims:
            shutil.rmtree(directory, ignore_errors=True)
        return len(victims)


# ---------------------------------------------------------------------------
# Rendering and comparison
# ---------------------------------------------------------------------------


def _fmt_elapsed(seconds: Optional[float]) -> str:
    return "?" if seconds is None else f"{seconds:.3f}s"


def render_run(run: RunSummary, max_counters: int = 40) -> str:
    """The ``repro runs show`` text: identity, timing, key metrics."""
    state = "complete" if run.complete else "INCOMPLETE"
    lines = [
        f"run {run.run_id}  [{state}]",
        f"  command:  {run.command or '?'}",
        f"  argv:     {' '.join(run.argv) if run.argv else '?'}",
        f"  version:  {run.version or '?'}",
        f"  started:  {run.started_utc or '?'}",
        f"  finished: {run.finished_utc or '?'}"
        f"  ({_fmt_elapsed(run.elapsed_seconds)})",
        f"  exit:     {run.exit_code if run.exit_code is not None else '?'}",
        f"  events:   {run.events_path}",
    ]
    snapshot = run.metrics()
    if snapshot is not None and snapshot.counters:
        lines.append("  counters:")
        width = max(len(name) for name in snapshot.counters)
        for name in sorted(snapshot.counters)[:max_counters]:
            lines.append(
                f"    {name:<{width}}  {snapshot.counters[name]:>14,}"
            )
        if len(snapshot.counters) > max_counters:
            lines.append(
                f"    ... {len(snapshot.counters) - max_counters} more"
            )
    return "\n".join(lines)


@dataclass(frozen=True)
class _CounterDelta:
    """One counter across two runs."""

    name: str
    left: int
    right: int

    @property
    def delta(self) -> int:
        return self.right - self.left


def compare_runs(
    left: RunSummary, right: RunSummary
) -> List[_CounterDelta]:
    """Counter-by-counter differences between two runs (union of
    names, zeros for the side that never recorded one)."""
    a = left.metrics() or MetricsSnapshot()
    b = right.metrics() or MetricsSnapshot()
    names = sorted(set(a.counters) | set(b.counters))
    return [
        _CounterDelta(
            name=name,
            left=a.counters.get(name, 0),
            right=b.counters.get(name, 0),
        )
        for name in names
    ]


def render_comparison(
    left: RunSummary, right: RunSummary, changed_only: bool = False
) -> str:
    """The ``repro runs compare`` table."""
    all_deltas = compare_runs(left, right)
    deltas = (
        [d for d in all_deltas if d.delta != 0]
        if changed_only
        else all_deltas
    )
    lines = [
        f"comparing {left.run_id} ({left.command or '?'}, "
        f"{_fmt_elapsed(left.elapsed_seconds)}) -> {right.run_id} "
        f"({right.command or '?'}, {_fmt_elapsed(right.elapsed_seconds)})"
    ]
    if (
        left.elapsed_seconds is not None
        and right.elapsed_seconds is not None
        and left.elapsed_seconds > 0
    ):
        ratio = right.elapsed_seconds / left.elapsed_seconds
        lines.append(f"wall-clock ratio: {ratio:.3f}x")
    if not deltas:
        lines.append(
            "(every counter identical)"
            if all_deltas
            else "(no counters recorded in either run)"
        )
        return "\n".join(lines)
    width = max(len(d.name) for d in deltas)
    lines.append(
        f"  {'counter':<{width}}  {'left':>14}  {'right':>14}  {'delta':>14}"
    )
    for d in deltas:
        marker = "" if d.delta == 0 else "  *"
        lines.append(
            f"  {d.name:<{width}}  {d.left:>14,}  {d.right:>14,}  "
            f"{d.delta:>+14,}{marker}"
        )
    return "\n".join(lines)
