"""The run-history store: durable telemetry for every recorded run.

One directory per run under the store root (default ``.repro/runs``,
overridable via ``--runs-dir`` / ``REPRO_RUNS_DIR``)::

    .repro/runs/<utc>-<run_id>/
        events.jsonl   the append-only event log (sealed lines)
        run.json       the finalised summary (fsutil.atomic_write)

``events.jsonl`` is written live by the :class:`~repro.observability.
events.EventBus` while the run executes; ``run.json`` is written once,
at the end, with the storage discipline of the cache/results-store
tiers (:func:`repro.fsutil.atomic_write`) so a crash leaves either
a complete summary or none -- a directory with events but no summary
is an *incomplete* run, listed as such rather than hidden.

The store is an accelerator for humans (``repro runs list|show|
compare|prune``, the HTML report, the regression gate's telemetry
input); nothing in the computation pipeline depends on it, and every
reader tolerates damage: a corrupt ``run.json`` or a torn event tail
degrades to less detail, never an error.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.fsutil import atomic_write
from repro.observability.events import (
    read_events,
    reconstruct_metrics,
    snapshot_to_payload,
)
from repro.observability.metrics import MetricsSnapshot
from repro.observability.runmeta import RunContext, utc_now_iso

__all__ = [
    "RUN_SUMMARY_SCHEMA_VERSION",
    "RunStore",
    "RunStoreError",
    "RunSummary",
    "compare_runs",
    "default_runs_root",
    "render_comparison",
    "render_run",
]

RUN_SUMMARY_SCHEMA_VERSION = 1

_EVENTS_NAME = "events.jsonl"
_SUMMARY_NAME = "run.json"


class RunStoreError(RuntimeError):
    """A run could not be resolved (unknown id, empty store)."""


def default_runs_root() -> Path:
    """The store root: ``REPRO_RUNS_DIR`` or ``.repro/runs``."""
    env = os.environ.get("REPRO_RUNS_DIR")
    return Path(env) if env else Path(".repro") / "runs"


@dataclass(frozen=True)
class RunSummary:
    """One run as the store knows it.

    ``complete`` distinguishes a finalised run (``run.json`` present
    and intact) from one that only got as far as streaming events --
    an interrupted run is still listable, comparable and reportable
    from its event log alone.
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


def _finalize_in_progress(directory: Path) -> bool:
    """Whether another process is mid-finalize in *directory* (the
    ``.run.json.*.tmp`` temp file of :meth:`RunStore.finalize`, an
    older ``.run.*.tmp``, or the legacy ``run.json.tmp`` name, still
    exists)."""
    try:
        if any(directory.glob(".run.*.tmp")):
            return True
        return (directory / "run.json.tmp").exists()
    except OSError:
        # unreadable directory: err on the side of not deleting
        return True


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

    def run_directory(self, context: RunContext) -> Path:
        """The (created) directory a recording run writes into."""
        directory = self._root / context.directory_name
        directory.mkdir(parents=True, exist_ok=True)
        return directory

    def events_path(self, context: RunContext) -> Path:
        """Where the run's event bus should append."""
        return self.run_directory(context) / _EVENTS_NAME

    def finalize(
        self,
        context: RunContext,
        exit_code: int,
        snapshot: Optional[MetricsSnapshot] = None,
        artifacts: Optional[Dict[str, str]] = None,
    ) -> Path:
        """Write the run's ``run.json`` atomically; returns its path.

        *artifacts* maps artifact names to paths (metrics export,
        trace, checkpoint) so ``repro runs show`` can point back at
        everything the run produced.
        """
        directory = self.run_directory(context)
        payload: Dict[str, Any] = {
            "schema_version": RUN_SUMMARY_SCHEMA_VERSION,
            "run_id": context.run_id,
            "command": context.command,
            "argv": list(context.argv),
            "version": context.version,
            "started_utc": context.started_utc,
            "finished_utc": utc_now_iso(),
            "elapsed_seconds": context.elapsed_ns() / 1e9,
            "exit_code": int(exit_code),
            "artifacts": dict(artifacts or {}),
        }
        if snapshot is not None:
            payload["metrics"] = snapshot_to_payload(snapshot)
        return atomic_write(
            directory / _SUMMARY_NAME,
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
        )

    def _summary_from_directory(self, directory: Path) -> RunSummary:
        summary_path = directory / _SUMMARY_NAME
        try:
            payload = json.loads(summary_path.read_text())
            if not isinstance(payload, dict):
                raise ValueError("run.json is not an object")
            return RunSummary(
                run_id=str(payload.get("run_id", directory.name)),
                directory=directory,
                command=str(payload.get("command", "")),
                argv=tuple(payload.get("argv", [])),
                version=str(payload.get("version", "")),
                started_utc=str(payload.get("started_utc", "")),
                finished_utc=str(payload.get("finished_utc", "")),
                elapsed_seconds=payload.get("elapsed_seconds"),
                exit_code=payload.get("exit_code"),
                complete=True,
            )
        except (OSError, ValueError, json.JSONDecodeError):
            # incomplete or damaged: recover what the dir name and the
            # event-log header still carry
            run_id = directory.name.rsplit("-", 1)[-1]
            command = ""
            started = ""
            try:
                header = read_events(directory / _EVENTS_NAME).header
                if header is not None:
                    run_id = str(header.get("run_id", run_id))
                    command = str(header.get("command", ""))
                    started = str(header.get("started_utc", ""))
            except OSError:
                pass
            return RunSummary(
                run_id=run_id,
                directory=directory,
                command=command,
                started_utc=started,
                complete=False,
            )

    def list_runs(self) -> List[RunSummary]:
        """Every recorded run, oldest first (directory-name order --
        names start with the compact UTC start time)."""
        try:
            directories = sorted(
                child
                for child in self._root.iterdir()
                if child.is_dir()
            )
        except OSError:
            return []
        return [
            self._summary_from_directory(child) for child in directories
        ]

    def find(self, reference: str) -> RunSummary:
        """Resolve one run by id prefix, directory-name prefix, or the
        special reference ``"latest"``."""
        runs = self.list_runs()
        if not runs:
            raise RunStoreError(
                f"no recorded runs under {self._root} (record one with "
                "--record-run)"
            )
        if reference == "latest":
            return runs[-1]
        matches = [
            run
            for run in runs
            if run.run_id.startswith(reference)
            or run.directory.name.startswith(reference)
        ]
        if not matches:
            raise RunStoreError(
                f"no run matches {reference!r} under {self._root}"
            )
        if len(matches) > 1:
            names = ", ".join(run.run_id for run in matches)
            raise RunStoreError(
                f"{reference!r} is ambiguous: matches {names}"
            )
        return matches[0]

    def prune(self, keep: int) -> int:
        """Delete the oldest runs beyond *keep*; returns how many.

        A directory holding a live finalisation temp file (the
        ``.run.*.tmp`` that :meth:`finalize` renames into place)
        belongs to a run that is *finishing right now* in another
        process; deleting it would race the rename, so such
        directories are skipped -- they become prunable on the next
        invocation, once their ``run.json`` has landed.
        """
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        runs = self.list_runs()
        victims = runs[: max(0, len(runs) - keep)]
        removed = 0
        for run in victims:
            if _finalize_in_progress(run.directory):
                continue
            shutil.rmtree(run.directory, ignore_errors=True)
            removed += 1
        return removed


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
