"""Run identity: one fingerprint stamped on every telemetry artifact.

The PR-3 checkpoint machinery fingerprints one *sharded call* (root
seed, stream, shard plan, system digest), which is exactly right for
deciding whether two shard results are interchangeable -- but too fine
for joining the artifacts of one CLI invocation: a ``repro validate``
run produces an event log, one trace and possibly a checkpoint, and
they should all carry the same identity so ``repro runs compare`` can
line two runs up.

:class:`RunContext` is that identity: a short SHA-256-derived run id
plus the facts worth joining on (ISO-8601 UTC start time, repro
version, argv, command).  The CLI installs one context per invocation;
library writers resolve it lazily via :func:`current_run` and fall
back to a process-wide default context, so artifacts written outside
the CLI are still stamped and joinable.

Nothing here touches a random stream: the run id hashes wall-clock
time, pid and argv -- identity, not randomness.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "RunContext",
    "current_run",
    "new_run_context",
    "run_header",
    "set_current_run",
    "utc_now_iso",
]


def utc_now_iso() -> str:
    """The current wall-clock time as ISO-8601 UTC.

    Microsecond precision: the run store orders runs by their
    directory name (which starts with this timestamp), so two runs
    recorded in the same second must still sort in recording order.
    """
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%S.%fZ"
    )


def _repro_version() -> str:
    """The installed package version (resolved lazily: importing
    ``repro`` at module-import time would be circular, since the
    observability layer sits below everything else)."""
    try:
        from repro import __version__

        return __version__
    except Exception:  # pragma: no cover - partially initialised package
        return "unknown"


@dataclass(frozen=True)
class RunContext:
    """The identity of one run, shared by all of its artifacts.

    ``run_id`` is 16 hex chars of SHA-256 over (start time, pid, argv,
    version, a monotonic disambiguator), so two runs launched in the
    same second still get distinct ids.  ``started_monotonic_ns`` is
    the origin for event timestamps -- integer nanoseconds, matching
    the metrics layer's exact-arithmetic discipline.
    """

    run_id: str
    command: str
    argv: List[str] = field(default_factory=list)
    version: str = ""
    started_utc: str = ""
    started_monotonic_ns: int = 0

    @property
    def directory_name(self) -> str:
        """The run's directory name under the run store: the compact
        UTC start time then the id, so a plain ``ls`` sorts runs
        chronologically."""
        compact = (
            self.started_utc.replace("-", "").replace(":", "")
        )
        return f"{compact}-{self.run_id}"

    def elapsed_ns(self) -> int:
        """Integer nanoseconds since this context was created."""
        return time.monotonic_ns() - self.started_monotonic_ns


def new_run_context(
    command: str = "",
    argv: Optional[Sequence[str]] = None,
) -> RunContext:
    """A fresh context identifying one run starting now."""
    started_utc = utc_now_iso()
    monotonic_ns = time.monotonic_ns()
    arguments = list(argv) if argv is not None else list(os.sys.argv)
    payload = "\x1f".join(
        [
            started_utc,
            str(os.getpid()),
            str(monotonic_ns),
            command,
            _repro_version(),
            *arguments,
        ]
    )
    run_id = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
    return RunContext(
        run_id=run_id,
        command=command,
        argv=arguments,
        version=_repro_version(),
        started_utc=started_utc,
        started_monotonic_ns=monotonic_ns,
    )


_lock = threading.Lock()
_current: Optional[RunContext] = None


def current_run() -> RunContext:
    """The active run context, creating a process-default lazily.

    The CLI installs a context naming its subcommand; library code
    writing artifacts outside the CLI still gets a stable, stamped
    identity for the lifetime of the process.
    """
    global _current
    with _lock:
        if _current is None:
            _current = new_run_context(command="library")
        return _current


def set_current_run(context: Optional[RunContext]) -> Optional[RunContext]:
    """Install *context* as the active run; returns the previous one
    (``None`` resets to the lazy process default)."""
    global _current
    with _lock:
        previous = _current
        _current = context
        return previous


def run_header(context: Optional[RunContext] = None) -> Dict[str, Any]:
    """The common stamp shared by every exported artifact.

    One dict -- run id, ISO-8601 UTC start time, repro version, argv --
    embedded in the event log's ``run_start`` (and so in the
    ``--metrics-out`` file), the Chrome trace metadata and the
    checkpoint header, so any two artifacts of one run are joinable on
    ``run_id``.
    """
    ctx = current_run() if context is None else context
    return {
        "run_id": ctx.run_id,
        "started_utc": ctx.started_utc,
        "version": ctx.version,
        "argv": list(ctx.argv),
        "command": ctx.command,
    }
