"""The typed exception hierarchy of the package.

Every predictable failure raised by ``repro`` code derives from
:class:`ReproError`, so callers (and the CLI) can distinguish "the
library rejected your request or detected an internal problem" from a
genuine bug surfacing as an arbitrary exception.  The hierarchy:

``ReproError``
    root of everything the package raises deliberately;
``ValidationError`` (also a :class:`ValueError`)
    a caller-supplied argument was rejected -- out-of-range
    probabilities, non-positive sides, dimension mismatches.  The CLI
    maps it to exit code 2 with a one-line message;
``ContractViolation``
    a runtime invariant of :mod:`repro.validation.contracts` failed in
    strict mode -- a computed probability left ``[0, 1]``, a CDF lost
    monotonicity, a volume exceeded its subadditive cap.  Unlike
    ``ValidationError`` this signals a defect *inside* the library,
    not bad input;
``PiecewiseDomainError`` (also a :class:`ValueError`)
    a piecewise polynomial was built from a malformed piece layout --
    zero-width or inverted pieces, non-contiguous intervals,
    out-of-order breakpoints -- or evaluated outside its domain.  Such
    layouts used to be accepted silently and then mis-dispatched at
    shared breakpoints; they are now rejected at construction time;
``ServeError`` (also a :class:`RuntimeError`)
    the serving layer could not start or keep serving -- an unbindable
    address, an invalid serve configuration.  Per-request trouble is
    *handled* (shed with 429, degraded with an explicit bound, drained
    on shutdown) and never raises; this error is for the failures that
    end the process.  The CLI maps it to exit code 9;
``DistributedError`` (also a :class:`RuntimeError`)
    the coordinator/worker transport failed in a way the protocol
    could not absorb -- an unreachable coordinator, an incompatible
    protocol version, a payload whose digest did not verify.  Frame
    corruption and connection loss are *handled* (retry, lease
    reassignment, local degradation) and only surface as telemetry;
    this error is for the cases with no recovery path left;
``RunInterruptedError`` (also a :class:`RuntimeError`)
    a coordinator run was cut short by SIGTERM/SIGINT *after* a
    graceful drain -- outstanding leases returned, connected workers
    told to drain, the checkpoint finalized -- so a re-run with
    ``--resume`` picks up exactly where the signal landed.  Carries
    the signal number; the CLI exits with ``128 + signum`` (the shell
    convention: 130 for SIGINT, 143 for SIGTERM).

``ValidationError`` and ``PiecewiseDomainError`` keep
:class:`ValueError` as a base so code written against the old
bare-``ValueError`` behaviour -- including every pre-existing test --
continues to work.
"""

from __future__ import annotations

__all__ = [
    "ContractViolation",
    "DistributedError",
    "PiecewiseDomainError",
    "ReproError",
    "RunInterruptedError",
    "ServeError",
    "ValidationError",
]


class ReproError(Exception):
    """Root of every deliberate failure raised by the package."""


class ValidationError(ReproError, ValueError):
    """A caller-supplied argument was rejected.

    Raised by the ``_validated_*`` helpers throughout the numeric
    layers and by CLI argument handling.  Subclasses
    :class:`ValueError` for backwards compatibility."""


class ContractViolation(ReproError):
    """A runtime invariant failed in strict contract mode.

    Carries the contract name and the offending value so operators can
    tell *which* invariant broke without reading a traceback."""

    def __init__(self, contract: str, message: str):
        super().__init__(f"contract {contract!r} violated: {message}")
        self.contract = contract


class PiecewiseDomainError(ReproError, ValueError):
    """A piecewise polynomial's piece layout is malformed.

    Raised by :mod:`repro.symbolic.piecewise` for zero-width or
    inverted pieces, non-contiguous layouts, out-of-order breakpoint
    sequences, and evaluation outside the domain.  Before this class
    existed some of these layouts were accepted silently and a point
    on a shared breakpoint could dispatch into a zero-width piece.
    Subclasses :class:`ValueError` so callers written against the old
    bare-``ValueError`` behaviour keep working."""


class DistributedError(ReproError, RuntimeError):
    """The distributed transport failed beyond what the protocol's
    recovery ladder (frame retries, lease reassignment, local
    degradation) can absorb.

    Subclassed in :mod:`repro.distributed.protocol` by the specific
    failure modes (unreachable coordinator, protocol mismatch, payload
    digest mismatch).  Subclasses :class:`RuntimeError` to match the
    fault-tolerance layer's convention."""


class RunInterruptedError(ReproError, RuntimeError):
    """A coordinator run was stopped by a signal after a graceful drain.

    Raised by
    :func:`repro.distributed.estimate_winning_probability_distributed`
    when SIGTERM or SIGINT arrives mid-phase: the coordinator stops
    granting, tells connected workers to drain, returns outstanding
    leases, and finalizes the run checkpoint before this error
    surfaces -- every shard completed before the signal is durable and
    a re-run with ``--resume`` continues from it.  ``signum`` carries
    the signal; the CLI exits ``128 + signum`` (130 for SIGINT, 143
    for SIGTERM, the shell convention)."""

    def __init__(
        self, signum: int, completed_shards: int, total_shards: int
    ):
        import signal as _signal

        try:
            name = _signal.Signals(signum).name
        except ValueError:
            name = f"signal {signum}"
        super().__init__(
            f"run interrupted by {name} after graceful drain "
            f"({completed_shards}/{total_shards} shard(s) completed "
            f"and checkpointed)"
        )
        self.signum = signum
        self.completed_shards = completed_shards
        self.total_shards = total_shards


class ServeError(ReproError, RuntimeError):
    """The serving layer could not start or keep serving.

    Raised by :mod:`repro.serve` for process-ending failures only --
    an address that cannot be bound, an invalid configuration.
    Per-request failure modes (overload, exhausted deadline budgets,
    injected faults) are absorbed by admission control and the
    degradation ladder and never surface as exceptions.  The CLI maps
    this to exit code 9."""
