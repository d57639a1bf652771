"""Command-line interface: ``repro <command>``.

Commands map one-to-one onto the paper's evaluation artefacts:

* ``repro figure1`` / ``repro figure2`` -- the winning-probability
  curves for ``n = 3, 4, 5`` (ASCII plot + per-curve optima).
* ``repro case --n 3 --delta 1`` -- a Section 5.2 worked case.
* ``repro uniformity`` -- the Theorem 4.3 table across player counts.
* ``repro tradeoff`` -- oblivious vs threshold vs centralized.
* ``repro validate`` -- Monte Carlo validation of the exact formulas.
* ``repro check`` -- the result-integrity oracle: analytic closed
  forms vs independent exact witnesses vs Monte Carlo vs the
  centralized bound, with runtime contracts active (see
  :mod:`repro.validation`).  Disagreement exits with its own code (6)
  so CI can tell an integrity regression from every other failure.

Every subcommand is one entry of the :data:`_COMMANDS` table (name,
help, the flags it takes, its handler), and every flag meaning is one
:class:`_Flag` declaration that commands list, overriding only a
default, required-ness or metavar of their own.

Every subcommand additionally accepts the instrumentation flags
``--profile`` (print a metrics/span report to stderr after the run),
``--metrics-out PATH`` (write the run's sealed event log, whose final
metrics snapshot :func:`~repro.observability.events.reconstruct_metrics`
replays) and ``--trace-out PATH`` (write a Chrome/Perfetto-loadable
trace).  The flags only observe: simulated results are bit-identical
with and without them (see :mod:`repro.observability`).

Caching flags ride on the same shared group: ``--cache-dir DIR``
attaches the persistent exact-kernel cache (see :mod:`repro.cache`)
and ``--no-cache`` disables memoization entirely; both only change
wall-clock time, never values.  ``repro cache stats|clear|warm``
manages the cache itself, and ``repro check`` always runs
cache-*bypassed* so the oracle cross-validates freshly recomputed
values against whatever other runs may have cached.

``repro validate`` further exposes the fault-tolerance machinery of
:mod:`repro.simulation.faulttolerance`: ``--max-retries`` /
``--shard-timeout`` harden long runs, ``--checkpoint`` /``--resume``
survive interruption, and ``--chaos-crash`` deterministically crashes
one shard to exercise recovery.  Predictable failures map to distinct
exit codes (3: checkpoint belongs to a different run; 4: checkpoint
unusable; 5: a shard exhausted its retry budget) with a one-line
message instead of a traceback.

``repro coordinate`` / ``repro work`` run one estimate across machine
boundaries (see :mod:`repro.distributed`): the coordinator serves
shard leases over TCP, workers execute them through the same shard
entry point as the local executors, and the result is bit-identical
to serial under any worker count or injected fault (``--chaos
KIND:SHARD[:SECONDS]`` covers both compute and network kinds).
``--distributed-smoke W`` self-tests the whole stack by spawning
``W`` local worker subprocesses and verifying bit-identity against
the serial engine.  An unrecoverable transport failure exits 8.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, List, Mapping, Optional, Tuple

from repro.cache import bypass_cache, configure_cache, restored_cache_settings
from repro.errors import (
    ContractViolation,
    DistributedError,
    RunInterruptedError,
    ServeError,
    ValidationError,
)
from repro.experiments.figures import figure1, figure2, render_figure
from repro.experiments.tables import (
    case_study,
    render_case_study,
    render_tradeoff_table,
    render_uniformity_table,
    tradeoff_table,
    uniformity_table,
)
from repro.observability import Instrumentation, use_instrumentation
from repro.observability.dashboard import Dashboard
from repro.observability.events import (
    EventBus,
    counter_samples_from_events,
)
from repro.observability.reporting import render_report, write_chrome_trace
from repro.observability.runlog import (
    RunStore,
    RunStoreError,
    render_comparison,
    render_run,
)
from repro.observability.runmeta import new_run_context, set_current_run
from repro.simulation.faulttolerance import (
    CheckpointError,
    CheckpointFingerprintError,
    FaultPlan,
    FaultToleranceConfig,
    RetryPolicy,
    ShardRetriesExhaustedError,
)
from repro.simulation.runner import sweep_thresholds

__all__ = ["main"]

#: Exit codes for predictable failures (0 = success, 1 = validation or
#: reproduction mismatch, 2 = usage error or rejected argument value).
EXIT_USAGE = 2
EXIT_FINGERPRINT_MISMATCH = 3
EXIT_CHECKPOINT_ERROR = 4
EXIT_RETRIES_EXHAUSTED = 5
EXIT_INTEGRITY_MISMATCH = 6
EXIT_PERF_REGRESSION = 7
EXIT_DISTRIBUTED = 8
EXIT_SERVE = 9


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a rational number (try e.g. 1, 4/3, 0.75)"
        ) from exc


# ---------------------------------------------------------------------------
# Flags: each meaning declared once
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Flag:
    """One flag meaning: ``add_argument``'s names and keywords, and the
    help section (argument group) it is listed under.

    A command that takes the flag with its own default, required-ness
    or metavar lists ``flag.override(...)`` instead of redeclaring it.
    """

    names: Tuple[str, ...]
    options: Mapping[str, Any]
    group: Optional[str] = None

    def override(self, **options: Any) -> "_Flag":
        return replace(self, options={**self.options, **options})


def _flag(*names: str, group: Optional[str] = None, **options: Any) -> _Flag:
    return _Flag(names, options, group)


def _required(flag: _Flag) -> _Flag:
    return flag.override(required=True, default=None)


#: The caching, instrumentation and telemetry flags every subcommand takes.
_SHARED_FLAGS = (
    _flag(
        "--cache-dir",
        group="caching",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "persist memoized exact-kernel results to DIR (atomic, "
            "checksummed, invalidated automatically when a formula "
            "changes); also honours the REPRO_CACHE_DIR environment "
            "variable"
        ),
    ),
    _flag(
        "--no-cache",
        group="caching",
        action="store_true",
        help=(
            "disable all memoization for this run (every kernel value "
            "is recomputed from scratch); also honours REPRO_NO_CACHE"
        ),
    ),
    _flag(
        "--profile",
        group="instrumentation",
        action="store_true",
        help="collect metrics and spans; print a report to stderr",
    ),
    _flag(
        "--metrics-out",
        group="instrumentation",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "write the run's event log, metrics snapshots included, "
            "as sealed JSONL (implies --profile)"
        ),
    ),
    _flag(
        "--trace-out",
        group="instrumentation",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "write spans in Chrome trace-event JSON, loadable in "
            "chrome://tracing or Perfetto (implies --profile)"
        ),
    ),
    _flag(
        "--dashboard",
        group="telemetry",
        action="store_true",
        help=(
            "show a live progress panel on stderr (redrawn in place on "
            "a TTY, plain log lines otherwise); purely observational -- "
            "results are bit-identical with it on or off"
        ),
    ),
    _flag(
        "--record-run",
        group="telemetry",
        action="store_true",
        help=(
            "stream this run's telemetry events to the run-history "
            "store (inspect with 'repro runs list|show|compare')"
        ),
    ),
    _flag(
        "--runs-dir",
        group="telemetry",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "root of the run-history store (default .repro/runs; also "
            "honours the REPRO_RUNS_DIR environment variable)"
        ),
    ),
)

_N = _flag("--n", type=int, default=3)
_NS = _flag("--ns", type=int, nargs="+", default=[3, 4, 5])
_DELTA = _flag("--delta", type=_parse_fraction, default=Fraction(1))
_DELTAS = _flag(
    "--deltas", type=_parse_fraction, nargs="+", default=[Fraction(1)]
)
_TRIALS = _flag("--trials", type=int, default=100_000)
_SEED = _flag("--seed", type=int, default=0)
_GRID_SIZE = _flag(
    "--grid-size",
    type=int,
    default=101,
    help="number of evenly spaced beta points (default %(default)s)",
)
_WORKERS = _flag(
    "--workers",
    type=int,
    default=None,
    help=(
        "shard the Monte Carlo work across this many worker processes "
        "(results are identical for any worker count)"
    ),
)
_HOST = _flag("--host", default="127.0.0.1")
_RUN = _flag(
    "run",
    nargs="?",
    default="latest",
    help="run id prefix, directory-name prefix, or 'latest'",
)

_FAULT = "fault tolerance"
_MAX_RETRIES = _flag(
    "--max-retries",
    group=_FAULT,
    type=int,
    default=None,
    metavar="K",
    help=(
        "re-run a failed shard up to K times with exponential "
        "backoff; a retried shard replays its own seed stream, so "
        "results are identical to a failure-free run"
    ),
)
_SHARD_TIMEOUT = _flag(
    "--shard-timeout",
    group=_FAULT,
    type=float,
    default=None,
    metavar="SECONDS",
    help=(
        "wall-clock limit per shard attempt; a timed-out shard "
        "counts against its retry budget"
    ),
)
_CHECKPOINT = _flag(
    "--checkpoint",
    group=_FAULT,
    type=Path,
    default=None,
    metavar="PATH",
    help=(
        "stream completed shards to a JSONL checkpoint file (atomic "
        "appends, per-record checksums) that --resume continues from"
    ),
)
_RESUME = _flag(
    "--resume",
    group=_FAULT,
    action="store_true",
    help=(
        "load matching shards from --checkpoint before running; "
        "only missing or corrupt shards are re-executed"
    ),
)


def _fault_tolerance_config(
    args: argparse.Namespace,
) -> Optional[FaultToleranceConfig]:
    """The ``FaultToleranceConfig`` the fault-tolerance flags imply.

    ``None`` when no such flag was given (``validate`` and ``check``),
    which keeps the historical ``workers=None`` dispatch reachable.
    ``coordinate``'s ``--max-retries`` defaults to 2, so it always gets
    a config.  ``--chaos-crash S`` is ``FaultPlan.single("crash",
    shard=S)``; ``--chaos`` specs go through ``parse_chaos_specs``.
    """
    max_retries = getattr(args, "max_retries", None)
    shard_timeout = getattr(args, "shard_timeout", None)
    checkpoint = getattr(args, "checkpoint", None)
    resume = getattr(args, "resume", False)
    if resume and checkpoint is None:
        raise ValidationError("--resume requires --checkpoint PATH")
    fault_plan = None
    if getattr(args, "chaos_crash", None) is not None:
        fault_plan = FaultPlan.single("crash", shard=args.chaos_crash)
    elif getattr(args, "chaos", None):
        from repro.distributed.chaos import parse_chaos_specs

        fault_plan = parse_chaos_specs(args.chaos)
    if (
        max_retries is None
        and shard_timeout is None
        and checkpoint is None
        and fault_plan is None
    ):
        return None
    return FaultToleranceConfig(
        retry=RetryPolicy(
            max_retries=0 if max_retries is None else max_retries,
            shard_timeout=shard_timeout,
        ),
        fault_plan=fault_plan,
        checkpoint_path=checkpoint,
        resume=resume,
    )


# ---------------------------------------------------------------------------
# The command table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Command:
    """One ``repro`` subcommand: name, help, the flags it takes and its
    handler -- or, for ``runs`` and ``bench``, its own subcommands.

    ``telemetry`` is False for the store-introspection commands: they
    read telemetry but never produce it (recording a run of ``repro
    runs list`` would pollute the very store it lists).
    """

    name: str
    help: str
    flags: Tuple[_Flag, ...] = ()
    run: Optional[Callable[[argparse.Namespace], int]] = None
    telemetry: bool = True
    subcommands: List["_Command"] = field(default_factory=list)


#: The command table: every ``repro`` subcommand in ``--help`` order,
#: filled by :func:`_command` as the handlers below are defined.
_COMMANDS: List[_Command] = []


def _command(
    name: str,
    help: str,
    *flags: _Flag,
    telemetry: bool = True,
    parent: Optional[_Command] = None,
):
    """Register the decorated handler in the command table (among
    *parent*'s subcommands when given)."""

    def register(run: Callable[[argparse.Namespace], int]):
        table = _COMMANDS if parent is None else parent.subcommands
        table.append(_Command(name, help, flags, run, telemetry))
        return run

    return register


def _group(name: str, help: str) -> _Command:
    """Register a command that only dispatches to its subcommands (the
    store-introspection ``runs`` and ``bench``, so no telemetry)."""
    group = _Command(name, help, telemetry=False)
    _COMMANDS.append(group)
    return group


@_command("figure1", "winning probability curves, fixed delta", _DELTA, _NS)
def _run_figure1(args: argparse.Namespace) -> int:
    series = figure1(ns=args.ns, delta=args.delta)
    print(
        render_figure(
            series,
            title=f"Figure 1: P(beta), delta = {args.delta}",
        )
    )
    return 0


@_command("figure2", "winning probability curves, scaled delta = n/3", _NS)
def _run_figure2(args: argparse.Namespace) -> int:
    series = figure2(ns=args.ns)
    print(render_figure(series, title="Figure 2: P(beta), delta = n/3"))
    return 0


@_command(
    "case",
    "a Section 5.2 worked optimisation",
    _required(_N),
    _required(_DELTA),
)
def _run_case(args: argparse.Namespace) -> int:
    print(render_case_study(case_study(args.n, args.delta)))
    return 0


@_command(
    "uniformity",
    "oblivious vs threshold optima across n",
    _NS.override(default=[2, 3, 4, 5, 6, 7, 8]),
    _DELTA,
    _flag(
        "--scaled",
        action="store_true",
        help="use delta = n/3 instead of a fixed delta",
    ),
)
def _run_uniformity(args: argparse.Namespace) -> int:
    delta_of_n = (
        (lambda n: Fraction(n, 3)) if args.scaled
        else (lambda n: args.delta)
    )
    print(
        render_uniformity_table(
            uniformity_table(ns=args.ns, delta_of_n=delta_of_n)
        )
    )
    return 0


@_command(
    "tradeoff",
    "fair coin vs threshold vs centralized",
    _NS.override(default=[2, 3, 4, 5, 6]),
    _DELTA,
    _TRIALS,
    _SEED,
)
def _run_tradeoff(args: argparse.Namespace) -> int:
    rows = tradeoff_table(
        ns=args.ns,
        delta_of_n=lambda n: args.delta,
        trials=args.trials,
        seed=args.seed,
    )
    print(render_tradeoff_table(rows))
    return 0


@_command(
    "all",
    "run every headline check and print the reproduction report",
    _flag(
        "--exact-only",
        action="store_true",
        help="skip the Monte Carlo checks (seconds instead of minutes)",
    ),
    _TRIALS.override(default=60_000),
)
def _run_all(args: argparse.Namespace) -> int:
    from repro.experiments.summary import reproduce_all

    report = reproduce_all(
        monte_carlo_trials=None if args.exact_only else args.trials
    )
    print(report.render())
    return 0 if report.passed else 1


@_command(
    "mixture",
    "the oblivious/non-oblivious continuum (extension E8)",
    _required(_N),
    _required(_DELTA),
)
def _run_mixture(args: argparse.Namespace) -> int:
    from repro.core.randomized import (
        best_symmetric_mixture_exact,
        symmetric_mixture_polynomial,
    )
    from repro.optimize.threshold_opt import (
        optimal_symmetric_threshold,
    )

    beta = optimal_symmetric_threshold(args.n, args.delta).beta
    p_star, value = best_symmetric_mixture_exact(
        args.n, args.delta, beta
    )
    poly = symmetric_mixture_polynomial(beta, args.n, args.delta)
    print(f"n = {args.n}, delta = {args.delta}, beta* fixed at "
          f"{float(beta):.6f}")
    print(f"P(coin,  p=0) = {float(poly(0)):.6f}")
    print(f"P(thresh,p=1) = {float(poly(1)):.6f}")
    print(f"P(best mixture) = {float(value):.6f} at p* = "
          f"{float(p_star):.6f}")
    if 0 < p_star < 1:
        print("interior mixture beats BOTH pure families")
    return 0


@_command(
    "export",
    "write all experiment records as CSV + manifest.json",
    _flag("--out", default="results"),
    _GRID_SIZE,
)
def _run_export(args: argparse.Namespace) -> int:
    from repro.experiments.export import export_all

    manifest = export_all(args.out, grid_size=args.grid_size)
    print(f"wrote {', '.join(manifest['files'].values())} and "
          f"manifest.json to {args.out}/")
    return 0


@_command(
    "validate",
    "Monte Carlo validation of the exact threshold curve",
    _N,
    _DELTA,
    _GRID_SIZE.override(default=11),
    _TRIALS,
    _SEED,
    _WORKERS,
    _MAX_RETRIES,
    _SHARD_TIMEOUT,
    _CHECKPOINT,
    _RESUME,
    _flag(
        "--chaos-crash",
        group=_FAULT,
        type=int,
        default=None,
        metavar="SHARD",
        help=(
            "chaos mode: deterministically crash the first attempt of "
            "shard SHARD in every grid point (use with --max-retries "
            ">= 1 to exercise recovery; the output must be identical "
            "to a clean run)"
        ),
    ),
)
def _run_validate(args: argparse.Namespace) -> int:
    result = sweep_thresholds(
        args.n,
        args.delta,
        grid_size=args.grid_size,
        simulate=True,
        trials=args.trials,
        seed=args.seed,
        workers=args.workers,
        fault_tolerance=_fault_tolerance_config(args),
    )
    for point in result.points:
        status = "ok" if point.consistent else "MISMATCH"
        print(
            f"beta={float(point.parameter):.3f}  "
            f"exact={float(point.exact):.6f}  "
            f"simulated={point.simulated:.6f}  [{status}]"
        )
    # all_consistent() is None when nothing simulated -- that is a
    # failed validation too, not a vacuous pass.
    if result.all_consistent() is not True:
        print("VALIDATION FAILED", file=sys.stderr)
        return 1
    print(f"all {len(result.points)} grid points consistent")
    return 0


@_command(
    "sweep",
    "evaluate the threshold curve on a beta grid (exact or batched)",
    _N,
    _DELTA,
    _GRID_SIZE.override(default=1001),
    _flag(
        "--batch",
        action="store_true",
        help=(
            "serve the exact column from the vectorised batch layer: "
            "one compiled evaluation of the whole grid, every point "
            "certified or exact-fallback (see docs/architecture.md)"
        ),
    ),
)
def _run_sweep(args: argparse.Namespace) -> int:
    """``repro sweep``: one beta-grid sweep, exact or batched."""
    import time

    start = time.perf_counter()
    result = sweep_thresholds(
        args.n,
        args.delta,
        grid_size=args.grid_size,
        batch=args.batch,
    )
    elapsed = time.perf_counter() - start
    best = result.best()
    mode = "batch" if args.batch else "exact"
    print(
        f"sweep [{mode}] n={args.n} delta={args.delta}: "
        f"{len(result.points)} points in {elapsed:.3f}s"
    )
    print(
        f"  best beta={float(best.parameter):.6f}  "
        f"P={float(best.exact):.6f}"
    )
    if result.batch is not None:
        print(
            f"  certified {result.batch.certified}/{result.batch.points}, "
            f"{result.batch.fallbacks} exact fallbacks "
            f"(rate {result.batch.fallback_rate:.2%})"
        )
    return 0


@_command(
    "check",
    "cross-validate analytic formulas, MC and bounds",
    _NS.override(default=[2, 3, 4]),
    _DELTAS,
    _flag(
        "--algorithms",
        nargs="+",
        default=["oblivious", "threshold"],
        choices=["oblivious", "threshold"],
    ),
    _TRIALS.override(default=20_000),
    _SEED,
    _WORKERS,
    _flag(
        "--z-threshold",
        type=float,
        default=3.89,
        help="maximum tolerated |z| of the MC estimate (default 3.89)",
    ),
    _flag(
        "--strict",
        action="store_true",
        help=(
            "run contracts in strict mode: the first violated "
            "invariant aborts with exit code 6 instead of only being "
            "counted"
        ),
    ),
    _flag(
        "--report-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the machine-readable agreement report as JSON",
    ),
    _MAX_RETRIES,
    _SHARD_TIMEOUT,
    _flag(
        "--batch-grid",
        type=int,
        default=0,
        metavar="SIZE",
        help=(
            "also run the batch-vs-exact agreement grid with SIZE "
            "uniform beta points per case (plus every breakpoint and "
            "its float neighbours); disagreement exits with code 6 "
            "like any other integrity failure (0 = skip, the default)"
        ),
    ),
    _flag(
        "--inject-analytic-error",
        type=float,
        default=0.0,
        metavar="EPS",
        help=(
            "add EPS to every analytic value before the MC comparison "
            "-- a deliberate bug injection proving the oracle can fail"
        ),
    ),
    _flag(
        "--asymptotic-grid",
        action="store_true",
        help=(
            "also force the asymptotic tier through the exact-vs-"
            "asymptotic crossover grid (n ~ 10-20): estimates must "
            "stay within their certified bounds of the exact values "
            "and within the MC z-gate; failure exits with code 6"
        ),
    ),
    _flag(
        "--asymptotic-ns",
        type=int,
        nargs="+",
        default=[10, 12, 14, 16, 18, 20],
        metavar="N",
        help="crossover sizes for --asymptotic-grid",
    ),
    _flag(
        "--inject-asymptotic-error",
        type=float,
        default=0.0,
        metavar="EPS",
        help=(
            "add EPS to every asymptotic estimate in the "
            "--asymptotic-grid comparison -- the deliberate bug "
            "injection proving that gate can fail"
        ),
    ),
)
def _run_check(args: argparse.Namespace) -> int:
    """``repro check``: run the cross-validation oracle and report."""
    from repro.validation import default_case_grid, run_cross_validation
    from repro.validation.contracts import use_contracts

    fault_tolerance = _fault_tolerance_config(args)
    # The oracle must never compare a cached value with itself: running
    # cache-bypassed recomputes every analytic route from scratch, so
    # cached results elsewhere are cross-validated against fresh ones.
    with bypass_cache(), use_contracts(strict=args.strict):
        cases = default_case_grid(
            args.ns, args.deltas, algorithms=args.algorithms
        )
        report = run_cross_validation(
            cases,
            trials=args.trials,
            seed=args.seed,
            workers=args.workers,
            z_threshold=args.z_threshold,
            perturbation=args.inject_analytic_error,
            fault_tolerance=fault_tolerance,
        )
    print(report.render())
    if args.report_out is not None:
        args.report_out.write_text(report.to_json() + "\n")
        print(f"report written to {args.report_out}", file=sys.stderr)
    if not report.passed:
        print("INTEGRITY CHECK FAILED", file=sys.stderr)
        return EXIT_INTEGRITY_MISMATCH
    if args.batch_grid:
        from repro.batch import run_batch_agreement

        agreement = run_batch_agreement(
            args.ns, args.deltas, grid_size=args.batch_grid
        )
        print(agreement.render())
        if not agreement.passed:
            print("BATCH AGREEMENT FAILED", file=sys.stderr)
            return EXIT_INTEGRITY_MISMATCH
    if args.asymptotic_grid:
        from repro.validation import run_asymptotic_agreement

        asymptotic = run_asymptotic_agreement(
            ns=args.asymptotic_ns,
            trials=args.trials,
            seed=args.seed,
            workers=args.workers,
            z_threshold=args.z_threshold,
            perturbation=args.inject_asymptotic_error,
        )
        print(asymptotic.render())
        if not asymptotic.passed:
            print("ASYMPTOTIC AGREEMENT FAILED", file=sys.stderr)
            return EXIT_INTEGRITY_MISMATCH
    return 0


@_command(
    "asymptotic",
    "large-n winning probability and near-optimal threshold "
    "via the certified asymptotic tier",
    _required(_N),
    _required(_DELTA),
    _flag(
        "--beta",
        type=_parse_fraction,
        default=None,
        help=(
            "evaluate this common threshold (omit to search for a "
            "near-optimal one)"
        ),
    ),
    _flag(
        "--alpha",
        type=_parse_fraction,
        default=None,
        help="evaluate the symmetric oblivious coin with this alpha",
    ),
    _flag(
        "--method",
        choices=["normal", "edgeworth"],
        default="edgeworth",
        help="asymptotic estimator (default edgeworth)",
    ),
    _flag(
        "--json",
        action="store_true",
        help="emit the result as one JSON object",
    ),
)
def _run_asymptotic(args: argparse.Namespace) -> int:
    """``repro asymptotic``: certified large-n values in milliseconds."""
    import json as _json
    import time

    from repro.core.asymptotic import (
        symmetric_oblivious_winning_regime,
        symmetric_threshold_winning_regime,
    )
    from repro.optimize.asymptotic_opt import (
        near_optimal_symmetric_threshold,
    )
    from repro.probability.regimes import RegimePolicy

    if args.alpha is not None and args.beta is not None:
        raise ValidationError("choose --alpha or --beta, not both")
    if args.delta <= 0:
        # the library answers P = 0 for a bin that holds nothing; as
        # a request it is out of range, as on every other command
        raise ValidationError(f"delta must be positive, got {args.delta}")
    policy = RegimePolicy(method=args.method)
    start = time.perf_counter()
    if args.alpha is not None:
        family, parameter = "oblivious", {"alpha": str(args.alpha)}
        fields = symmetric_oblivious_winning_regime(
            args.alpha, args.n, args.delta, policy
        ).fields()
    elif args.beta is not None:
        family, parameter = "threshold", {"beta": str(args.beta)}
        fields = symmetric_threshold_winning_regime(
            args.beta, args.n, args.delta, policy
        ).fields()
    else:
        optimum = near_optimal_symmetric_threshold(
            args.n, args.delta, policy
        )
        family, parameter = "threshold-optimum", {"beta": optimum.beta}
        fields = optimum.probability.fields(
            gap_bound=optimum.gap_bound,
            evaluations=optimum.evaluations,
        )
    payload = {
        "family": family,
        "n": args.n,
        "delta": str(args.delta),
        **parameter,
        **fields,
    }
    payload["elapsed_seconds"] = time.perf_counter() - start
    if args.json:
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return 0


@_command(
    "cache",
    "inspect, clear or warm the exact-kernel memoization cache",
    _flag(
        "action",
        choices=["stats", "clear", "warm", "prune"],
        help=(
            "stats: print tier statistics as JSON; clear: drop every "
            "entry; warm: precompute the standard sweep grids into the "
            "persistent tier (requires --cache-dir or REPRO_CACHE_DIR); "
            "prune: evict oldest entries until the tier fits "
            "--max-bytes"
        ),
    ),
    _flag(
        "--max-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help=(
            "size bound for the persistent tier: prune evicts "
            "oldest-first down to this total (required for prune; with "
            "other actions, installs the bound for this run so every "
            "write prunes automatically)"
        ),
    ),
    _NS.override(default=[2, 3, 4, 5]),
    _DELTAS,
    _GRID_SIZE,
)
def _run_cache(args: argparse.Namespace) -> int:
    """``repro cache stats|clear|warm|prune``."""
    import json

    from repro.cache import cache_stats, clear_cache, configure_cache

    if args.max_bytes is not None:
        configure_cache(max_bytes=args.max_bytes)
    if args.action == "stats":
        print(json.dumps(cache_stats(), indent=2, sort_keys=True))
        return 0
    if args.action == "clear":
        removed = clear_cache()
        print(
            f"cleared {removed['memory']} memory and "
            f"{removed['disk']} disk entries"
        )
        return 0
    if args.action == "prune" and args.max_bytes is None:
        raise ValidationError("prune: --max-bytes BYTES is required")
    if cache_stats()["disk"] is None:
        raise ValidationError(
            f"{args.action}: no persistent tier configured "
            "(pass --cache-dir DIR or set REPRO_CACHE_DIR)"
        )
    if args.action == "prune":
        from repro.cache import prune_disk_cache

        evicted = prune_disk_cache(args.max_bytes)
        after = cache_stats()["disk"]
        print(
            f"evicted {evicted} entr(ies); persistent tier now holds "
            f"{after['entries']} entries / {after['total_bytes']} bytes "
            f"in {after['directory']}"
        )
        return 0
    # warm: precompute the standard sweep grids so later runs start hot.
    from repro.core.nonoblivious import (
        symmetric_threshold_winning_probability,
    )
    from repro.core.oblivious import (
        optimal_oblivious_winning_probability,
    )

    kernel_calls = 0
    for n in args.ns:
        for delta in args.deltas:
            optimal_oblivious_winning_probability(delta, n)
            kernel_calls += 1
            for i in range(args.grid_size):
                beta = Fraction(i, max(args.grid_size - 1, 1))
                symmetric_threshold_winning_probability(beta, n, delta)
                kernel_calls += 1
    after = cache_stats()["disk"]
    print(
        f"warmed {kernel_calls} kernel evaluations; persistent tier "
        f"now holds {after['entries']} entries in {after['directory']}"
    )
    return 0


_RUNS = _group(
    "runs", "inspect the run-history store written by --record-run"
)


@_command("list", "one line per recorded run, oldest first", parent=_RUNS)
def _run_runs_list(args: argparse.Namespace) -> int:
    store = RunStore(args.runs_dir)
    runs = store.list_runs()
    if not runs:
        print(
            f"no recorded runs under {store.root} "
            "(record one with --record-run)"
        )
    for run in runs:
        state = "complete" if run.complete else "INCOMPLETE"
        elapsed = (
            "?"
            if run.elapsed_seconds is None
            else f"{run.elapsed_seconds:.3f}s"
        )
        print(
            f"{run.run_id}  {run.started_utc or '?':<20}  "
            f"{run.command or '?':<10}  exit="
            f"{run.exit_code if run.exit_code is not None else '?'}"
            f"  {elapsed:>10}  [{state}]"
        )
    return 0


@_command(
    "show", "identity, timing and counters of one run", _RUN, parent=_RUNS
)
def _run_runs_show(args: argparse.Namespace) -> int:
    print(render_run(RunStore(args.runs_dir).find(args.run)))
    return 0


@_command(
    "compare",
    "counter-by-counter diff of two recorded runs",
    _flag("left", help="baseline run reference"),
    _flag(
        "right",
        nargs="?",
        default="latest",
        help="candidate run reference (default: latest)",
    ),
    _flag(
        "--changed-only",
        action="store_true",
        help="hide counters with a zero delta",
    ),
    parent=_RUNS,
)
def _run_runs_compare(args: argparse.Namespace) -> int:
    store = RunStore(args.runs_dir)
    print(
        render_comparison(
            store.find(args.left),
            store.find(args.right),
            changed_only=args.changed_only,
        )
    )
    return 0


@_command(
    "prune",
    "delete the oldest recorded runs",
    _flag(
        "--keep",
        type=int,
        required=True,
        metavar="N",
        help="number of most recent runs to keep",
    ),
    parent=_RUNS,
)
def _run_runs_prune(args: argparse.Namespace) -> int:
    store = RunStore(args.runs_dir)
    removed = store.prune(keep=args.keep)
    print(f"pruned {removed} run(s); {len(store.list_runs())} kept")
    return 0


@_command(
    "report",
    "render a recorded run as a self-contained HTML report",
    _RUN,
    _flag(
        "--html",
        type=Path,
        required=True,
        metavar="PATH",
        help=(
            "write the report here (single file, inline CSS and SVG, "
            "no external references)"
        ),
    ),
    telemetry=False,
)
def _run_report(args: argparse.Namespace) -> int:
    """``repro report --html``: the self-contained HTML run report."""
    from repro.observability.htmlreport import write_html_report

    target = write_html_report(
        args.html, RunStore(args.runs_dir).find(args.run)
    )
    print(f"report written to {target}")
    return 0


_BENCH = _group(
    "bench", "perf-regression gate over committed BENCH_*.json artifacts"
)


@_command(
    "compare",
    "gate CANDIDATE against BASELINE (or BASELINE against its "
    "own committed floor); exits 7 on regression",
    _flag(
        "baseline", type=Path, help="baseline BENCH_*.json artifact"
    ),
    _flag(
        "candidate",
        type=Path,
        nargs="?",
        default=None,
        help=(
            "candidate artifact to gate (default: re-check the "
            "baseline's own floor)"
        ),
    ),
    _flag(
        "--min-ratio",
        type=float,
        default=0.5,
        metavar="R",
        help=(
            "minimum fraction of every baseline speedup the candidate "
            "must retain (default 0.5)"
        ),
    ),
    _flag(
        "--max-ratio",
        type=float,
        default=2.0,
        metavar="R",
        help=(
            "maximum multiple of every baseline *_seconds (and the "
            "fallback-rate ceiling) the candidate may reach "
            "(default 2.0)"
        ),
    ),
    parent=_BENCH,
)
def _run_bench_compare(args: argparse.Namespace) -> int:
    """``repro bench compare``: the perf-regression gate."""
    from repro.observability.regression import (
        compare_bench_files,
        render_bench_comparison,
    )

    try:
        comparison = compare_bench_files(
            args.baseline,
            args.candidate,
            min_ratio=args.min_ratio,
            max_ratio=args.max_ratio,
        )
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ValidationError(str(exc)) from exc
    print(render_bench_comparison(comparison))
    return 0 if comparison.passed else EXIT_PERF_REGRESSION


@_command(
    "serve",
    "answer winning-probability / optimal-strategy queries over "
    "HTTP with admission control, deadline budgets and graceful "
    "degradation",
    _HOST,
    _flag(
        "--port",
        type=int,
        default=8080,
        help="TCP port to listen on (0: pick a free port; default 8080)",
    ),
    _flag(
        "--max-inflight",
        type=int,
        default=8,
        metavar="K",
        help="requests executing concurrently (default 8)",
    ),
    _flag(
        "--queue-depth",
        type=int,
        default=16,
        metavar="K",
        help=(
            "requests allowed to wait for a slot; arrivals beyond it "
            "are shed with 429 (default 16)"
        ),
    ),
    _flag(
        "--deadline-ms",
        type=float,
        default=250.0,
        metavar="MS",
        help=(
            "per-request budget propagated into the kernel tiers; the "
            "exact fallback only runs while budget remains (default 250)"
        ),
    ),
    _flag(
        "--drain-seconds",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help=(
            "on SIGTERM/SIGINT, how long in-flight requests may finish "
            "before stragglers are aborted (default 5)"
        ),
    ),
    _flag(
        "--warm",
        action="append",
        default=[],
        metavar="N:DELTA",
        help=(
            "warm this (n, delta) pair's tables and optimum before "
            "/readyz flips (repeatable; default 2:1/2 3:1/2 4:1/2)"
        ),
    ),
    _flag(
        "--no-warm-optima",
        action="store_true",
        help="warm compiled curves only, skip pre-solving exact optima",
    ),
    _flag(
        "--max-n",
        type=int,
        default=32,
        help="largest n this server will answer for (default 32)",
    ),
    _flag(
        "--breaker-failures",
        type=int,
        default=3,
        metavar="K",
        help=(
            "consecutive slow/failed exact fallbacks that trip the "
            "circuit breaker open (default 3)"
        ),
    ),
    _flag(
        "--breaker-cooldown",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="open-state cooldown before a half-open probe (default 5)",
    ),
    _flag(
        "--chaos",
        action="append",
        default=[],
        metavar="KIND:REQUEST[:SECONDS]",
        help=(
            "inject one deterministic fault on that request sequence "
            "number: slow/hang burn kernel budget (degraded-but-bounded "
            "answer), corrupt forces a cache-bypassing recompute, delay "
            "stalls the response, drop/partition sever the connection; "
            "repeatable; never produces a 500"
        ),
    ),
)
def _run_serve(args: argparse.Namespace) -> int:
    """``repro serve``: the resilient HTTP query service."""
    from repro.distributed.chaos import parse_chaos_specs
    from repro.serve import ServeConfig, run_server

    warm = []
    for spec in args.warm:
        n_text, _, delta_text = spec.partition(":")
        try:
            pair = (int(n_text), Fraction(delta_text))
        except (ValueError, ZeroDivisionError):
            raise ValidationError(
                f"--warm must be N:DELTA, got {spec!r}"
            ) from None
        warm.append(pair)
    config_kwargs = dict(
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        queue_depth=args.queue_depth,
        deadline_ms=args.deadline_ms,
        drain_seconds=args.drain_seconds,
        warm_optima=not args.no_warm_optima,
        chaos=parse_chaos_specs(args.chaos),
        max_n=args.max_n,
        breaker_failures=args.breaker_failures,
        breaker_cooldown_seconds=args.breaker_cooldown,
    )
    if warm:
        config_kwargs["warm"] = tuple(warm)
    report = run_server(
        ServeConfig(**config_kwargs),
        log=lambda line: print(line, file=sys.stderr),
    )
    print(
        f"served {report.completed} request(s), shed {report.shed}, "
        f"{report.degraded} degraded; drain "
        f"{'clean' if report.drained_clean else 'forced'} "
        f"({report.stop_reason or 'stopped'})"
    )
    if not report.drained_clean:
        print(
            f"repro serve: {report.aborted_connections} connection(s) "
            "aborted at the drain deadline",
            file=sys.stderr,
        )
        return EXIT_SERVE
    return 0


@_command(
    "coordinate",
    "serve shard leases to `repro work` processes over TCP; "
    "bit-identical to serial under any fault",
    _N,
    _DELTA,
    _flag(
        "--beta",
        type=_parse_fraction,
        default=Fraction(3, 5),
        help="the symmetric threshold every player uses (default 3/5)",
    ),
    _TRIALS,
    _SEED,
    _flag("--shards", type=int, default=None),
    _HOST,
    _flag(
        "--port",
        type=int,
        default=0,
        help="TCP port to listen on (default 0: pick a free port)",
    ),
    _flag(
        "--lease-seconds",
        type=float,
        default=30.0,
        help=(
            "how long a granted shard may stay unreported before it "
            "is reassigned (default 30)"
        ),
    ),
    _flag(
        "--wait-for-workers",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help=(
            "how long to wait for a first worker before degrading to "
            "local execution (default 10)"
        ),
    ),
    _flag(
        "--idle-grace",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help=(
            "how long to wait after the last worker disconnects "
            "before finishing locally (default 2)"
        ),
    ),
    _flag(
        "--max-phase-seconds",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "hard budget for the distributed phase; on expiry the "
            "remaining shards run locally (default: unbounded)"
        ),
    ),
    _MAX_RETRIES.override(default=2),
    _flag(
        "--chaos",
        action="append",
        default=[],
        metavar="KIND:SHARD[:SECONDS]",
        help=(
            "inject one deterministic fault at attempt 0 of SHARD; "
            "KIND is crash/hang/slow/corrupt (compute layer) or "
            "drop/delay/partition/dup (frame layer); repeatable; the "
            "output must be identical to a clean run"
        ),
    ),
    _CHECKPOINT,
    _RESUME,
    _flag(
        "--distributed-smoke",
        type=int,
        default=None,
        metavar="W",
        help=(
            "self-test: spawn W local `repro work` subprocesses, run "
            "the estimate through them, then verify the result is "
            "bit-identical to the serial engine (exit 1 on mismatch)"
        ),
    ),
)
def _run_coordinate(args: argparse.Namespace) -> int:
    """``repro coordinate``: one estimate served over shard leases."""
    import subprocess

    from repro.distributed import (
        DistributedConfig,
        estimate_winning_probability_distributed,
    )
    from repro.model.algorithms import SingleThresholdRule
    from repro.model.system import DistributedSystem
    from repro.simulation.parallel import (
        estimate_winning_probability_sharded,
    )
    from repro.simulation.rng import SeedSequenceFactory

    smoke = args.distributed_smoke
    if smoke is not None and smoke < 1:
        raise ValidationError("--distributed-smoke needs >= 1 worker")
    fault_tolerance = _fault_tolerance_config(args)
    system = DistributedSystem(
        [SingleThresholdRule(args.beta)] * args.n, args.delta
    )
    config = DistributedConfig(
        host=args.host,
        port=args.port,
        lease_seconds=args.lease_seconds,
        wait_for_workers_seconds=args.wait_for_workers,
        idle_grace_seconds=args.idle_grace,
        max_phase_seconds=args.max_phase_seconds,
    )
    stream = "distributed-validate"
    spawned: List[subprocess.Popen] = []

    def on_ready(port: int) -> None:
        print(
            f"repro coordinate: listening on {args.host}:{port}",
            file=sys.stderr,
        )
        for index in range(smoke or 0):
            spawned.append(
                subprocess.Popen(
                    [
                        sys.executable,
                        "-m",
                        "repro.cli",
                        "work",
                        "--connect",
                        f"{args.host}:{port}",
                        "--worker-id",
                        f"smoke-{index}",
                    ]
                )
            )

    try:
        estimate = estimate_winning_probability_distributed(
            system,
            args.trials,
            SeedSequenceFactory(args.seed),
            stream=stream,
            shards=args.shards,
            fault_tolerance=fault_tolerance,
            config=config,
            on_ready=on_ready,
            handle_signals=True,
        )
    except RunInterruptedError as exc:
        # graceful: workers were drained, leases returned, and the
        # checkpoint (when one was configured) finalized before the
        # error surfaced; exit with the shell's 128 + signum code
        print(f"repro coordinate: {exc}", file=sys.stderr)
        return 128 + exc.signum
    finally:
        for proc in spawned:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    summary = estimate.summary
    print(
        f"n={args.n} delta={args.delta} beta={args.beta}: "
        f"P(win) ~= {summary.estimate:.6f} in "
        f"[{summary.lower:.6f}, {summary.upper:.6f}]  "
        f"({summary.trials} trials, {estimate.shards} shards, "
        f"{estimate.workers_used} worker(s), "
        f"{estimate.salvaged_shards} salvaged)"
    )
    if smoke is not None:
        # the self-test contract: a chaotic distributed run must be
        # bit-identical to a clean run of the serial engine
        reference = estimate_winning_probability_sharded(
            system,
            args.trials,
            SeedSequenceFactory(args.seed),
            stream=stream,
            shards=args.shards,
        )
        if (
            estimate.summary != reference.summary
            or estimate.shard_outcomes != reference.shard_outcomes
        ):
            print(
                "distributed-smoke: MISMATCH against the serial engine",
                file=sys.stderr,
            )
            return 1
        crashed = [p.returncode for p in spawned if p.returncode not in (0, 1)]
        if crashed:
            print(
                f"distributed-smoke: worker exit codes {crashed}",
                file=sys.stderr,
            )
            return 1
        print(
            f"distributed-smoke: {smoke} worker(s), "
            f"{estimate.shards} shards bit-identical to the serial engine"
        )
    return 0


@_command(
    "work",
    "serve one coordinator as a lease-holding worker",
    _flag(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="the coordinator's address (from `repro coordinate`)",
    ),
    _flag(
        "--worker-id",
        default=None,
        help="identity shown in coordinator telemetry (default: pid)",
    ),
    _flag(
        "--connect-retries",
        type=int,
        default=40,
        metavar="K",
        help=(
            "connection attempts before giving up (jittered backoff "
            "between attempts; default 40)"
        ),
    ),
    _flag(
        "--frame-timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="per-frame read/write timeout (default 60)",
    ),
)
def _run_work(args: argparse.Namespace) -> int:
    """``repro work``: serve one coordinator until it drains."""
    from repro.distributed import WorkerConfig, run_worker
    from repro.simulation.faulttolerance import InjectedCrashError

    host, _, port_text = args.connect.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        port = 0
    if not host or not 0 < port < 65536:
        raise ValidationError(
            f"--connect must be HOST:PORT, got {args.connect!r}"
        )
    config = WorkerConfig(
        host=host,
        port=port,
        worker_id=args.worker_id or f"pid-{os.getpid()}",
        connect_policy=RetryPolicy(
            max_retries=args.connect_retries,
            backoff_base=0.05,
            backoff_factor=1.5,
            backoff_max=1.0,
            backoff_jitter=0.5,
        ),
        frame_timeout_seconds=args.frame_timeout,
    )
    try:
        report = run_worker(
            config,
            log=lambda line: print(line, file=sys.stderr),
            handle_signals=True,
        )
    except InjectedCrashError as exc:
        # chaos mode: die the way a real worker crash would
        print(f"repro work: injected crash: {exc}", file=sys.stderr)
        return 1
    print(
        f"repro work: {report.worker_id} completed "
        f"{report.shards_completed} shard(s), sent "
        f"{report.summaries_sent} summar(ies), "
        f"{report.reconnects} reconnect(s)",
        file=sys.stderr,
    )
    if report.interrupted_signal is not None:
        # the signal was absorbed gracefully (lease finished, summary
        # delivered, goodbye sent) but the exit code still reports it
        print(
            f"repro work: interrupted by signal "
            f"{report.interrupted_signal} after graceful drain",
            file=sys.stderr,
        )
        return 128 + report.interrupted_signal
    return 0


def _add_flags(parser: argparse.ArgumentParser, flags) -> None:
    groups: dict = {}
    for flag in flags:
        target = parser
        if flag.group is not None:
            if flag.group not in groups:
                groups[flag.group] = parser.add_argument_group(flag.group)
            target = groups[flag.group]
        target.add_argument(*flag.names, **flag.options)


def _add_command(subparsers, command: _Command, shared=()) -> None:
    parser = subparsers.add_parser(command.name, help=command.help)
    _add_flags(parser, (*shared, *command.flags))
    if command.subcommands:
        nested = parser.add_subparsers(
            dest=f"{command.name}_command", required=True
        )
        for subcommand in command.subcommands:
            _add_command(nested, subcommand)
    else:
        parser.set_defaults(handler=command.run)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce 'Optimal, Distributed Decision-Making: "
            "The Case of No Communication' (Georgiades, Mavronicolas & "
            "Spirakis, FCT 1999)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        _add_command(sub, command, _SHARED_FLAGS)
    return parser


def _emit_instrumentation(
    instr: Instrumentation,
    args: argparse.Namespace,
    counter_samples: Optional[List[dict]] = None,
) -> None:
    """Write the requested observability artefacts after a profiled run.

    The report goes to stderr so stdout stays exactly the command's
    artefact (tables/CSV announcements), pipeable as before.
    *counter_samples* (from the run's ``metrics`` events) add
    throughput/cache/batch counter tracks to the trace.
    """
    if args.profile:
        print(
            render_report(instr, title=f"repro {args.command}"),
            file=sys.stderr,
        )
    if args.metrics_out is not None:
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    if args.trace_out is not None:
        write_chrome_trace(
            args.trace_out, instr.tracer, counter_samples=counter_samples
        )
        print(f"trace written to {args.trace_out}", file=sys.stderr)


def _dispatch_mapped(args: argparse.Namespace) -> int:
    """Run the command's handler, mapping predictable failures to
    distinct exit codes with a one-line message -- an operator resuming
    an overnight run should see *which* kind of failure occurred, not a
    traceback."""
    try:
        return args.handler(args)
    except CheckpointFingerprintError as exc:
        print(
            f"repro: checkpoint belongs to a different run: {exc}",
            file=sys.stderr,
        )
        return EXIT_FINGERPRINT_MISMATCH
    except CheckpointError as exc:
        print(f"repro: checkpoint unusable: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT_ERROR
    except ShardRetriesExhaustedError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return EXIT_RETRIES_EXHAUSTED
    except ContractViolation as exc:
        print(f"repro: integrity: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY_MISMATCH
    except DistributedError as exc:
        print(f"repro: distributed: {exc}", file=sys.stderr)
        return EXIT_DISTRIBUTED
    except ServeError as exc:
        print(f"repro: serve: {exc}", file=sys.stderr)
        return EXIT_SERVE
    except (ValidationError, RunStoreError) as exc:
        # the one usage-error exit: a rejected argument value or
        # combination, or a run reference the store cannot resolve
        nested = getattr(args, f"{args.command}_command", None)
        command = " ".join(filter(None, (args.command, nested)))
        print(f"repro {command}: invalid request: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro`` command; returns the exit code.

    Exit codes: 0 success; 1 validation/reproduction mismatch; 2 usage
    error or rejected argument value; 3 ``--resume`` against a
    checkpoint from a different run; 4 unusable checkpoint (unwritable
    path, corrupt header); 5 a shard exhausted its ``--max-retries``
    budget; 6 the ``repro check`` integrity oracle found a
    disagreement (or a strict-mode contract violation); 7 the
    ``repro bench compare`` perf-regression gate failed; 8 an
    unrecoverable distributed-transport failure (e.g. ``repro work``
    never reached its coordinator); 9 a serving-layer failure
    (``repro serve`` could not bind, or its drain deadline expired
    with requests still in flight); 130/143 a ``coordinate``/``work``
    process interrupted by SIGINT/SIGTERM after a graceful drain
    (128 + signal number, the shell convention).

    The cache flags configure this command only: the process-wide cache
    settings are restored when it returns or raises.
    """
    args = _build_parser().parse_args(argv)
    with restored_cache_settings():
        return _run_command(args, argv)


def _run_command(args: argparse.Namespace, argv: Optional[List[str]]) -> int:
    """:func:`main` after parsing, inside its cache-settings scope."""
    if args.no_cache:
        configure_cache(enabled=False)
    if args.cache_dir is not None:
        configure_cache(directory=args.cache_dir)
    context = new_run_context(
        command=args.command,
        argv=list(sys.argv[1:] if argv is None else argv),
    )
    set_current_run(context)
    telemetry = next(c for c in _COMMANDS if c.name == args.command).telemetry
    dashboard_on = args.dashboard and telemetry
    record_on = args.record_run and telemetry
    profiled = bool(
        args.profile
        or args.metrics_out
        or args.trace_out
        or dashboard_on
        or record_on
    )
    if not profiled:
        return _dispatch_mapped(args)
    store = RunStore(args.runs_dir) if record_on else None
    snapshots: List[dict] = []

    def keep_snapshot(event: dict) -> None:
        # only the metrics events feed the trace's counter tracks; a
        # long-lived server must not hold every request event
        if event["type"] == "metrics":
            snapshots.append(event)

    subscribers: List = [keep_snapshot]
    if dashboard_on:
        subscribers.append(Dashboard(stream=sys.stderr))
    with use_instrumentation() as instr:
        # one bus per profiled run: the store's log when recorded, the
        # --metrics-out file otherwise, else in memory only
        bus = EventBus(
            path=(
                store.events_path(context)
                if store is not None
                else args.metrics_out
            ),
            context=context,
            subscribers=subscribers,
            metrics=instr.metrics,
        )
        instr.events = bus
        code: Optional[int] = None
        try:
            with instr.span(f"repro.{args.command}"):
                code = _dispatch_mapped(args)
        finally:
            # Seal the log even on an unexpected exception; a null
            # exit_code in run_end marks the run as aborted.
            instr.events = None
            bus.emit("spans", spans=instr.tracer.to_json())
            bus.close(exit_code=code)
    if store is not None and args.metrics_out is not None:
        args.metrics_out.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(bus.path, args.metrics_out)
    _emit_instrumentation(
        instr, args, counter_samples=counter_samples_from_events(snapshots)
    )
    if store is not None:
        print(f"run recorded: {bus.path.parent}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
