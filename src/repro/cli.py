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

Every subcommand additionally accepts the instrumentation flags
``--profile`` (print a metrics/span report to stderr after the run),
``--metrics-out PATH`` (write the metrics snapshot as JSONL) and
``--trace-out PATH`` (write a Chrome/Perfetto-loadable trace).  The
flags only observe: simulated results are bit-identical with and
without them (see :mod:`repro.observability`).

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
import sys
from fractions import Fraction
from pathlib import Path
from typing import List, Optional

from repro.cache import bypass_cache, configure_cache
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
from repro.observability.reporting import (
    render_report,
    write_chrome_trace,
    write_metrics_jsonl,
)
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
#: reproduction mismatch, 2 = argparse usage error).
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


def _observability_parent() -> argparse.ArgumentParser:
    """The shared instrumentation and caching flag groups.

    Built as an ``add_help=False`` parent so every subcommand gains the
    same flags without each declaration being repeated.
    """
    parent = argparse.ArgumentParser(add_help=False)
    cache_group = parent.add_argument_group("caching")
    cache_group.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "persist memoized exact-kernel results to DIR (atomic, "
            "checksummed, invalidated automatically when a formula "
            "changes); also honours the REPRO_CACHE_DIR environment "
            "variable"
        ),
    )
    cache_group.add_argument(
        "--no-cache",
        action="store_true",
        help=(
            "disable all memoization for this run (every kernel value "
            "is recomputed from scratch); also honours REPRO_NO_CACHE"
        ),
    )
    group = parent.add_argument_group("instrumentation")
    group.add_argument(
        "--profile",
        action="store_true",
        help="collect metrics and spans; print a report to stderr",
    )
    group.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the metrics snapshot as JSONL (implies --profile)",
    )
    group.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "write spans in Chrome trace-event JSON, loadable in "
            "chrome://tracing or Perfetto (implies --profile)"
        ),
    )
    telemetry = parent.add_argument_group("telemetry")
    telemetry.add_argument(
        "--dashboard",
        action="store_true",
        help=(
            "show a live progress panel on stderr (redrawn in place on "
            "a TTY, plain log lines otherwise); purely observational -- "
            "results are bit-identical with it on or off"
        ),
    )
    telemetry.add_argument(
        "--record-run",
        action="store_true",
        help=(
            "stream this run's telemetry events to the run-history "
            "store and finalise a summary (inspect with "
            "'repro runs list|show|compare')"
        ),
    )
    telemetry.add_argument(
        "--runs-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "root of the run-history store (default .repro/runs; also "
            "honours the REPRO_RUNS_DIR environment variable)"
        ),
    )
    return parent


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
    obs = _observability_parent()

    fig1 = sub.add_parser(
        "figure1",
        help="winning probability curves, fixed delta",
        parents=[obs],
    )
    fig1.add_argument(
        "--delta", type=_parse_fraction, default=Fraction(1)
    )
    fig1.add_argument(
        "--ns", type=int, nargs="+", default=[3, 4, 5]
    )

    fig2 = sub.add_parser(
        "figure2",
        help="winning probability curves, scaled delta = n/3",
        parents=[obs],
    )
    fig2.add_argument(
        "--ns", type=int, nargs="+", default=[3, 4, 5]
    )

    case = sub.add_parser(
        "case",
        help="a Section 5.2 worked optimisation",
        parents=[obs],
    )
    case.add_argument("--n", type=int, required=True)
    case.add_argument("--delta", type=_parse_fraction, required=True)

    uni = sub.add_parser(
        "uniformity",
        help="oblivious vs threshold optima across n",
        parents=[obs],
    )
    uni.add_argument(
        "--ns", type=int, nargs="+", default=[2, 3, 4, 5, 6, 7, 8]
    )
    uni.add_argument(
        "--delta", type=_parse_fraction, default=Fraction(1)
    )
    uni.add_argument(
        "--scaled",
        action="store_true",
        help="use delta = n/3 instead of a fixed delta",
    )

    trade = sub.add_parser(
        "tradeoff",
        help="fair coin vs threshold vs centralized",
        parents=[obs],
    )
    trade.add_argument(
        "--ns", type=int, nargs="+", default=[2, 3, 4, 5, 6]
    )
    trade.add_argument(
        "--delta", type=_parse_fraction, default=Fraction(1)
    )
    trade.add_argument("--trials", type=int, default=100_000)
    trade.add_argument("--seed", type=int, default=0)

    everything = sub.add_parser(
        "all",
        help="run every headline check and print the reproduction report",
        parents=[obs],
    )
    everything.add_argument(
        "--exact-only",
        action="store_true",
        help="skip the Monte Carlo checks (seconds instead of minutes)",
    )
    everything.add_argument("--trials", type=int, default=60_000)

    mixture = sub.add_parser(
        "mixture",
        help="the oblivious/non-oblivious continuum (extension E8)",
        parents=[obs],
    )
    mixture.add_argument("--n", type=int, required=True)
    mixture.add_argument("--delta", type=_parse_fraction, required=True)

    export = sub.add_parser(
        "export",
        help="write all experiment records as CSV + manifest.json",
        parents=[obs],
    )
    export.add_argument("--out", default="results")
    export.add_argument("--grid-size", type=int, default=101)

    val = sub.add_parser(
        "validate",
        help="Monte Carlo validation of the exact threshold curve",
        parents=[obs],
    )
    val.add_argument("--n", type=int, default=3)
    val.add_argument("--delta", type=_parse_fraction, default=Fraction(1))
    val.add_argument("--grid-size", type=int, default=11)
    val.add_argument("--trials", type=int, default=100_000)
    val.add_argument("--seed", type=int, default=0)
    val.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "shard each grid point across this many worker processes "
            "(results are identical for any worker count)"
        ),
    )
    fault = val.add_argument_group("fault tolerance")
    fault.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="K",
        help=(
            "re-run a failed shard up to K times with exponential "
            "backoff; a retried shard replays its own seed stream, so "
            "results are identical to a failure-free run"
        ),
    )
    fault.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "wall-clock limit per shard attempt; a timed-out shard "
            "counts against its retry budget"
        ),
    )
    fault.add_argument(
        "--checkpoint",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "stream completed shards to a JSONL checkpoint file "
            "(atomic appends, per-record checksums)"
        ),
    )
    fault.add_argument(
        "--resume",
        action="store_true",
        help=(
            "load matching shards from --checkpoint before running; "
            "only missing or corrupt shards are re-executed"
        ),
    )
    fault.add_argument(
        "--chaos-crash",
        type=int,
        default=None,
        metavar="SHARD",
        help=(
            "chaos mode: deterministically crash the first attempt of "
            "shard SHARD in every grid point (use with --max-retries "
            ">= 1 to exercise recovery; the output must be identical "
            "to a clean run)"
        ),
    )

    swp = sub.add_parser(
        "sweep",
        help="evaluate the threshold curve on a beta grid (exact or batched)",
        parents=[obs],
    )
    swp.add_argument("--n", type=int, default=3)
    swp.add_argument("--delta", type=_parse_fraction, default=Fraction(1))
    swp.add_argument(
        "--grid-size",
        type=int,
        default=1001,
        help="number of evenly spaced beta points (default 1001)",
    )
    swp.add_argument(
        "--batch",
        action="store_true",
        help=(
            "serve the exact column from the vectorised batch layer: "
            "one compiled evaluation of the whole grid, every point "
            "certified or exact-fallback (see docs/architecture.md)"
        ),
    )

    check = sub.add_parser(
        "check",
        help="cross-validate analytic formulas, MC and bounds",
        parents=[obs],
    )
    check.add_argument(
        "--ns", type=int, nargs="+", default=[2, 3, 4]
    )
    check.add_argument(
        "--deltas",
        type=_parse_fraction,
        nargs="+",
        default=[Fraction(1)],
    )
    check.add_argument(
        "--algorithms",
        nargs="+",
        default=["oblivious", "threshold"],
        choices=["oblivious", "threshold"],
    )
    check.add_argument("--trials", type=int, default=20_000)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument(
        "--workers",
        type=int,
        default=None,
        help="shard the Monte Carlo route across worker processes",
    )
    check.add_argument(
        "--z-threshold",
        type=float,
        default=3.89,
        help="maximum tolerated |z| of the MC estimate (default 3.89)",
    )
    check.add_argument(
        "--strict",
        action="store_true",
        help=(
            "run contracts in strict mode: the first violated "
            "invariant aborts with exit code 6 instead of only being "
            "counted"
        ),
    )
    check.add_argument(
        "--report-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the machine-readable agreement report as JSON",
    )
    check.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="K",
        help="retry budget per MC shard (implies sharded execution)",
    )
    check.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock limit per MC shard attempt",
    )
    check.add_argument(
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
    )
    check.add_argument(
        "--inject-analytic-error",
        type=float,
        default=0.0,
        metavar="EPS",
        help=(
            "add EPS to every analytic value before the MC comparison "
            "-- a deliberate bug injection proving the oracle can fail"
        ),
    )
    check.add_argument(
        "--asymptotic-grid",
        action="store_true",
        help=(
            "also force the asymptotic tier through the exact-vs-"
            "asymptotic crossover grid (n ~ 10-20): estimates must "
            "stay within their certified bounds of the exact values "
            "and within the MC z-gate; failure exits with code 6"
        ),
    )
    check.add_argument(
        "--asymptotic-ns",
        type=int,
        nargs="+",
        default=[10, 12, 14, 16, 18, 20],
        metavar="N",
        help="crossover sizes for --asymptotic-grid",
    )
    check.add_argument(
        "--inject-asymptotic-error",
        type=float,
        default=0.0,
        metavar="EPS",
        help=(
            "add EPS to every asymptotic estimate in the "
            "--asymptotic-grid comparison -- the deliberate bug "
            "injection proving that gate can fail"
        ),
    )

    asym = sub.add_parser(
        "asymptotic",
        help=(
            "large-n winning probability and near-optimal threshold "
            "via the certified asymptotic tier"
        ),
        parents=[obs],
    )
    asym.add_argument("--n", type=int, required=True)
    asym.add_argument("--delta", type=_parse_fraction, required=True)
    asym.add_argument(
        "--beta",
        type=_parse_fraction,
        default=None,
        help=(
            "evaluate this common threshold (omit to search for a "
            "near-optimal one)"
        ),
    )
    asym.add_argument(
        "--alpha",
        type=_parse_fraction,
        default=None,
        help="evaluate the symmetric oblivious coin with this alpha",
    )
    asym.add_argument(
        "--method",
        choices=["normal", "edgeworth"],
        default="edgeworth",
        help="asymptotic estimator (default edgeworth)",
    )
    asym.add_argument(
        "--json",
        action="store_true",
        help="emit the result as one JSON object",
    )

    cache = sub.add_parser(
        "cache",
        help="inspect, clear or warm the exact-kernel memoization cache",
        parents=[obs],
    )
    cache.add_argument(
        "action",
        choices=["stats", "clear", "warm", "prune"],
        help=(
            "stats: print tier statistics as JSON; clear: drop every "
            "entry; warm: precompute the standard sweep grids into the "
            "persistent tier (requires --cache-dir or REPRO_CACHE_DIR); "
            "prune: evict oldest entries until the tier fits "
            "--max-bytes"
        ),
    )
    cache.add_argument(
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
    )
    cache.add_argument(
        "--ns", type=int, nargs="+", default=[2, 3, 4, 5]
    )
    cache.add_argument(
        "--deltas",
        type=_parse_fraction,
        nargs="+",
        default=[Fraction(1)],
    )
    cache.add_argument(
        "--grid-size",
        type=int,
        default=101,
        help="beta grid resolution used by warm (default 101)",
    )

    runs = sub.add_parser(
        "runs",
        help="inspect the run-history store written by --record-run",
        parents=[obs],
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_sub.add_parser(
        "list", help="one line per recorded run, oldest first"
    )
    runs_show = runs_sub.add_parser(
        "show", help="identity, timing and counters of one run"
    )
    runs_show.add_argument(
        "run",
        nargs="?",
        default="latest",
        help="run id prefix, directory-name prefix, or 'latest'",
    )
    runs_cmp = runs_sub.add_parser(
        "compare", help="counter-by-counter diff of two recorded runs"
    )
    runs_cmp.add_argument("left", help="baseline run reference")
    runs_cmp.add_argument(
        "right",
        nargs="?",
        default="latest",
        help="candidate run reference (default: latest)",
    )
    runs_cmp.add_argument(
        "--changed-only",
        action="store_true",
        help="hide counters with a zero delta",
    )
    runs_prune = runs_sub.add_parser(
        "prune", help="delete the oldest recorded runs"
    )
    runs_prune.add_argument(
        "--keep",
        type=int,
        required=True,
        metavar="N",
        help="number of most recent runs to keep",
    )

    report = sub.add_parser(
        "report",
        help="render a recorded run as a self-contained HTML report",
        parents=[obs],
    )
    report.add_argument(
        "run",
        nargs="?",
        default="latest",
        help="run id prefix or 'latest'",
    )
    report.add_argument(
        "--html",
        type=Path,
        required=True,
        metavar="PATH",
        help=(
            "write the report here (single file, inline CSS and SVG, "
            "no external references)"
        ),
    )
    report.add_argument(
        "--bench-root",
        type=Path,
        default=Path("."),
        metavar="DIR",
        help=(
            "directory holding the BENCH_*.json lineage rendered as "
            "sparklines (default: current directory)"
        ),
    )

    bench = sub.add_parser(
        "bench",
        help="perf-regression gate over committed BENCH_*.json artifacts",
        parents=[obs],
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_cmp = bench_sub.add_parser(
        "compare",
        help=(
            "gate CANDIDATE against BASELINE (or BASELINE against its "
            "own committed floor); exits 7 on regression"
        ),
    )
    bench_cmp.add_argument(
        "baseline", type=Path, help="baseline BENCH_*.json artifact"
    )
    bench_cmp.add_argument(
        "candidate",
        type=Path,
        nargs="?",
        default=None,
        help=(
            "candidate artifact to gate (default: re-check the "
            "baseline's own floor)"
        ),
    )
    bench_cmp.add_argument(
        "--min-ratio",
        type=float,
        default=0.5,
        metavar="R",
        help=(
            "minimum fraction of every baseline speedup the candidate "
            "must retain (default 0.5)"
        ),
    )
    bench_cmp.add_argument(
        "--max-ratio",
        type=float,
        default=2.0,
        metavar="R",
        help=(
            "maximum multiple of every baseline *_seconds (and the "
            "fallback-rate ceiling) the candidate may reach "
            "(default 2.0)"
        ),
    )

    serve = sub.add_parser(
        "serve",
        help=(
            "answer winning-probability / optimal-strategy queries over "
            "HTTP with admission control, deadline budgets and graceful "
            "degradation"
        ),
        parents=[obs],
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8080,
        help="TCP port to listen on (0: pick a free port; default 8080)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        metavar="K",
        help="requests executing concurrently (default 8)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        metavar="K",
        help=(
            "requests allowed to wait for a slot; arrivals beyond it "
            "are shed with 429 (default 16)"
        ),
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=250.0,
        metavar="MS",
        help=(
            "per-request budget propagated into the kernel tiers; the "
            "exact fallback only runs while budget remains (default 250)"
        ),
    )
    serve.add_argument(
        "--drain-seconds",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help=(
            "on SIGTERM/SIGINT, how long in-flight requests may finish "
            "before stragglers are aborted (default 5)"
        ),
    )
    serve.add_argument(
        "--warm",
        action="append",
        default=[],
        metavar="N:DELTA",
        help=(
            "warm this (n, delta) pair's tables and optimum before "
            "/readyz flips (repeatable; default 2:1/2 3:1/2 4:1/2)"
        ),
    )
    serve.add_argument(
        "--no-warm-optima",
        action="store_true",
        help="warm compiled curves only, skip pre-solving exact optima",
    )
    serve.add_argument(
        "--max-n",
        type=int,
        default=32,
        help="largest n this server will answer for (default 32)",
    )
    serve.add_argument(
        "--breaker-failures",
        type=int,
        default=3,
        metavar="K",
        help=(
            "consecutive slow/failed exact fallbacks that trip the "
            "circuit breaker open (default 3)"
        ),
    )
    serve.add_argument(
        "--breaker-cooldown",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="open-state cooldown before a half-open probe (default 5)",
    )
    serve.add_argument(
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
    )

    coord = sub.add_parser(
        "coordinate",
        help=(
            "serve shard leases to `repro work` processes over TCP; "
            "bit-identical to serial under any fault"
        ),
        parents=[obs],
    )
    coord.add_argument("--n", type=int, default=3)
    coord.add_argument("--delta", type=_parse_fraction, default=Fraction(1))
    coord.add_argument(
        "--beta",
        type=_parse_fraction,
        default=Fraction(3, 5),
        help="the symmetric threshold every player uses (default 3/5)",
    )
    coord.add_argument("--trials", type=int, default=100_000)
    coord.add_argument("--seed", type=int, default=0)
    coord.add_argument("--shards", type=int, default=None)
    coord.add_argument("--host", default="127.0.0.1")
    coord.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port to listen on (default 0: pick a free port)",
    )
    coord.add_argument(
        "--lease-seconds",
        type=float,
        default=30.0,
        help=(
            "how long a granted shard may stay unreported before it "
            "is reassigned (default 30)"
        ),
    )
    coord.add_argument(
        "--wait-for-workers",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help=(
            "how long to wait for a first worker before degrading to "
            "local execution (default 10)"
        ),
    )
    coord.add_argument(
        "--idle-grace",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help=(
            "how long to wait after the last worker disconnects "
            "before finishing locally (default 2)"
        ),
    )
    coord.add_argument(
        "--max-phase-seconds",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "hard budget for the distributed phase; on expiry the "
            "remaining shards run locally (default: unbounded)"
        ),
    )
    coord.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="K",
        help=(
            "retry budget for the local-salvage path (default 2)"
        ),
    )
    coord.add_argument(
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
    )
    coord.add_argument(
        "--checkpoint",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "stream completed shards to a JSONL checkpoint file; "
            "finalized even when the run is interrupted by "
            "SIGTERM/SIGINT, so --resume continues where the signal "
            "landed"
        ),
    )
    coord.add_argument(
        "--resume",
        action="store_true",
        help=(
            "load matching shards from --checkpoint before serving "
            "leases; only missing shards are granted"
        ),
    )
    coord.add_argument(
        "--distributed-smoke",
        type=int,
        default=None,
        metavar="W",
        help=(
            "self-test: spawn W local `repro work` subprocesses, run "
            "the estimate through them, then verify the result is "
            "bit-identical to the serial engine (exit 1 on mismatch)"
        ),
    )

    work = sub.add_parser(
        "work",
        help="serve one coordinator as a lease-holding worker",
        parents=[obs],
    )
    work.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="the coordinator's address (from `repro coordinate`)",
    )
    work.add_argument(
        "--worker-id",
        default=None,
        help="identity shown in coordinator telemetry (default: pid)",
    )
    work.add_argument(
        "--connect-retries",
        type=int,
        default=40,
        metavar="K",
        help=(
            "connection attempts before giving up (jittered backoff "
            "between attempts; default 40)"
        ),
    )
    work.add_argument(
        "--frame-timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="per-frame read/write timeout (default 60)",
    )

    return parser


def _fault_tolerance_config(
    args: argparse.Namespace,
) -> Optional[FaultToleranceConfig]:
    """The ``FaultToleranceConfig`` implied by the validate flags
    (``None`` when no fault-tolerance flag was given, keeping the
    historical serial/sharded dispatch untouched)."""
    if (
        args.max_retries is None
        and args.shard_timeout is None
        and args.checkpoint is None
        and not args.resume
        and args.chaos_crash is None
    ):
        return None
    fault_plan = None
    if args.chaos_crash is not None:
        fault_plan = FaultPlan.single("crash", shard=args.chaos_crash)
    return FaultToleranceConfig(
        retry=RetryPolicy(
            max_retries=0 if args.max_retries is None else args.max_retries,
            shard_timeout=args.shard_timeout,
        ),
        fault_plan=fault_plan,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
    )


def _dispatch(args: argparse.Namespace) -> int:
    """Run one subcommand; returns its exit code.

    Pure command logic: instrumentation setup/teardown lives in
    :func:`main` so every command is profiled the same way.
    """
    if args.command == "figure1":
        series = figure1(ns=args.ns, delta=args.delta)
        print(
            render_figure(
                series,
                title=f"Figure 1: P(beta), delta = {args.delta}",
            )
        )
    elif args.command == "figure2":
        series = figure2(ns=args.ns)
        print(render_figure(series, title="Figure 2: P(beta), delta = n/3"))
    elif args.command == "case":
        print(render_case_study(case_study(args.n, args.delta)))
    elif args.command == "uniformity":
        delta_of_n = (
            (lambda n: Fraction(n, 3)) if args.scaled
            else (lambda n: args.delta)
        )
        print(
            render_uniformity_table(
                uniformity_table(ns=args.ns, delta_of_n=delta_of_n)
            )
        )
    elif args.command == "tradeoff":
        rows = tradeoff_table(
            ns=args.ns,
            delta_of_n=lambda n: args.delta,
            trials=args.trials,
            seed=args.seed,
        )
        print(render_tradeoff_table(rows))
    elif args.command == "all":
        from repro.experiments.summary import reproduce_all

        report = reproduce_all(
            monte_carlo_trials=None if args.exact_only else args.trials
        )
        print(report.render())
        if not report.passed:
            return 1
    elif args.command == "mixture":
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
    elif args.command == "export":
        from repro.experiments.export import export_all

        manifest = export_all(args.out, grid_size=args.grid_size)
        print(f"wrote {', '.join(manifest['files'].values())} and "
              f"manifest.json to {args.out}/")
    elif args.command == "validate":
        if args.resume and args.checkpoint is None:
            print(
                "repro validate: --resume requires --checkpoint PATH",
                file=sys.stderr,
            )
            return 2
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
    elif args.command == "sweep":
        return _run_sweep(args)
    elif args.command == "check":
        return _run_check(args)
    elif args.command == "asymptotic":
        return _run_asymptotic(args)
    elif args.command == "cache":
        return _run_cache(args)
    elif args.command == "runs":
        return _run_runs(args)
    elif args.command == "report":
        return _run_report(args)
    elif args.command == "bench":
        return _run_bench(args)
    elif args.command == "serve":
        return _run_serve(args)
    elif args.command == "coordinate":
        return _run_coordinate(args)
    elif args.command == "work":
        return _run_work(args)
    return 0


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


def _run_cache(args: argparse.Namespace) -> int:
    """``repro cache stats|clear|warm|prune``."""
    import json

    from repro.cache import cache_stats, clear_cache, configure_cache

    if args.max_bytes is not None:
        configure_cache(max_bytes=args.max_bytes)
    if args.action == "prune":
        if args.max_bytes is None:
            print(
                "repro cache prune: --max-bytes BYTES is required",
                file=sys.stderr,
            )
            return 2
        stats = cache_stats()
        if stats["disk"] is None:
            print(
                "repro cache prune: no persistent tier configured "
                "(pass --cache-dir DIR or set REPRO_CACHE_DIR)",
                file=sys.stderr,
            )
            return 2
        from repro.cache import prune_disk_cache

        evicted = prune_disk_cache(args.max_bytes)
        after = cache_stats()["disk"]
        print(
            f"evicted {evicted} entr(ies); persistent tier now holds "
            f"{after['entries']} entries / {after['total_bytes']} bytes "
            f"in {after['directory']}"
        )
        return 0
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
    # warm: precompute the standard sweep grids so later runs start hot.
    stats = cache_stats()
    if stats["disk"] is None:
        print(
            "repro cache warm: no persistent tier configured "
            "(pass --cache-dir DIR or set REPRO_CACHE_DIR)",
            file=sys.stderr,
        )
        return 2
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
        print("choose --alpha or --beta, not both", file=sys.stderr)
        return 2
    policy = RegimePolicy(method=args.method)
    start = time.perf_counter()
    payload: dict
    if args.alpha is not None:
        result = symmetric_oblivious_winning_regime(
            args.alpha, args.n, args.delta, policy
        )
        payload = {
            "family": "oblivious",
            "n": args.n,
            "delta": str(args.delta),
            "alpha": str(args.alpha),
            **result.fields(),
        }
    elif args.beta is not None:
        result = symmetric_threshold_winning_regime(
            args.beta, args.n, args.delta, policy
        )
        payload = {
            "family": "threshold",
            "n": args.n,
            "delta": str(args.delta),
            "beta": str(args.beta),
            **result.fields(),
        }
    else:
        optimum = near_optimal_symmetric_threshold(
            args.n, args.delta, policy
        )
        payload = {
            "family": "threshold-optimum",
            "n": args.n,
            "delta": str(args.delta),
            "beta": optimum.beta,
            **optimum.probability.fields(
                gap_bound=optimum.gap_bound,
                evaluations=optimum.evaluations,
            ),
        }
    payload["elapsed_seconds"] = time.perf_counter() - start
    if args.json:
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return 0


def _run_check(args: argparse.Namespace) -> int:
    """``repro check``: run the cross-validation oracle and report."""
    from repro.validation import default_case_grid, run_cross_validation
    from repro.validation.contracts import use_contracts

    fault_tolerance = None
    if args.max_retries is not None or args.shard_timeout is not None:
        fault_tolerance = FaultToleranceConfig(
            retry=RetryPolicy(
                max_retries=(
                    0 if args.max_retries is None else args.max_retries
                ),
                shard_timeout=args.shard_timeout,
            )
        )
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


def _run_runs(args: argparse.Namespace) -> int:
    """``repro runs list|show|compare|prune``."""
    store = RunStore(args.runs_dir)
    try:
        if args.runs_command == "list":
            runs = store.list_runs()
            if not runs:
                print(
                    f"no recorded runs under {store.root} "
                    "(record one with --record-run)"
                )
                return 0
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
        elif args.runs_command == "show":
            print(render_run(store.find(args.run)))
        elif args.runs_command == "compare":
            print(
                render_comparison(
                    store.find(args.left),
                    store.find(args.right),
                    changed_only=args.changed_only,
                )
            )
        elif args.runs_command == "prune":
            removed = store.prune(keep=args.keep)
            print(
                f"pruned {removed} run(s); {len(store.list_runs())} kept"
            )
    except RunStoreError as exc:
        print(f"repro runs: {exc}", file=sys.stderr)
        return 2
    return 0


def _run_report(args: argparse.Namespace) -> int:
    """``repro report --html``: the self-contained HTML run report."""
    from repro.observability.htmlreport import (
        load_bench_history,
        write_html_report,
    )

    store = RunStore(args.runs_dir)
    try:
        run = store.find(args.run)
    except RunStoreError as exc:
        print(f"repro report: {exc}", file=sys.stderr)
        return 2
    target = write_html_report(
        args.html,
        run,
        bench_history=load_bench_history(args.bench_root),
    )
    print(f"report written to {target}")
    return 0


def _run_bench(args: argparse.Namespace) -> int:
    """``repro bench compare``: the perf-regression gate."""
    import json

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
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"repro bench compare: {exc}", file=sys.stderr)
        return 2
    print(render_bench_comparison(comparison))
    return 0 if comparison.passed else EXIT_PERF_REGRESSION


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
            print(
                f"repro serve: --warm must be N:DELTA, got {spec!r}",
                file=sys.stderr,
            )
            return 2
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


def _run_coordinate(args: argparse.Namespace) -> int:
    """``repro coordinate``: one estimate served over shard leases."""
    import subprocess

    from repro.distributed import (
        DistributedConfig,
        estimate_winning_probability_distributed,
    )
    from repro.distributed.chaos import parse_chaos_specs
    from repro.model.algorithms import SingleThresholdRule
    from repro.model.system import DistributedSystem
    from repro.simulation.parallel import (
        estimate_winning_probability_sharded,
    )
    from repro.simulation.rng import SeedSequenceFactory

    smoke = args.distributed_smoke
    if smoke is not None and smoke < 1:
        print(
            "repro coordinate: --distributed-smoke needs >= 1 worker",
            file=sys.stderr,
        )
        return 2
    if args.resume and args.checkpoint is None:
        print(
            "repro coordinate: --resume requires --checkpoint PATH",
            file=sys.stderr,
        )
        return 2
    system = DistributedSystem(
        [SingleThresholdRule(args.beta)] * args.n, args.delta
    )
    fault_tolerance = FaultToleranceConfig(
        retry=RetryPolicy(max_retries=args.max_retries),
        fault_plan=parse_chaos_specs(args.chaos),
        checkpoint_path=args.checkpoint,
        resume=args.resume,
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
        print(
            f"repro work: --connect must be HOST:PORT, got "
            f"{args.connect!r}",
            file=sys.stderr,
        )
        return 2
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


def _emit_instrumentation(
    instr: Instrumentation,
    args: argparse.Namespace,
    counter_samples: Optional[List[dict]] = None,
) -> None:
    """Write the requested observability artefacts after a profiled run.

    The report goes to stderr so stdout stays exactly the command's
    artefact (tables/CSV announcements), pipeable as before.
    *counter_samples* (from the run's event stream, when one was
    active) add throughput/cache/batch counter tracks to the trace.
    """
    if args.profile:
        print(
            render_report(instr, title=f"repro {args.command}"),
            file=sys.stderr,
        )
    if args.metrics_out is not None:
        write_metrics_jsonl(
            args.metrics_out,
            instr.metrics.snapshot(),
            label=f"repro {args.command}",
        )
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    if args.trace_out is not None:
        write_chrome_trace(
            args.trace_out, instr.tracer, counter_samples=counter_samples
        )
        print(f"trace written to {args.trace_out}", file=sys.stderr)


def _dispatch_mapped(args: argparse.Namespace) -> int:
    """Run :func:`_dispatch`, mapping predictable fault-tolerance
    failures to distinct exit codes with a one-line message -- an
    operator resuming an overnight run should see *which* kind of
    failure occurred, not a traceback."""
    try:
        return _dispatch(args)
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
    except ValidationError as exc:
        print(f"repro: invalid request: {exc}", file=sys.stderr)
        return 2


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
    """
    args = _build_parser().parse_args(argv)
    if args.no_cache:
        configure_cache(enabled=False)
    if args.cache_dir is not None:
        configure_cache(directory=args.cache_dir)
    context = new_run_context(
        command=args.command,
        argv=list(sys.argv[1:] if argv is None else argv),
    )
    set_current_run(context)
    # The store-introspection commands read telemetry; they never
    # produce it (recording a run of `repro runs list` would pollute
    # the very store it lists).
    introspection = args.command in ("runs", "report", "bench")
    dashboard_on = args.dashboard and not introspection
    record_on = args.record_run and not introspection
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
    collected: List[dict] = []
    subscribers: List = [collected.append]
    if dashboard_on:
        subscribers.append(Dashboard(stream=sys.stderr))
    with use_instrumentation() as instr:
        bus = None
        if dashboard_on or record_on:
            bus = EventBus(
                path=(
                    store.events_path(context)
                    if store is not None
                    else None
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
            if bus is not None:
                instr.events = None
                bus.close(exit_code=code)
    _emit_instrumentation(
        instr,
        args,
        counter_samples=(
            counter_samples_from_events(collected) if collected else None
        ),
    )
    if store is not None:
        artifacts = {}
        if args.metrics_out is not None:
            artifacts["metrics"] = str(args.metrics_out)
        if args.trace_out is not None:
            artifacts["trace"] = str(args.trace_out)
        if getattr(args, "checkpoint", None) is not None:
            artifacts["checkpoint"] = str(args.checkpoint)
        store.finalize(
            context, code, instr.metrics.snapshot(), artifacts
        )
        print(
            f"run recorded: {store.root / context.directory_name}",
            file=sys.stderr,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
