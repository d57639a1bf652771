"""The traced run: where the spans go in, and the per-layer table.

:func:`install` wraps the public functions each layer is entered
through, at the name its caller looks up; :func:`derive` turns the
recorded spans, the program's own counters (``/metrics``,
``cache_stats()``, an :class:`~repro.observability.Instrumentation`)
and the Monte Carlo ``shard_outcomes`` into the ``per_layer`` metrics
of ``BENCHMARK.json``.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List

import numpy as np

from phases import percentile
from spans import SpanRecorder

#: Bands of n for the asymptotic query latency.
N_BANDS = (("n_lt_1e3", 0, 1_000), ("n_1e3_1e5", 1_000, 100_000),
           ("n_ge_1e5", 100_000, float("inf")))


def _request_id(server, method, path, query_string, chaos=None):
    for part in query_string.split("&"):
        if part.startswith("rid="):
            return part[4:]
    return None


def _flush_meta(coalescer, key):
    bucket = coalescer._buckets.get(key)
    return {"key": key, "size": 0 if bucket is None else len(bucket.xs)}


def install(rec: SpanRecorder) -> None:
    import repro.batch.compile as compile_mod
    import repro.batch.tables as tables
    import repro.cache.disk as disk
    import repro.core.asymptotic as asymptotic
    import repro.distributed.coordinator as coordinator
    import repro.optimize.asymptotic_opt as asymptotic_opt
    import repro.optimize.threshold_opt as threshold_opt
    import repro.serve.admission as admission
    import repro.serve.handlers as handlers
    import repro.serve.server as server
    import repro.simulation.parallel as parallel
    import repro.symbolic.piecewise as piecewise

    n_meta = lambda x, n, *a, **k: {"n": n}  # noqa: E731
    rec.patch(server, "handle_request", "serve.handle_request",
              request_of=_request_id)
    rec.patch(admission.AdmissionController, "acquire", "serve.admission")
    rec.patch(handlers, "_compiled_curve_with_budget", "serve.curve_fetch")
    rec.patch(handlers.Coalescer, "evaluate", "serve.coalescer",
              meta_of=lambda self, key, compiled, x: {"key": key})
    rec.patch(handlers.Coalescer, "_flush", "serve.coalescer_flush",
              meta_of=_flush_meta)
    rec.patch(handlers, "exact_fallback_with_budget", "serve.offload")
    rec.patch(handlers, "_winning_probability_asymptotic",
              "serve.asymptotic_tier")
    rec.patch(compile_mod.CompiledPiecewise, "evaluate_with_bound",
              "batch.evaluate",
              meta_of=lambda self, xs: {"points": int(np.size(xs))})
    rec.patch(compile_mod.CompiledPiecewise, "__init__", "batch.compile")
    rec.patch(disk.DiskCache, "get", "cache.disk")
    rec.patch(disk.DiskCache, "put", "cache.disk")
    rec.patch(tables, "symmetric_threshold_winning_polynomial",
              "core.threshold_polynomial")
    rec.patch(threshold_opt, "symmetric_threshold_winning_polynomial",
              "core.threshold_polynomial")
    rec.patch(tables, "symmetric_oblivious_polynomial",
              "core.oblivious_polynomial")
    rec.patch(threshold_opt, "optimal_symmetric_threshold",
              "optimize.threshold")
    rec.patch(piecewise, "real_roots", "symbolic.root_isolation")
    rec.patch(asymptotic, "symmetric_threshold_winning_regime",
              "core.asymptotic_query", meta_of=n_meta)
    rec.patch(asymptotic, "symmetric_oblivious_winning_regime",
              "core.asymptotic_query", meta_of=n_meta)
    rec.patch(asymptotic_opt, "near_optimal_symmetric_threshold",
              "optimize.near_optimal")
    rec.patch(parallel, "estimate_winning_probability_sharded",
              "simulation.sharded_estimate")
    rec.patch(coordinator, "estimate_winning_probability_distributed",
              "distributed.estimate")


def _ms(seconds: List[float], q: float) -> float:
    return percentile(seconds, q) * 1000.0 if seconds else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _coalescer_waits(rec: SpanRecorder) -> List[float]:
    """Per request: time in ``Coalescer.evaluate`` minus the kernel
    call of the batch that answered it."""
    flushes: Dict[Any, List] = {}
    for f in rec.named("serve.coalescer_flush"):
        flushes.setdefault(repr(f.meta["key"]), []).append(f)
    waits = []
    for c in rec.named("serve.coalescer"):
        batch = [f for f in flushes.get(repr(c.meta["key"]), ())
                 if c.start <= f.end <= c.end]
        kernel = max(batch, key=lambda f: f.end).seconds if batch else 0.0
        waits.append(c.seconds - kernel)
    return waits


def _serve(rec: SpanRecorder, raw: Dict[str, Any]) -> Dict[str, float]:
    children = rec.children_index()
    handled = [s for s in rec.named("serve.handle_request") if s.request]
    client = raw["client"]
    transport = [client[s.request][1] - client[s.request][0] - s.seconds
                 for s in handled if s.request in client]
    flushes = [f.meta["size"] for f in rec.named("serve.coalescer_flush")
               if f.meta["size"]]
    counters = raw["counters"]
    tiers = {t: counters.get(f"serve.tier_{t}", 0.0)
             for t in ("certified", "exact", "degraded", "asymptotic")}
    accepted = counters.get("serve.accepted", 0.0)
    shed = counters.get("serve.shed", 0.0)
    metrics = {
        "serve.latency_p99_ms": raw["latency_p99_ms"],
        "serve.transport_ms.p50": _ms(transport, 0.5),
        "serve.handle_request_ms.p50": _ms([s.seconds for s in handled], 0.5),
        "serve.handle_request_ms.p99": _ms([s.seconds for s in handled], 0.99),
        "serve.handle_request_self_ms.p50": _ms(
            [rec.self_seconds(s, children) for s in handled], 0.5),
        "serve.admission_wait_ms.p99": _ms(
            [s.seconds for s in rec.named("serve.admission")], 0.99),
        "serve.coalescer_wait_ms.p50": _ms(_coalescer_waits(rec), 0.5),
        "serve.points_per_batch": (statistics.fmean(flushes)
                                   if flushes else 0.0),
        "serve.curve_fetch_ms.p50": _ms(
            [s.seconds for s in rec.named("serve.curve_fetch")], 0.5),
        "serve.uncertified_ratio": _ratio(raw["uncertified"], raw["answered"]),
        "serve.shed_ratio": _ratio(shed, accepted + shed),
        "serve.breaker_opened": counters.get("serve.breaker_opened", 0.0),
        "serve.generator_late_ms.p99": percentile(raw["late_ms"], 0.99),
    }
    for tier, count in tiers.items():
        metrics[f"serve.tier_share.{tier}"] = _ratio(count, sum(tiers.values()))
    return metrics


def _library(rec: SpanRecorder, raw: Dict[str, Any],
              counters: Dict[str, int]) -> Dict[str, float]:
    def total(name: str) -> float:
        return sum(s.seconds for s in rec.named(name))

    evaluates = rec.named("batch.evaluate")
    points = sum(s.meta["points"] for s in evaluates)
    memory, disk = raw["memory"], raw["disk"]
    metrics = {
        "batch.evaluate_us_per_point": _ratio(
            sum(s.seconds for s in evaluates) * 1e6, points),
        "batch.evaluate_calls": float(len(evaluates)),
        "batch.fallback_ratio": _ratio(raw["fallbacks"], raw["points"]),
        "batch.compile_s": total("batch.compile"),
        "batch.tables_compiled": float(len(rec.named("batch.compile"))),
        "cache.memory_hit_ratio": _ratio(memory["hits"],
                                         memory["hits"] + memory["misses"]),
        "cache.disk_hit_ratio": _ratio(disk["hits"], disk["hits"] + disk["misses"]),
        "cache.disk_busy_s": total("cache.disk"),
        "cache.disk_bytes": float(raw["disk_bytes"]),
        "cache.evictions": float(memory["evictions"] + disk["evictions"]),
        "core.threshold_polynomial_s": total("core.threshold_polynomial"),
        "core.oblivious_polynomial_s": total("core.oblivious_polynomial"),
        "optimize.threshold_s": total("optimize.threshold"),
        "optimize.candidates_probed": float(
            len(rec.named("symbolic.root_isolation"))),
        "symbolic.root_isolation_s": total("symbolic.root_isolation"),
        "optimize.near_optimal_s": total("optimize.near_optimal"),
        "asymptotics.terms": float(counters.get("asymptotics.terms", 0)),
        "asymptotics.dispatch_calls": float(
            counters.get("asymptotics.dispatch.calls", 0)),
        "fastpath.fallback_ratio": _ratio(counters.get("fastpath.fallbacks", 0),
                                          counters.get("fastpath.calls", 0)),
    }
    queries = rec.named("core.asymptotic_query")
    for band, lo, hi in N_BANDS:
        metrics[f"core.asymptotic_query_ms.p50.{band}"] = _ms(
            [s.seconds for s in queries if lo <= s.meta["n"] < hi], 0.5)
    return metrics


def _overhead_ms(run, wall: float) -> float:
    """Processor time per shard not spent in the trial kernel."""
    busy = sum(o.elapsed_seconds or 0.0 for o in run.shard_outcomes)
    return (run.workers_used * wall - busy) / run.shards * 1000.0


def _mc(raw: Dict[str, Any], counters: Dict[str, int]) -> Dict[str, float]:
    runs, walls = raw["runs"], raw["walls"]
    local = [r for t in ("serial", "pool") for r in runs[t]]
    busy = sum(o.elapsed_seconds or 0.0 for r in local for o in r.shard_outcomes)
    trials = sum(o.trials for r in local for o in r.shard_outcomes)

    def overhead(transport: str) -> float:
        return statistics.median(_overhead_ms(r, w) for r, w in
                                 zip(runs[transport], walls[transport]))

    return {
        "simulation.shard_busy_s": busy,
        "simulation.kernel_trials_per_busy_s": _ratio(trials, busy),
        "simulation.pool_trials_per_s": raw["trials_per_s"]["pool"],
        "simulation.overhead_ms_per_shard.serial": overhead("serial"),
        "simulation.overhead_ms_per_shard.pool": overhead("pool"),
        "engine.shard_retries": float(counters.get("engine.shard_retries", 0)),
        "engine.pool_rebuilds": float(counters.get("engine.pool_rebuilds", 0)),
        "engine.shards_salvaged": float(counters.get("engine.shards_salvaged", 0)),
        "distributed.tcp_trials_per_s": raw["trials_per_s"]["tcp"],
        "distributed.overhead_ms_per_shard": overhead("tcp"),
        "distributed.workers_used": float(statistics.median(
            r.workers_used for r in runs["tcp"])),
    }


def derive(rec: SpanRecorder, results: Dict[str, Any],
           library_counters: Dict[str, int],
           mc_counters: Dict[str, int]) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    metrics.update(_serve(rec, results["serve"].raw))
    metrics.update(_library(rec, results["library"].raw, library_counters))
    metrics.update(_mc(results["mc"].raw, mc_counters))
    return metrics
