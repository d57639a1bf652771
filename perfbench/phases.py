"""The three measured phases: serve, library sweep, sharded Monte Carlo.

Each phase is a session that takes its part of a :class:`plan.Plan`,
does one slice of work per :meth:`round`, and at the end turns what it
timed into a :class:`PhaseResult`.  It drives the program through its
public API, times what a user would time, and checks every answer
against an independent route through the library.  Nothing here
patches the program; the traced run does that around these calls (see
:mod:`layers`).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import selectors
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

import plan as plan_mod

HERE = Path(__file__).resolve().parent


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


@dataclass
class PhaseResult:
    metrics: Dict[str, float]
    answers: str  # digest of every answer, to compare two passes
    raw: Dict[str, Any] = field(default_factory=dict)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# Set-up: a fresh interpreter, timed from spawn to its "ready" line
# ----------------------------------------------------------------------
def setup_seconds(phase: str, env: Dict[str, str], workdir: Path) -> float:
    cache_dir = workdir / f"setup-{phase}"
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), phase, str(cache_dir)],
        stdout=subprocess.PIPE, env=env, text=True,
    )
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
        shutil.rmtree(cache_dir, ignore_errors=True)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe {phase!r} failed (exit {code})")
    return elapsed


def fresh_cache(directory: Path) -> None:
    """Empty memory tier, new empty disk tier at *directory*."""
    import repro.cache as cache

    shutil.rmtree(directory, ignore_errors=True)
    cache.configure_cache(enabled=True, directory=directory)
    cache.clear_cache(include_disk=False)


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def _start_server(config):
    from repro.serve import ReproServer

    holder: Dict[str, Any] = {}
    started = threading.Event()

    async def main():
        server = ReproServer(config)
        await server.start()
        holder["server"] = server
        started.set()
        holder["report"] = await server.serve_until_stopped()

    def target():
        try:
            asyncio.run(main())
        except Exception as exc:  # surfaced by the caller below
            holder["error"] = exc
            started.set()

    thread = threading.Thread(target=target, name="repro-serve")
    thread.start()
    if not started.wait(timeout=60) or "error" in holder:
        thread.join(timeout=10)
        raise RuntimeError(f"server did not start: {holder.get('error')}")
    server = holder["server"]
    deadline = time.monotonic() + 60
    while not server.ready:
        if time.monotonic() > deadline:
            server.stop_threadsafe("not ready")
            thread.join(timeout=60)
            raise RuntimeError("server did not become ready")
        time.sleep(0.001)
    return server, thread


# The load generator: one thread (the caller's) running its own event
# loop over two keep-alive connections.  A select()-based loop, because
# epoll rounds timer waits up to whole milliseconds and the open loop
# sends on a sub-millisecond schedule.
def _drive(coro):
    loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()


class Record(NamedTuple):
    """One request as the load generator saw it."""

    path: str
    rid: str
    status: int
    body: bytes
    due: float
    sent: float
    done: float


class _Connection:
    """A minimal HTTP/1.1 keep-alive client for GET requests."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port: int) -> "_Connection":
        return cls(*await asyncio.open_connection("127.0.0.1", port))

    async def get(self, target: str) -> Tuple[int, bytes]:
        self.writer.write(
            f"GET {target} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n".encode())
        status = int((await self.reader.readline()).split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    async def send(self, path: str, rid: str, due: float) -> Record:
        sent = time.perf_counter()
        status, body = await self.get(f"{path}&rid={rid}")
        return Record(path, rid, status, body, due, sent, time.perf_counter())

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


async def _with_connections(port: int, count: int, work):
    conns = [await _Connection.open(port) for _ in range(count)]
    try:
        return await work(conns)
    finally:
        for conn in conns:
            await conn.close()


def _open_loop(port: int, paths, offsets, prefix: str) -> List[Record]:
    """Two connections sharing one schedule; each request is sent at its
    due time, or as soon as a connection frees up."""
    records: List[Optional[Record]] = [None] * len(paths)
    queue = iter(range(len(paths)))

    async def work(conns):
        t0 = time.perf_counter() + 0.05

        async def client(conn):
            for i in queue:
                due = t0 + offsets[i]
                wait = due - time.perf_counter()
                if wait > 0:
                    await asyncio.sleep(wait)
                records[i] = await conn.send(paths[i], f"{prefix}{i}", due)

        await asyncio.gather(*(client(c) for c in conns))

    _drive(_with_connections(port, 2, work))
    return records


def _closed_loop(port: int, bursts, prefix: str) -> Tuple[List[Record],
                                                         List[float]]:
    """Burst after burst over the same two connections, each burst with
    both connections back to back; returns the records and the requests
    per second of each burst."""
    async def work(conns):
        records, rates = [], []
        for b, lists in enumerate(bursts):
            async def client(k, conn):
                return [await conn.send(path, f"{prefix}{b}-{k}-{i}",
                                        time.perf_counter())
                        for i, path in enumerate(lists[k])]

            start = time.perf_counter()
            done = await asyncio.gather(*(client(k, c)
                                          for k, c in enumerate(conns)))
            wall = time.perf_counter() - start
            burst = [rec for recs in done for rec in recs]
            records += burst
            rates.append(len(burst) / wall)
        return records, rates

    return _drive(_with_connections(port, 2, work))


def _query(path: str) -> Dict[str, str]:
    from urllib.parse import parse_qs

    return {k: v[0] for k, v in parse_qs(path.split("?", 1)[1]).items()}


def check_serve_answers(records: List[Record], checks: Checks) -> List[tuple]:
    """Every answer against the library; returns the answers."""
    from repro.batch import tables
    from repro.core import asymptotic
    from repro.optimize import threshold_opt

    answers = []
    by_curve: Dict[tuple, List[int]] = {}
    payloads: List[Optional[dict]] = []
    paths = [r.path for r in records]
    for i, record in enumerate(records):
        path, status = record.path, record.status
        checks.check(status == 200, f"{path}: HTTP {status}")
        payload = json.loads(record.body) if status == 200 else None
        payloads.append(payload)
        answers.append((path, status, None if payload is None else
                        (payload.get("value", payload.get("beta_exact")),
                         payload.get("error_bound"), payload.get("tier"))))
        if payload is None:
            continue
        kind = plan_mod.endpoint_of(path)
        q = _query(path)
        if kind in ("threshold", "oblivious"):
            by_curve.setdefault((kind, int(q["n"]), Fraction(q["delta"])), []).append(i)
        elif kind == "optimal":
            opt = threshold_opt.optimal_symmetric_threshold(
                int(q["n"]), Fraction(q["delta"]))
            checks.check(
                payload.get("beta_exact") == str(opt.beta)
                and payload.get("probability_exact") == str(opt.probability),
                f"{path}: optimum differs from the library",
            )
        else:
            ref = asymptotic.symmetric_threshold_winning_regime(
                Fraction(float(q["beta"])).limit_denominator(10**9),
                int(q["n"]), Fraction(q["delta"]),
            )
            checks.check(
                payload["value"] == ref.value
                and payload["error_bound"] == ref.error_bound,
                f"{path}: asymptotic answer differs from the library",
            )
    for (kind, n, delta), indices in by_curve.items():
        compiled = (tables.compiled_threshold_curve(n, delta)
                    if kind == "threshold"
                    else tables.compiled_oblivious_curve(delta, n))
        point = "beta" if kind == "threshold" else "alpha"
        xs = np.array([float(_query(paths[i])[point]) for i in indices])
        values, bounds = compiled.evaluate_with_bound(xs)
        for j, i in enumerate(indices):
            payload = payloads[i]
            x = float(xs[j])
            if payload["tier"] == "exact":
                exact = compiled.exact(Fraction(x))
                ok = payload["value"] == float(exact)
            else:
                bound = bounds[j]
                ok = (payload["value"] == float(values[j])
                      and payload["error_bound"]
                      == (float(bound) if np.isfinite(bound) else "inf"))
            checks.check(ok, f"{paths[i]}: not bit-identical to the batch layer")
            if j % 10 == 0:
                exact = compiled.exact(Fraction(x))
                bound = payload["error_bound"]
                ok = bound == "inf" or abs(
                    Fraction(payload["value"]) - exact) <= Fraction(bound)
                checks.check(ok, f"{paths[i]}: exact value outside value +- bound")
    return answers


def _metrics_counters(port: int) -> Dict[str, float]:
    async def work(conns):
        return await conns[0].get("/metrics")

    _, body = _drive(_with_connections(port, 1, work))
    counters = {}
    for line in body.decode().splitlines():
        name, _, value = line.partition(" ")
        try:
            counters[name] = float(value)
        except ValueError:
            pass
    return counters


def warm_serve_curves() -> None:
    """What the server's warm task computes, redone after another phase
    cleared the memory tier."""
    from repro.batch import tables
    from repro.optimize import threshold_opt

    for n, delta in plan_mod.SERVE_CURVES:
        tables.compiled_threshold_curve(n, delta)
        tables.compiled_oblivious_curve(delta, n)
        threshold_opt.optimal_symmetric_threshold(n, delta)


class ServeSession:
    """One in-process server for the whole run, loaded slice by slice."""

    def __init__(self, p: "plan_mod.ServePlan", workdir: Path):
        from repro.serve import ServeConfig

        self.p = p
        self.open: List[Record] = []
        self.closed: List[Record] = []
        #: open-loop latency p50 of each slice, and the rate of each burst
        self.slice_p50_ms: List[float] = []
        self.rates: List[float] = []
        fresh_cache(workdir / "serve-cache")
        self.server, self.thread = _start_server(
            ServeConfig(port=0, warm=plan_mod.SERVE_CURVES, warm_optima=True)
        )

    def slice(self, s: int) -> None:
        warm_serve_curves()
        records = _open_loop(self.server.port, self.p.requests[s],
                             self.p.offsets[s], f"o{s}-")
        self.open += records
        self.slice_p50_ms.append(percentile(
            [(r.done - r.due) * 1000.0 for r in records], 0.50))
        records, rates = _closed_loop(self.server.port,
                                      self.p.closed_requests[s], f"c{s}-")
        self.closed += records
        self.rates += rates

    def stop(self) -> None:
        try:
            self.counters = _metrics_counters(self.server.port)
        finally:
            self.server.stop_threadsafe("benchmark done")
            self.thread.join(timeout=60)
        if self.thread.is_alive():
            raise RuntimeError("server thread did not stop")

    def result(self, checks: Checks) -> PhaseResult:
        records = self.open + self.closed
        answers = check_serve_answers(records, checks)
        latencies = [(r.done - r.due) * 1000.0 for r in self.open]
        ok_200 = [json.loads(r.body) for r in records if r.status == 200]
        return PhaseResult(
            metrics={
                "latency_p50_ms": statistics.median(self.slice_p50_ms),
                "saturated_rps": statistics.median(self.rates),
            },
            answers=digest(answers),
            raw={
                "latency_p99_ms": percentile(latencies, 0.99),
                "counters": self.counters,
                "client": {r.rid: (r.sent, r.done) for r in records},
                "late_ms": [(r.sent - r.due) * 1000.0 for r in self.open],
                "uncertified": sum(1 for a in ok_200
                                   if a.get("certified") is False),
                "answered": len(ok_200),
                "slice_p50_ms": self.slice_p50_ms,
                "rates": self.rates,
            },
        )


# ----------------------------------------------------------------------
# library
# ----------------------------------------------------------------------
def sweep_curve(curve, grid):
    """One curve of a library pass: both compiled curves evaluated on the
    grid with bounds, and the optimal threshold."""
    from repro.batch import tables
    from repro.optimize import threshold_opt

    n, delta = curve
    return (tables.compiled_threshold_curve(n, delta).evaluate_certified(grid),
            tables.compiled_oblivious_curve(delta, n).evaluate_certified(grid),
            threshold_opt.optimal_symmetric_threshold(n, delta))


def _curve_answers(result) -> str:
    thr, obl, opt = result
    return digest((thr.values.tobytes(), thr.error_bounds.tobytes(),
                   obl.values.tobytes(), obl.error_bounds.tobytes(),
                   opt.beta, opt.probability))


def large_n_answer(item):
    from repro.core import asymptotic
    from repro.optimize import asymptotic_opt

    kind, n, delta, x = item
    if kind == "near_optimal":
        r = asymptotic_opt.near_optimal_symmetric_threshold(n, delta)
        return (r.beta, r.value, r.error_bound, r.gap_bound)
    fn = (asymptotic.symmetric_threshold_winning_regime if kind == "threshold"
          else asymptotic.symmetric_oblivious_winning_regime)
    r = fn(x, n, delta)
    return (r.value, r.error_bound, r.regime)


class LibrarySession:
    """Per round, on that round's half of the curves: a cold pass and a
    disk-warm pass, then that round's half of the large-n queries; and,
    at several points of the round, memory-warm passes.  Every curve and
    query is timed on its own."""

    KINDS = {"cold": "cold_sweep_s", "disk_warm": "disk_warm_sweep_s",
             "warm": "warm_sweep_s", "large": "largen_sweep_s"}

    def __init__(self, p: "plan_mod.LibraryPlan", workdir: Path):
        self.p = p
        self.workdir = workdir
        self.grid = np.array(p.grid, dtype=np.float64)
        #: kind -> curve or query -> seconds of each time it ran
        self.times: Dict[str, Dict[Any, List[float]]] = {
            kind: {} for kind in self.KINDS}
        #: curve or query -> answers of its first run; later runs must match
        self.reference: Dict[Any, Any] = {}
        self.results: Dict[Tuple[int, Fraction], tuple] = {}
        #: disk-cache bytes after the last cold pass of each half
        self.disk_bytes: Dict[int, int] = {}
        self.disk = {"hits": 0, "misses": 0, "writes": 0, "evictions": 0}
        self.memory = {"hits": 0, "misses": 0, "evictions": 0}

    def _timed(self, kind: str, item, answer, checks: Checks):
        start = time.perf_counter()
        result = answer()
        self.times[kind].setdefault(item, []).append(time.perf_counter() - start)
        key = _curve_answers(result) if kind != "large" else result
        checks.check(self.reference.setdefault(item, key) == key,
                     f"{kind} answers for {item} differ from the first run")
        return result

    def _pass(self, kind: str, curves, checks: Checks) -> None:
        for curve in curves:
            self.results[curve] = self._timed(
                kind, curve, lambda: sweep_curve(curve, self.grid), checks)

    def _count_memory(self, before: Dict[str, int]) -> int:
        """Adds the memory-tier counts since *before*; returns the misses."""
        import repro.cache as cache

        after = cache.cache_stats()["memory"]
        for key in self.memory:
            self.memory[key] += after[key] - before[key]
        return after["misses"] - before["misses"]

    def round(self, r: int, checks: Checks) -> None:
        """Round r's cold and disk-warm passes and large-n queries."""
        import repro.cache as cache

        half = r % len(self.p.groups)
        curves = self.p.groups[half]
        memory_before = cache.cache_stats()["memory"]
        fresh_cache(self.workdir / f"library-cache-{r}")
        self._pass("cold", curves, checks)
        self.disk_bytes[half] = cache.cache_stats()["disk"]["total_bytes"]
        cache.clear_cache(include_disk=False)
        self._pass("disk_warm", curves, checks)
        disk = cache.cache_stats()["disk"]
        for key in self.disk:
            self.disk[key] += disk[key]
        for item in self.p.large_n[half]:
            self._timed("large", item, lambda: large_n_answer(item), checks)
        self._count_memory(memory_before)

    def warm(self, r: int, checks: Checks) -> None:
        """Memory-warm passes over round r's curves, after its
        :meth:`round`; all of them must be served from memory."""
        import repro.cache as cache

        memory_before = cache.cache_stats()["memory"]
        for _ in range(self.p.warm_passes):
            self._pass("warm", self.p.groups[r % len(self.p.groups)], checks)
        checks.check(self._count_memory(memory_before) == 0,
                     f"round {r}: a memory-warm pass missed the memory tier")

    def result(self, checks: Checks) -> PhaseResult:
        _check_library(self.grid, self.results, checks)
        for item in (i for group in self.p.large_n for i in group):
            kind, n, answer = item[0], item[1], self.reference[item]
            if kind == "near_optimal":
                beta, value = answer[0], answer[1]
                checks.check(0.0 < beta < 1.0 and 0.0 <= value <= 1.0,
                             f"near-optimal threshold out of range at n={n}")
            else:
                checks.check(0.0 <= answer[0] <= 1.0 and math.isfinite(answer[1]),
                             f"{kind} large-n value out of range at n={n}")
        _check_brackets(self.p, checks)
        results = self.results.values()
        return PhaseResult(
            # one pass over the whole set: the sum of per-item medians
            metrics={name: sum(statistics.median(v)
                               for v in self.times[kind].values())
                     for kind, name in self.KINDS.items()},
            answers=digest(sorted(self.reference.items(), key=repr)),
            raw={
                "fallbacks": sum(thr.fallback_count + obl.fallback_count
                                 for thr, obl, _ in results),
                "points": sum(thr.points + obl.points for thr, obl, _ in results),
                "disk_bytes": sum(self.disk_bytes.values()),
                "disk": self.disk,
                "memory": self.memory,
            },
        )


def _check_library(grid, by_curve, checks: Checks) -> None:
    opt3 = by_curve[(3, Fraction(1))][2]
    checks.check(abs(float(opt3.beta) - (1 - math.sqrt(1 / 7))) < 1e-9,
                 "n=3 anchor: beta* != 1 - sqrt(1/7)")
    checks.check(round(float(opt3.probability), 3) == 0.545,
                 "n=3 anchor: P* != 0.545")
    opt4 = by_curve[(4, Fraction(4, 3))][2]
    checks.check(round(float(opt4.beta), 3) == 0.678,
                 "n=4 anchor: beta* != 0.678")
    from repro.batch import tables

    for (n, delta), (thr, obl, _) in by_curve.items():
        exact_thr = tables.compiled_threshold_curve(n, delta).exact
        exact_obl = tables.compiled_oblivious_curve(delta, n).exact
        for j in range(0, len(grid), len(grid) // 4):
            x = Fraction(float(grid[j]))
            for result, exact in ((thr, exact_thr), (obl, exact_obl)):
                truth = exact(x)
                value = float(result.values[j])
                if result.certified[j]:
                    ok = abs(Fraction(value) - truth) <= Fraction(
                        float(result.error_bounds[j]))
                else:  # exact fallback: the float image of the truth
                    ok = value == float(truth)
                checks.check(ok, f"batch value outside its bound at n={n}, x={float(x)}")


def _check_brackets(p, checks: Checks) -> None:
    from repro.core import asymptotic, nonoblivious
    from repro.probability.regimes import RegimePolicy

    forced = RegimePolicy(exact_max_n=0, exact_max_m=0, certified_max_m=0)
    for n, delta, beta in p.brackets:
        approx = asymptotic.symmetric_threshold_winning_regime(
            beta, n, delta, policy=forced)
        exact = float(nonoblivious.symmetric_threshold_winning_probability(
            beta, n, delta))
        lo, hi = approx.bracket
        checks.check(lo <= exact <= hi,
                     f"asymptotic bracket misses the exact value at n={n}")


# ----------------------------------------------------------------------
# mc_shards
# ----------------------------------------------------------------------
TRANSPORTS = ("serial", "pool", "tcp")


def mc_system():
    from repro.model.algorithms import SingleThresholdRule
    from repro.model.system import DistributedSystem

    return DistributedSystem(
        [SingleThresholdRule(plan_mod.MC_BETA)] * plan_mod.MC_N,
        plan_mod.MC_DELTA,
    )


def run_transport(transport: str, system, p: "plan_mod.McPlan",
                  instrumentation=None):
    from repro.distributed import coordinator
    from repro.simulation import parallel
    from repro.simulation.rng import SeedSequenceFactory

    factory = SeedSequenceFactory(p.root_seed)
    if transport == "tcp":
        return coordinator.estimate_winning_probability_distributed(
            system, p.trials, factory, shards=p.shards, local_workers=2,
            config=coordinator.DistributedConfig(port=0),
            instrumentation=instrumentation,
        )
    return parallel.estimate_winning_probability_sharded(
        system, p.trials, factory, shards=p.shards,
        workers=1 if transport == "serial" else 2,
        instrumentation=instrumentation,
    )


class McSession:
    """Per round: every transport once, on the same plan."""

    def __init__(self, p: "plan_mod.McPlan", instrumentation=None):
        from repro.core import nonoblivious

        self.p = p
        self.instrumentation = instrumentation
        self.system = mc_system()
        self.exact = float(nonoblivious.symmetric_threshold_winning_probability(
            plan_mod.MC_BETA, plan_mod.MC_N, plan_mod.MC_DELTA))
        self.walls: Dict[str, List[float]] = {t: [] for t in TRANSPORTS}
        self.runs: Dict[str, list] = {t: [] for t in TRANSPORTS}
        self.reference = None

    def round(self, r: int, checks: Checks) -> None:
        for transport in TRANSPORTS:
            start = time.perf_counter()
            estimate = run_transport(transport, self.system, self.p,
                                     self.instrumentation)
            self.walls[transport].append(time.perf_counter() - start)
            self.runs[transport].append(estimate)
            outcome = (estimate.summary, estimate.shard_outcomes)
            self.reference = self.reference or outcome
            checks.check(outcome == self.reference,
                         f"{transport}: estimate differs from the first run")
            lo, hi = estimate.summary.interval
            checks.check(lo <= self.exact <= hi,
                         f"{transport}: exact P outside the Wilson interval")

    def trials_per_s(self, transport: str) -> float:
        return self.p.trials / statistics.median(self.walls[transport])

    def result(self, checks: Checks) -> PhaseResult:
        return PhaseResult(
            metrics={"serial_trials_per_s": self.trials_per_s("serial")},
            answers=digest(self.reference),
            raw={"walls": self.walls, "runs": self.runs,
                 "trials_per_s": {t: self.trials_per_s(t) for t in TRANSPORTS}},
        )
