"""Tests for the resilient serving layer (:mod:`repro.serve`).

Four robustness contracts, each exercised here:

1. **Bit identity** -- an undegraded response carries exactly the
   value a direct library call produces (same compiled table, same
   Horner pass, same exact optimiser record).
2. **Bounded overload** -- beyond ``max_inflight + queue_depth``
   concurrent requests the server sheds with 429 + ``Retry-After``;
   it never queues unboundedly, and every accepted request completes.
3. **Explicit degradation** -- an exhausted deadline budget or an
   injected slow-kernel fault yields a ``tier="degraded"`` answer
   with a sound error bound, never a 500.
4. **Graceful drain** -- SIGTERM (subprocess) or ``request_stop``
   (in-process) lets every in-flight request finish before the
   process exits 0.

The in-process harness runs the server on a background thread's event
loop and stops it with ``stop_threadsafe`` -- no signals needed, so
the suite stays parallel-safe; the one subprocess test covers the
real SIGTERM path end to end.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ServeError
from repro.serve import (
    AdmissionController,
    CircuitBreaker,
    Coalescer,
    Deadline,
    ReproServer,
    ServeConfig,
    certified_grid_optimum,
)
from repro.serve.admission import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
)
from repro.serve.degrade import certifies
from repro.simulation.faulttolerance import FaultPlan, FaultSpec

# ---------------------------------------------------------------------------
# unit: deadline budgets
# ---------------------------------------------------------------------------


class TestDeadline:
    def test_budget_accounting_with_fake_clock(self):
        now = [100.0]
        deadline = Deadline(250.0, clock=lambda: now[0])
        assert deadline.budget_seconds == pytest.approx(0.25)
        assert not deadline.expired
        now[0] += 0.1
        assert deadline.elapsed() == pytest.approx(0.1)
        assert deadline.remaining() == pytest.approx(0.15)
        now[0] += 0.2
        assert deadline.expired
        assert deadline.remaining() == 0.0

    @pytest.mark.parametrize("budget", [0.0, -1.0])
    def test_nonpositive_budget_rejected(self, budget):
        with pytest.raises(ValueError):
            Deadline(budget)


class TestCertifies:
    def test_small_bound_certifies(self):
        assert certifies(0.5, 1e-16)

    def test_large_bound_does_not(self):
        assert not certifies(0.5, 1e-3)

    def test_zero_value_uses_abs_tol(self):
        assert certifies(0.0, 1e-16)
        assert not certifies(0.0, 1e-9)


# ---------------------------------------------------------------------------
# unit: admission control
# ---------------------------------------------------------------------------


class TestAdmissionController:
    def test_sheds_beyond_bounded_queue(self):
        async def scenario():
            admission = AdmissionController(max_inflight=1, queue_depth=1)
            assert await admission.acquire()  # occupies the one slot
            waiter = asyncio.ensure_future(admission.acquire())
            await asyncio.sleep(0)  # let the waiter park in the queue
            assert admission.waiting == 1
            # queue full + limiter saturated: shed immediately
            assert not await admission.acquire()
            assert admission.shed == 1
            admission.release()
            assert await waiter  # the parked request is admitted
            admission.release()
            assert admission.idle()
            assert admission.accepted == 2
            assert admission.completed == 2

        asyncio.run(scenario())

    def test_zero_queue_depth_sheds_at_capacity(self):
        async def scenario():
            admission = AdmissionController(max_inflight=1, queue_depth=0)
            assert await admission.acquire()
            assert not await admission.acquire()
            admission.release()
            assert await admission.acquire()

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_inflight": 0, "queue_depth": 1},
            {"max_inflight": 1, "queue_depth": -1},
        ],
    )
    def test_bad_limits_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AdmissionController(**kwargs)


class TestCircuitBreaker:
    def make(self, now):
        return CircuitBreaker(
            failure_threshold=2,
            cooldown_seconds=5.0,
            slow_seconds=0.5,
            clock=lambda: now[0],
        )

    def test_opens_after_consecutive_failures(self):
        now = [0.0]
        breaker = self.make(now)
        assert breaker.state == BREAKER_CLOSED
        breaker.record(1.0, completed=True)  # slow counts as failure
        assert breaker.state == BREAKER_CLOSED
        breaker.record(0.1, completed=False)
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()
        assert breaker.times_opened == 1

    def test_fast_success_resets_the_streak(self):
        now = [0.0]
        breaker = self.make(now)
        breaker.record(1.0, completed=True)
        breaker.record(0.1, completed=True)  # fast: streak resets
        breaker.record(1.0, completed=True)
        assert breaker.state == BREAKER_CLOSED

    def test_half_open_admits_exactly_one_probe(self):
        now = [0.0]
        breaker = self.make(now)
        breaker.record(1.0, True)
        breaker.record(1.0, True)
        assert breaker.state == BREAKER_OPEN
        now[0] += 5.0  # cooldown elapses
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # but only one
        breaker.record(0.1, True)  # fast probe closes it
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()

    def test_slow_probe_reopens(self):
        now = [0.0]
        breaker = self.make(now)
        breaker.record(1.0, True)
        breaker.record(1.0, True)
        now[0] += 5.0
        assert breaker.allow()
        breaker.record(2.0, True)  # the probe was slow
        assert breaker.state == BREAKER_OPEN
        assert breaker.times_opened == 2
        now[0] += 1.0  # cooldown restarted: still open
        assert breaker.state == BREAKER_OPEN

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)


# ---------------------------------------------------------------------------
# unit: request coalescing
# ---------------------------------------------------------------------------


class _FakeCompiled:
    """Counts vectorised evaluations; doubles its input."""

    def __init__(self):
        self.calls = 0

    def evaluate_with_bound(self, xs):
        self.calls += 1
        xs = np.asarray(xs, dtype=np.float64)
        return xs * 2.0, np.zeros_like(xs)


class TestCoalescer:
    def test_concurrent_points_share_one_evaluation(self):
        async def scenario():
            compiled = _FakeCompiled()
            coalescer = Coalescer()
            results = await asyncio.gather(
                coalescer.evaluate("k", compiled, 0.25),
                coalescer.evaluate("k", compiled, 0.5),
                coalescer.evaluate("k", compiled, 0.75),
            )
            assert [value for value, _ in results] == [0.5, 1.0, 1.5]
            assert compiled.calls == 1

        asyncio.run(scenario())

    def test_full_batch_flushes_immediately(self):
        async def scenario():
            compiled = _FakeCompiled()
            coalescer = Coalescer(max_batch=2)
            values = await asyncio.gather(
                coalescer.evaluate("k", compiled, 1.0),
                coalescer.evaluate("k", compiled, 2.0),
                coalescer.evaluate("k", compiled, 3.0),
            )
            # the first two points fill a batch and flush at once; the
            # third starts a batch of its own
            assert [v for v, _ in values] == [2.0, 4.0, 6.0]
            assert compiled.calls == 2

        asyncio.run(scenario())

    def test_distinct_curves_do_not_share_batches(self):
        async def scenario():
            first, second = _FakeCompiled(), _FakeCompiled()
            coalescer = Coalescer()
            await asyncio.gather(
                coalescer.evaluate("a", first, 1.0),
                coalescer.evaluate("b", second, 1.0),
            )
            assert first.calls == 1
            assert second.calls == 1

        asyncio.run(scenario())

    def test_lone_point_waits_for_no_timer(self):
        class NoTimerLoop(asyncio.SelectorEventLoop):
            def call_later(self, *args, **kwargs):
                raise AssertionError("the coalescer armed a timer")

        compiled = _FakeCompiled()
        loop = NoTimerLoop()
        try:
            result = loop.run_until_complete(
                Coalescer().evaluate("k", compiled, 0.25)
            )
        finally:
            loop.close()
        assert result == (0.5, 0.0)
        assert compiled.calls == 1


# ---------------------------------------------------------------------------
# unit: the degraded optimum is sound
# ---------------------------------------------------------------------------


class TestCertifiedGridOptimum:
    @pytest.mark.parametrize(
        "n, delta", [(3, Fraction(1)), (4, Fraction(1, 2))]
    )
    def test_brackets_the_true_optimum(self, n, delta):
        from repro.batch.tables import compiled_threshold_curve
        from repro.optimize.threshold_opt import optimal_symmetric_threshold

        compiled = compiled_threshold_curve(n, delta)
        grid = certified_grid_optimum(compiled)
        exact = float(optimal_symmetric_threshold(n, delta).probability)
        assert grid.floor <= exact <= grid.ceiling
        assert abs(grid.probability - exact) <= grid.error_bound
        assert grid.beta_resolution > 0
        # refining the grid tightens (or at worst matches) the bracket
        finer = certified_grid_optimum(compiled, samples_per_piece=1024)
        assert finer.error_bound <= grid.error_bound
        assert finer.floor <= exact <= finer.ceiling


# ---------------------------------------------------------------------------
# the in-process server harness
# ---------------------------------------------------------------------------

WARM = ((3, Fraction(1, 2)),)


@contextlib.contextmanager
def running_server(executor=None, **overrides):
    """A live server on a background thread; yields (server, holder).

    ``holder["report"]`` carries the ServeReport after shutdown.  The
    loop runs on a non-main thread, so signal handlers are impossible
    and the stop goes through ``stop_threadsafe`` -- the same drain
    code path SIGTERM takes in the CLI.  *executor*, when given,
    becomes the loop's default executor.
    """
    overrides.setdefault("warm", WARM)
    overrides.setdefault("warm_optima", False)
    config = ServeConfig(port=0, **overrides)
    holder: dict = {}
    started = threading.Event()

    async def main():
        if executor is not None:
            asyncio.get_running_loop().set_default_executor(executor)
        server = ReproServer(config)
        await server.start()
        holder["server"] = server
        started.set()
        holder["report"] = await server.serve_until_stopped()

    def run():
        try:
            asyncio.run(main())
        except BaseException as exc:  # surface startup failures
            holder["error"] = exc
            started.set()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(timeout=20), "server never started"
    if "error" in holder:
        raise holder["error"]
    server = holder["server"]
    wait_until = time.monotonic() + 30
    while not server.ready and time.monotonic() < wait_until:
        time.sleep(0.005)
    assert server.ready, "server never finished warming"
    try:
        yield server, holder
    finally:
        server.stop_threadsafe("test")
        thread.join(timeout=30)
        assert not thread.is_alive(), "server failed to drain"


def get(server, path, timeout=30.0):
    """One GET; returns (status, headers, parsed-or-raw body)."""
    conn = http.client.HTTPConnection(
        "127.0.0.1", server.port, timeout=timeout
    )
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        raw = response.read()
        headers = dict(response.getheaders())
        if "json" in headers.get("Content-Type", ""):
            return response.status, headers, json.loads(raw)
        return response.status, headers, raw.decode()
    finally:
        conn.close()


class CountingExecutor(concurrent.futures.ThreadPoolExecutor):
    """A default executor that counts the work handed to it."""

    def __init__(self):
        super().__init__(max_workers=2)
        self.submitted = 0

    def submit(self, fn, /, *args, **kwargs):
        self.submitted += 1
        return super().submit(fn, *args, **kwargs)


def memory_lookups():
    from repro.cache import cache_stats

    stats = cache_stats()["memory"]
    return stats["hits"], stats["misses"]


# ---------------------------------------------------------------------------
# integration: the data plane is bit-identical to the library
# ---------------------------------------------------------------------------


class TestDataPlane:
    def test_health_ready_and_metrics(self):
        with running_server() as (server, _):
            assert get(server, "/healthz")[0] == 200
            status, _, body = get(server, "/readyz")
            assert status == 200 and body["status"] == "ready"
            status, _, text = get(server, "/metrics")
            assert status == 200
            assert "serve.warmed_kernels" in text
            assert "serve.ready 1.0" in text
            assert "serve.breaker_state closed" in text

    def test_winning_probability_bit_identical(self):
        from repro.batch.tables import compiled_threshold_curve

        executor = CountingExecutor()
        with running_server(executor=executor) as (server, _):
            before = executor.submitted
            status, _, body = get(
                server,
                "/v1/winning-probability?n=3&delta=1/2&beta=0.6",
            )
            assert status == 200
            # a warmed curve is served on the loop
            assert executor.submitted == before
            compiled = compiled_threshold_curve(3, Fraction(1, 2))
            values, bounds = compiled.evaluate_with_bound(
                np.array([0.6])
            )
            assert body["value"] == float(values[0])  # exact equality
            assert body["error_bound"] == float(bounds[0])
            assert body["tier"] == "certified"
            assert body["certified"] is True
            assert body["elapsed_ms"] <= body["deadline_ms"]

    def test_oblivious_algorithm(self):
        from repro.batch.tables import compiled_oblivious_curve

        executor = CountingExecutor()
        with running_server(executor=executor) as (server, _):
            before = executor.submitted
            status, _, body = get(
                server,
                "/v1/winning-probability"
                "?algorithm=oblivious&n=3&delta=1/2&alpha=0.4",
            )
            assert status == 200
            assert executor.submitted == before
            compiled = compiled_oblivious_curve(Fraction(1, 2), 3)
            values, bounds = compiled.evaluate_with_bound(np.array([0.4]))
            assert body["value"] == float(values[0])
            assert body["error_bound"] == float(bounds[0])
            assert body["tier"] == "certified"
            assert body["algorithm"] == "oblivious"

    def test_optimal_strategy_exact_tier(self):
        from repro.optimize.threshold_opt import optimal_symmetric_threshold

        with running_server(deadline_ms=10_000.0) as (server, _):
            status, _, body = get(
                server, "/v1/optimal-strategy?n=3&delta=1/2"
            )
            assert status == 200
            optimum = optimal_symmetric_threshold(3, Fraction(1, 2))
            assert body["tier"] == "exact"
            assert body["beta_exact"] == str(optimum.beta)
            assert body["probability_exact"] == str(optimum.probability)
            assert body["beta"] == float(optimum.beta)
            assert body["error_bound"] == 0.0

    def test_deadline_override_only_shrinks(self):
        with running_server(deadline_ms=250.0) as (server, _):
            _, _, body = get(
                server,
                "/v1/winning-probability"
                "?n=3&delta=1/2&beta=0.5&deadline_ms=50",
            )
            assert body["deadline_ms"] == 50.0
            _, _, body = get(
                server,
                "/v1/winning-probability"
                "?n=3&delta=1/2&beta=0.5&deadline_ms=99999",
            )
            assert body["deadline_ms"] == 250.0  # cannot grow the budget

    @pytest.mark.parametrize(
        "path, fragment",
        [
            ("/v1/winning-probability?n=3&delta=1/2&beta=5.0", "domain"),
            ("/v1/winning-probability?n=3&delta=1/2", "beta"),
            ("/v1/winning-probability?n=0&delta=1/2&beta=0.5", "n must"),
            (
                "/v1/winning-probability?n=3&delta=junk&beta=0.5",
                "delta",
            ),
            (
                "/v1/winning-probability"
                "?algorithm=psychic&n=3&delta=1/2&beta=0.5",
                "algorithm",
            ),
        ],
    )
    def test_validation_maps_to_400(self, path, fragment):
        with running_server() as (server, _):
            status, _, body = get(server, path)
            assert status == 400
            assert fragment in body["error"]

    def test_unknown_route_404_and_wrong_method_405(self):
        with running_server() as (server, _):
            assert get(server, "/v1/nope")[0] == 404
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=10
            )
            try:
                conn.request(
                    "POST", "/v1/winning-probability", body=b"{}"
                )
                assert conn.getresponse().status == 405
            finally:
                conn.close()


# ---------------------------------------------------------------------------
# integration: resident curves and optima are served on the loop
# ---------------------------------------------------------------------------


class TestOnLoopCurveFetch:
    WARM = "/v1/winning-probability?n=3&delta=1/2&beta=0.6"
    COLD = "/v1/winning-probability?n=2&delta=1/2&beta=0.6"

    def test_warm_optimum_reaches_no_executor(self):
        from repro.optimize.threshold_opt import optimal_symmetric_threshold

        executor = CountingExecutor()
        with running_server(
            executor=executor, warm_optima=True, deadline_ms=10_000.0
        ) as (server, _):
            before = executor.submitted
            _, _, body = get(server, "/v1/optimal-strategy?n=3&delta=1/2")
            assert executor.submitted == before
        optimum = optimal_symmetric_threshold(3, Fraction(1, 2))
        assert body["tier"] == "exact"
        assert body["beta_exact"] == str(optimum.beta)
        assert body["probability_exact"] == str(optimum.probability)

    def test_cold_curve_builds_off_loop(self):
        from repro.batch.tables import compiled_threshold_curve

        executor = CountingExecutor()
        with running_server(executor=executor, deadline_ms=10_000.0) as (
            server,
            _,
        ):
            before = executor.submitted
            status, _, body = get(server, self.COLD)
            assert status == 200
            assert executor.submitted == before + 1
            get(server, self.COLD)  # now resident
            assert executor.submitted == before + 1
        values, _ = compiled_threshold_curve(
            2, Fraction(1, 2)
        ).evaluate_with_bound(np.array([0.6]))
        assert body["value"] == float(values[0])

    def test_memory_tier_counts_one_lookup_per_request(self):
        from repro.batch.tables import threshold_curve_table

        with running_server(deadline_ms=10_000.0) as (server, _):
            # make the cold curve's exact table resident, so its build
            # adds exactly one table hit to the count below
            threshold_curve_table(2, Fraction(1, 2))
            hits, misses = memory_lookups()
            get(server, self.WARM)  # warm: one hit
            assert memory_lookups() == (hits + 1, misses)
            get(server, self.COLD)  # cold: one miss, plus the table hit
            assert memory_lookups() == (hits + 2, misses + 1)
            get(server, self.COLD)  # warm now: one hit
            assert memory_lookups() == (hits + 3, misses + 1)


# ---------------------------------------------------------------------------
# integration: overload sheds, accepted requests finish (satellite)
# ---------------------------------------------------------------------------


def slow_plan(count, seconds):
    """Slow-kernel faults for the first *count* request sequences."""
    return FaultPlan(
        {
            ("serve", seq, 0): FaultSpec("slow", seconds=seconds)
            for seq in range(count)
        }
    )


class TestOverload:
    def test_2x_overload_sheds_with_429_and_accepted_complete(self):
        clients = 8  # 2x the (max_inflight + queue_depth) capacity
        with running_server(
            max_inflight=2,
            queue_depth=2,
            deadline_ms=5_000.0,
            chaos=slow_plan(count=clients + 4, seconds=0.25),
        ) as (server, holder):
            results = []
            lock = threading.Lock()

            def hit():
                outcome = get(
                    server,
                    "/v1/winning-probability?n=3&delta=1/2&beta=0.6",
                )
                with lock:
                    results.append(outcome)

            threads = [
                threading.Thread(target=hit) for _ in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            statuses = sorted(status for status, _, _ in results)
            assert len(results) == clients
            assert statuses.count(429) >= 1  # overload was shed...
            assert statuses.count(200) >= 2  # ...but capacity was served
            assert set(statuses) <= {200, 429}  # and never a 500
            for status, headers, body in results:
                if status == 429:
                    assert "Retry-After" in headers
                else:
                    # every accepted request met its deadline
                    assert body["elapsed_ms"] <= body["deadline_ms"]
            assert server.admission.shed == statuses.count(429)
            assert server.admission.accepted == statuses.count(200)
        report = holder["report"]
        assert report.drained_clean
        assert report.completed == report.accepted


# ---------------------------------------------------------------------------
# integration: chaos degrades with a bound, never a 500 (satellite)
# ---------------------------------------------------------------------------


class TestChaosDegradation:
    def test_slow_kernel_degrades_optimal_strategy_with_bound(self):
        from repro.optimize.threshold_opt import optimal_symmetric_threshold

        with running_server(
            deadline_ms=200.0,
            chaos=FaultPlan(
                {("serve", 0, 0): FaultSpec("slow", seconds=0.3)}
            ),
        ) as (server, _):
            status, _, body = get(
                server, "/v1/optimal-strategy?n=3&delta=1/2"
            )
            assert status == 200  # degraded, not broken
            assert body["tier"] == "degraded"
            assert body["certified"] is False
            assert (
                body["probability_floor"]
                <= body["probability"]
                <= body["probability_ceiling"]
            )
            exact = float(
                optimal_symmetric_threshold(3, Fraction(1, 2)).probability
            )
            # the advertised bracket really contains the true optimum
            assert body["probability_floor"] <= exact
            assert exact <= body["probability_ceiling"]
            assert body["error_bound"] > 0

    def test_corrupt_cache_fault_recomputes_same_answer(self):
        from repro.cache import cache_stats

        executor = CountingExecutor()
        with running_server(
            executor=executor,
            chaos=FaultPlan(
                {("serve", 1, 0): FaultSpec("corrupt")}
            ),
        ) as (server, _):
            path = "/v1/winning-probability?n=3&delta=1/2&beta=0.6"
            before = executor.submitted
            status_clean, _, clean = get(server, path)  # seq 0: clean
            memory = cache_stats()["memory"]
            status_chaos, _, chaos = get(server, path)  # seq 1: corrupt
            assert status_clean == status_chaos == 200
            # only the corrupt request leaves the loop, and its
            # recompute neither reads nor writes the memory tier
            assert executor.submitted == before + 1
            assert cache_stats()["memory"] == memory
            # the fault forces a cache-bypassing recompute; honesty
            # means the recomputed answer is bit-identical
            assert chaos["value"] == clean["value"]
            assert (
                server.instrumentation.metrics.counter_value(
                    "serve.chaos_corrupt"
                )
                == 1
            )


# ---------------------------------------------------------------------------
# integration: graceful drain (satellite)
# ---------------------------------------------------------------------------


class TestDrain:
    def test_in_flight_requests_finish_during_drain(self):
        clients = 4
        with running_server(
            max_inflight=clients,
            queue_depth=clients,
            deadline_ms=5_000.0,
            drain_seconds=10.0,
            chaos=slow_plan(count=clients, seconds=0.4),
        ) as (server, holder):
            results = []
            lock = threading.Lock()

            def hit():
                outcome = get(
                    server,
                    "/v1/winning-probability?n=3&delta=1/2&beta=0.6",
                )
                with lock:
                    results.append(outcome)

            threads = [
                threading.Thread(target=hit) for _ in range(clients)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.15)  # all four are now mid-slow-kernel
            server.stop_threadsafe("test-drain")
            for thread in threads:
                thread.join(timeout=60)
            assert [s for s, _, _ in results] == [200] * clients
        report = holder["report"]
        assert report.drained_clean
        assert report.aborted_connections == 0
        assert report.completed == clients

    def test_draining_server_rejects_new_requests(self):
        with running_server() as (server, holder):
            server.stop_threadsafe("early")
            wait_until = time.monotonic() + 5
            while not server.draining and time.monotonic() < wait_until:
                time.sleep(0.005)
            assert server.draining
        assert holder["report"].stop_reason == "early"


class TestSigtermSubprocess:
    def test_sigterm_under_load_drains_every_request(self, tmp_path):
        """The real thing: ``repro serve`` + SIGTERM mid-flight."""
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else ""
        )
        chaos_args = []
        for seq in range(40):  # readyz polls consume sequence numbers
            chaos_args += ["--chaos", f"slow:{seq}:0.5"]
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--deadline-ms",
                "5000",
                "--max-inflight",
                "8",
                "--queue-depth",
                "8",
                "--drain-seconds",
                "10",
                "--warm",
                "3:1/2",
                "--no-warm-optima",
            ]
            + chaos_args,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stderr.readline()
            assert "listening on http://" in line, line
            port = int(line.rstrip().rpartition(":")[2])
            ready_line = proc.stderr.readline()
            assert "ready" in ready_line, ready_line

            class _Stub:
                pass

            stub = _Stub()
            stub.port = port
            results = []
            lock = threading.Lock()

            def hit():
                outcome = get(
                    stub,
                    "/v1/winning-probability?n=3&delta=1/2&beta=0.6",
                )
                with lock:
                    results.append(outcome)

            threads = [threading.Thread(target=hit) for _ in range(4)]
            for thread in threads:
                thread.start()
            time.sleep(0.2)  # requests are mid-slow-kernel
            proc.send_signal(signal.SIGTERM)
            for thread in threads:
                thread.join(timeout=60)
            _, stderr = proc.communicate(timeout=60)
            # every in-flight request completed despite the signal
            assert [s for s, _, _ in results] == [200] * 4
            assert proc.returncode == 0, stderr
            assert "draining" in stderr
            assert "drain clean" in stderr
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


class TestServeConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"port": -1},
            {"port": 70000},
            {"deadline_ms": 0.0},
            {"drain_seconds": -1.0},
            {"max_inflight": 0},
        ],
    )
    def test_bad_config_raises_serve_error(self, kwargs):
        with pytest.raises((ServeError, ValueError)):
            ServeConfig(**kwargs)

    def test_unbindable_address_raises_serve_error(self):
        async def scenario():
            server = ReproServer(
                ServeConfig(host="203.0.113.1", port=65531)
            )
            with pytest.raises(ServeError):
                await server.start()

        asyncio.run(scenario())


class TestServeCli:
    def test_bad_warm_spec_is_a_usage_error(self, capsys):
        from repro.cli import main

        assert main(["serve", "--warm", "bogus"]) == 2
        assert "warm" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the asymptotic tier: large-n queries answered instead of rejected
# ---------------------------------------------------------------------------


class TestAsymptoticTier:
    def test_large_n_point_query_served(self):
        with running_server(deadline_ms=2000.0) as (server, _):
            status, _, body = get(
                server,
                "/v1/winning-probability?n=100000&delta=37500&beta=0.5",
            )
            assert status == 200
            assert body["tier"] == "asymptotic"
            assert body["certified"] is True
            assert body["regime"] == "asymptotic"
            assert 0.0 <= body["floor"] <= body["value"] <= body["ceiling"] <= 1.0
            assert body["error_bound"] < 0.01

    def test_large_n_oblivious_query_served(self):
        with running_server(deadline_ms=2000.0) as (server, _):
            status, _, body = get(
                server,
                "/v1/winning-probability?n=100000&delta=37500"
                "&algorithm=oblivious&alpha=0.5",
            )
            assert status == 200
            assert body["tier"] == "asymptotic"
            assert body["algorithm"] == "oblivious"

    def test_large_n_optimal_strategy_served(self):
        with running_server(deadline_ms=5000.0) as (server, _):
            status, _, body = get(
                server, "/v1/optimal-strategy?n=100000&delta=37500"
            )
            assert status == 200
            assert body["tier"] == "asymptotic"
            assert 0.0 < body["beta"] < 1.0
            assert body["gap_bound"] >= 0.0
            assert (
                body["probability_floor"]
                <= body["probability"]
                <= body["probability_ceiling"]
            )

    def test_capacity_beyond_float_range_answers_one(self):
        # delta >= n is always won; 1e400 must not reach float().
        with running_server(deadline_ms=5000.0) as (server, _):
            for query in ("beta=0.5", "algorithm=oblivious&alpha=0.5"):
                status, _, body = get(
                    server,
                    f"/v1/winning-probability?n=100&delta=1e400&{query}",
                )
                assert status == 200
                assert body["value"] == 1.0
                assert body["floor"] == body["ceiling"] == 1.0
            status, _, body = get(
                server, "/v1/optimal-strategy?n=100&delta=1e400"
            )
            assert status == 200
            assert body["probability"] == 1.0

    def test_small_n_still_uses_exact_tiers(self):
        with running_server() as (server, _):
            status, _, body = get(
                server, "/v1/winning-probability?n=3&delta=1/2&beta=0.5"
            )
            assert status == 200
            assert body["tier"] in ("certified", "exact")

    def test_n_above_asymptotic_cap_rejected(self):
        with running_server(asymptotic_max_n=10**6) as (server, _):
            status, _, body = get(
                server, "/v1/winning-probability?n=2000000&delta=1&beta=0.5"
            )
            assert status == 400
            assert "error" in body

    def test_large_n_domain_check(self):
        with running_server() as (server, _):
            status, _, body = get(
                server, "/v1/winning-probability?n=100000&delta=1&beta=1.5"
            )
            assert status == 400

    def test_asymptotic_tier_counted_in_metrics(self):
        with running_server(deadline_ms=2000.0) as (server, _):
            get(
                server,
                "/v1/winning-probability?n=100000&delta=37500&beta=0.5",
            )
            _, _, metrics = get(server, "/metrics")
            assert "serve.tier_asymptotic 1" in metrics

    def test_config_rejects_cap_below_max_n(self):
        with pytest.raises(ServeError):
            ServeConfig(port=0, max_n=32, asymptotic_max_n=16)
