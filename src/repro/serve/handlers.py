"""Endpoint handlers: parameter parsing, coalescing, the tier ladder.

The data plane is two ``GET`` endpoints over the paper's two query
families:

``/v1/winning-probability?n=&delta=&beta=``
    the Theorem 5.1 threshold curve at one point (``algorithm=oblivious``
    switches to the Theorem 4.1 symmetric profile, evaluated at
    ``alpha``);
``/v1/optimal-strategy?n=&delta=``
    the optimal symmetric threshold and its winning probability.

Both run the tier ladder of :mod:`repro.serve.degrade`: certified
float first, exact ``Fraction`` only while budget remains and the
breaker is closed, degraded-with-bound otherwise.  Winning-probability
requests that reach the same ``(algorithm, n, delta)`` curve in one
event-loop iteration are **coalesced** into one vectorised
:meth:`evaluate_with_bound` call (:class:`Coalescer`); a lone request
is evaluated on the next loop iteration, with no timer to wait out.

A curve or optimum already resident in the memory cache is taken on
the loop (the kernels' ``peek``); only a cold one is built off-loop in
the default executor, under the request's deadline.

The control plane (``/healthz``, ``/readyz``, ``/metrics``) never
enters admission control -- a saturated data plane must not blind the
orchestrator that could fix it.

Every response is JSON except ``/metrics`` (plain ``name value``
lines).  Handler errors surface as typed JSON with 4xx/5xx statuses;
the serve path deliberately has no route to a bare 500 -- injected
faults and exhausted budgets degrade or shed, never crash.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Tuple
from urllib.parse import parse_qs

from repro.cache import bypass_cache
from repro.errors import ValidationError
from repro.observability import get_instrumentation
from repro.serve.degrade import (
    certified_grid_optimum,
    exact_fallback_with_budget,
)
from repro.validation.enclosure import (
    TIER_ASYMPTOTIC,
    TIER_CERTIFIED,
    TIER_DEGRADED,
    TIER_EXACT,
    certifies,
)

__all__ = ["Coalescer", "Response", "handle_request"]


@dataclass
class Response:
    """One HTTP response, transport-agnostic."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def json(
        cls, status: int, payload: Dict[str, Any], **headers: str
    ) -> "Response":
        return cls(
            status=status,
            body=(json.dumps(payload) + "\n").encode(),
            headers=dict(headers),
        )

    @classmethod
    def error(cls, status: int, message: str, **headers: str) -> "Response":
        return cls.json(status, {"error": message}, **headers)


class Coalescer:
    """Batch concurrent same-curve point queries into one kernel call.

    Requests that reach the same compiled curve in one event-loop
    iteration share a single vectorised ``evaluate_with_bound`` pass,
    flushed by ``call_soon`` once the iteration's ready callbacks have
    run (or at once when *max_batch* accumulate); each caller's future
    resolves to its own ``(value, bound)`` pair.  A lone request waits
    for no timer.  Points are domain-checked *before* joining a batch,
    so one malformed request can never fail its coalesced peers.

    Counters: ``serve.coalesced_batches`` / ``serve.coalesced_points``.
    """

    def __init__(self, max_batch: int = 256, instrumentation=None):
        self.max_batch = max_batch
        self._instr = instrumentation
        self._buckets: Dict[Any, "_Bucket"] = {}

    async def evaluate(
        self, key: Any, compiled, x: float
    ) -> Tuple[float, float]:
        loop = asyncio.get_running_loop()
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = _Bucket(compiled, loop.call_soon(self._flush, key))
            self._buckets[key] = bucket
        future: asyncio.Future = loop.create_future()
        bucket.xs.append(x)
        bucket.futures.append(future)
        if len(bucket.xs) >= self.max_batch:
            self._flush(key)
        return await future

    def _flush(self, key: Any) -> None:
        bucket = self._buckets.pop(key, None)
        if bucket is None:
            return
        bucket.flush.cancel()
        import numpy as np

        try:
            values, bounds = bucket.compiled.evaluate_with_bound(
                np.asarray(bucket.xs, dtype=np.float64)
            )
        except Exception as exc:  # pragma: no cover - domain pre-checked
            for future in bucket.futures:
                if not future.done():
                    future.set_exception(exc)
            return
        for i, future in enumerate(bucket.futures):
            if not future.done():
                future.set_result((float(values[i]), float(bounds[i])))
        instr = (
            self._instr
            if self._instr is not None
            else get_instrumentation()
        )
        instr.increment("serve.coalesced_batches")
        instr.increment("serve.coalesced_points", len(bucket.xs))


@dataclass
class _Bucket:
    compiled: Any
    flush: asyncio.Handle
    xs: List[float] = field(default_factory=list)
    futures: List[asyncio.Future] = field(default_factory=list)


# ----------------------------------------------------------------------
# Parameter parsing
# ----------------------------------------------------------------------
def _parse_fraction(raw: str, name: str) -> Fraction:
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(
            f"{name} must be a rational ('1/2') or decimal ('0.5'), "
            f"got {raw!r}"
        ) from None


def _require(query: Dict[str, List[str]], name: str) -> str:
    values = query.get(name)
    if not values:
        raise ValidationError(f"missing required parameter {name!r}")
    return values[0]


def _parse_common(
    server, query: Dict[str, List[str]]
) -> Tuple[int, Fraction]:
    try:
        n = int(_require(query, "n"))
    except ValueError:
        raise ValidationError("n must be an integer") from None
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if n > server.config.asymptotic_max_n:
        raise ValidationError(
            f"n must be <= {server.config.asymptotic_max_n} on this "
            f"server, got {n}"
        )
    delta = _parse_fraction(_require(query, "delta"), "delta")
    if delta <= 0:
        raise ValidationError(f"delta must be positive, got {delta}")
    return n, delta


async def _apply_kernel_chaos(server, chaos) -> None:
    """``slow``/``hang`` faults sleep on the request's clock, burning
    deadline budget exactly as a genuinely slow kernel would."""
    if chaos is not None and chaos.kind in ("slow", "hang"):
        instr = server.instrumentation
        instr.increment("serve.chaos_slow")
        instr.emit(
            "fault", kind=chaos.kind, index=-1, attempt=0, layer="serve"
        )
        await asyncio.sleep(chaos.seconds)


async def _compiled_curve_with_budget(
    server, deadline, algorithm, n, delta, chaos
):
    """Fetch (or build) the compiled curve inside the deadline budget.

    A warmed curve is a memory-tier hit, returned on the loop without
    an executor hop.  A cold curve is built off-loop with the remaining
    budget as timeout; running out returns ``None`` -- the build keeps
    going in its executor thread and lands in the memo for the
    client's retry.  A ``corrupt`` chaos fault bypasses the cache,
    forcing the honest post-corruption behaviour: recompute, same
    answer.
    """
    from repro.batch.tables import (
        compiled_oblivious_curve,
        compiled_threshold_curve,
    )

    if algorithm == "oblivious":
        kernel, args = compiled_oblivious_curve, (delta, n)
    else:
        kernel, args = compiled_threshold_curve, (n, delta)
    if chaos is not None and chaos.kind == "corrupt":
        instr = server.instrumentation
        instr.increment("serve.chaos_corrupt")
        instr.emit(
            "fault", kind="corrupt", index=-1, attempt=0, layer="serve"
        )

        def build():
            with bypass_cache():
                return kernel(*args)
    else:
        resident, compiled = kernel.peek(*args)
        if resident:
            return compiled

        def build():
            return kernel(*args)
    loop = asyncio.get_running_loop()
    try:
        return await asyncio.wait_for(
            loop.run_in_executor(None, build),
            timeout=max(deadline.remaining(), 0.001),
        )
    except asyncio.TimeoutError:
        return None


def _budget_exhausted_response() -> Response:
    return Response.error(
        503,
        "deadline budget exhausted before a table was available; "
        "the build continues in the background -- retry",
        **{"Retry-After": "1"},
    )


# ----------------------------------------------------------------------
# Data-plane endpoints
# ----------------------------------------------------------------------
async def _winning_probability(server, query, deadline, chaos) -> Response:
    algorithm = query.get("algorithm", ["threshold"])[0]
    if algorithm not in ("threshold", "oblivious"):
        raise ValidationError(
            f"algorithm must be 'threshold' or 'oblivious', "
            f"got {algorithm!r}"
        )
    n, delta = _parse_common(server, query)
    point_name = "alpha" if algorithm == "oblivious" else "beta"
    raw = query.get(point_name) or query.get("x")
    if not raw:
        raise ValidationError(f"missing required parameter {point_name!r}")
    try:
        x = float(raw[0])
    except ValueError:
        raise ValidationError(f"{point_name} must be a number") from None

    await _apply_kernel_chaos(server, chaos)
    if n > server.config.max_n:
        return await _winning_probability_asymptotic(
            server, deadline, algorithm, n, delta, point_name, x
        )
    compiled = await _compiled_curve_with_budget(
        server, deadline, algorithm, n, delta, chaos
    )
    if compiled is None:
        return _budget_exhausted_response()
    edges = compiled.edges
    if not edges[0] <= x <= edges[-1]:
        raise ValidationError(
            f"{point_name}={x} outside domain [{edges[0]}, {edges[-1]}]"
        )

    key = (algorithm, n, delta)
    value, bound = await server.coalescer.evaluate(key, compiled, x)
    tier = TIER_DEGRADED
    tail: Dict[str, str] = {}
    if not deadline.expired and certifies(value, bound):
        tier = TIER_CERTIFIED
    elif not deadline.expired and server.breaker.allow():
        exact_kernel = compiled.exact
        started = time.monotonic()
        exact_value = await exact_fallback_with_budget(
            lambda: exact_kernel(Fraction(x)), deadline
        )
        server.breaker.record(
            time.monotonic() - started, exact_value is not None
        )
        if exact_value is not None:
            tier = TIER_EXACT
            tail["exact"] = str(exact_value)
            value = float(exact_value)
            bound = 0.0
    payload: Dict[str, Any] = {
        "n": n,
        "delta": str(delta),
        "algorithm": algorithm,
        point_name: x,
        "value": value,
        "error_bound": bound if bound != float("inf") else "inf",
    }
    return _finish(
        server, "winning-probability", tier, payload, deadline, **tail
    )


async def _winning_probability_asymptotic(
    server, deadline, algorithm, n, delta, point_name, x
) -> Response:
    """Large-n tier: answer from the asymptotic regime engine.

    Beyond ``max_n`` the compiled exact/certified curves are out of
    reach, but the regime dispatcher's asymptotic kernels
    (normal/Edgeworth with a rigorous error bound) answer in
    milliseconds for ``n`` up to ``asymptotic_max_n``.  The response
    carries the guaranteed ``[floor, ceiling]`` bracket, so it is
    *certified* -- just to a wider, explicitly stated tolerance.
    """
    from repro.core.asymptotic import (
        symmetric_oblivious_winning_regime,
        symmetric_threshold_winning_regime,
    )

    if not 0.0 <= x <= 1.0:
        raise ValidationError(
            f"{point_name}={x} outside domain [0.0, 1.0]"
        )
    parameter = Fraction(x).limit_denominator(10**9)
    regime = (
        symmetric_oblivious_winning_regime
        if algorithm == "oblivious"
        else symmetric_threshold_winning_regime
    )
    result = await exact_fallback_with_budget(
        lambda: regime(parameter, n, delta), deadline
    )
    if result is None:
        return _budget_exhausted_response()
    payload: Dict[str, Any] = {
        "n": n,
        "delta": str(delta),
        "algorithm": algorithm,
        point_name: x,
        **result.fields(),
    }
    return _finish(
        server, "winning-probability", TIER_ASYMPTOTIC, payload, deadline
    )


async def _optimal_strategy_asymptotic(server, deadline, n, delta) -> Response:
    """Large-n tier for the optimiser: near-optimal threshold with a
    bracketed winning probability and an explicit optimality gap."""
    from repro.optimize.asymptotic_opt import near_optimal_symmetric_threshold

    # A trimmed evaluation budget keeps the search inside the default
    # 250 ms request deadline at n = 10^6; the optimality gap widens
    # but is still computed soundly and reported in ``gap_bound``.
    optimum = await exact_fallback_with_budget(
        lambda: near_optimal_symmetric_threshold(
            n, delta, grid_points=5, refine_iterations=8
        ),
        deadline,
    )
    if optimum is None:
        return _budget_exhausted_response()
    floor, ceiling = optimum.bracket
    payload: Dict[str, Any] = {
        "n": n,
        "delta": str(delta),
        "beta": optimum.beta,
        "probability": optimum.value,
        "probability_floor": floor,
        "probability_ceiling": ceiling,
        "error_bound": optimum.error_bound,
        "gap_bound": optimum.gap_bound,
        "evaluations": optimum.evaluations,
        "regime": optimum.probability.regime,
        "method": optimum.probability.method,
    }
    return _finish(
        server, "optimal-strategy", TIER_ASYMPTOTIC, payload, deadline
    )


async def _optimal_strategy(server, query, deadline, chaos) -> Response:
    n, delta = _parse_common(server, query)
    await _apply_kernel_chaos(server, chaos)
    if n > server.config.max_n:
        return await _optimal_strategy_asymptotic(server, deadline, n, delta)

    tier = TIER_DEGRADED
    payload: Dict[str, Any]
    optimum = None
    if not deadline.expired and server.breaker.allow():
        from repro.optimize.threshold_opt import optimal_symmetric_threshold

        started = time.monotonic()
        resident, optimum = optimal_symmetric_threshold.peek(n, delta)
        if not resident:
            optimum = await exact_fallback_with_budget(
                lambda: optimal_symmetric_threshold(n, delta), deadline
            )
        server.breaker.record(
            time.monotonic() - started, optimum is not None
        )
    if optimum is not None:
        tier = TIER_EXACT
        payload = {
            "n": n,
            "delta": str(delta),
            "beta": float(optimum.beta),
            "beta_exact": str(optimum.beta),
            "probability": float(optimum.probability),
            "probability_exact": str(optimum.probability),
            "error_bound": 0.0,
        }
    else:
        compiled = await _compiled_curve_with_budget(
            server, deadline, "threshold", n, delta, chaos
        )
        if compiled is None:
            return _budget_exhausted_response()
        grid = certified_grid_optimum(compiled)
        payload = {
            "n": n,
            "delta": str(delta),
            "beta": grid.beta,
            "beta_resolution": grid.beta_resolution,
            "probability": grid.probability,
            "probability_floor": grid.floor,
            "probability_ceiling": grid.ceiling,
            "error_bound": grid.error_bound,
        }
    return _finish(server, "optimal-strategy", tier, payload, deadline)


def _finish(server, endpoint, tier, payload, deadline, **tail) -> Response:
    """Close *payload* with the tier block, then *tail*; count; respond.

    ``certified`` is true in every tier but ``degraded``: the bound
    served with the value is guaranteed to hold.
    """
    payload.update(
        tier=tier,
        certified=tier != TIER_DEGRADED,
        deadline_ms=deadline.budget_seconds * 1000.0,
        elapsed_ms=deadline.elapsed() * 1000.0,
        **tail,
    )
    instr = server.instrumentation
    instr.increment(f"serve.tier_{tier}")
    if tier == TIER_DEGRADED:
        instr.increment("serve.degraded")
    instr.emit(
        "request",
        endpoint=endpoint,
        tier=tier,
        status=200,
        elapsed_ms=round(deadline.elapsed() * 1000.0, 3),
    )
    return Response.json(200, payload)


# ----------------------------------------------------------------------
# Control-plane endpoints
# ----------------------------------------------------------------------
def _healthz(server) -> Response:
    return Response.json(200, {"status": "ok"})


def _readyz(server) -> Response:
    if server.draining:
        return Response.json(503, {"status": "draining"})
    if not server.ready:
        return Response.json(503, {"status": "warming"})
    return Response.json(200, {"status": "ready"})


def _metrics(server) -> Response:
    instr = server.instrumentation
    instr.set_gauge("serve.inflight", float(server.admission.inflight))
    instr.set_gauge("serve.waiting", float(server.admission.waiting))
    instr.set_gauge(
        "serve.ready", 1.0 if server.ready and not server.draining else 0.0
    )
    snapshot = instr.metrics.snapshot()
    lines = [
        f"{name} {value}"
        for name, value in sorted(snapshot.counters.items())
    ]
    lines += [
        f"{name} {value}"
        for name, value in sorted(snapshot.gauges.items())
    ]
    lines.append(f"serve.breaker_state {server.breaker.state}")
    return Response(
        status=200,
        body=("\n".join(lines) + "\n").encode(),
        content_type="text/plain; charset=utf-8",
    )


# ----------------------------------------------------------------------
# Router
# ----------------------------------------------------------------------
_CONTROL_ROUTES = {
    "/healthz": _healthz,
    "/readyz": _readyz,
    "/metrics": _metrics,
}

_DATA_ROUTES = {
    "/v1/winning-probability": _winning_probability,
    "/v1/optimal-strategy": _optimal_strategy,
}


async def handle_request(
    server, method: str, path: str, query_string: str, chaos=None
) -> Response:
    """Route one parsed request; admission applies to data routes only."""
    if path in _CONTROL_ROUTES:
        if method != "GET":
            return Response.error(405, f"{method} not allowed")
        return _CONTROL_ROUTES[path](server)
    handler = _DATA_ROUTES.get(path)
    if handler is None:
        return Response.error(404, f"no route for {path!r}")
    if method != "GET":
        return Response.error(405, f"{method} not allowed")
    if server.draining:
        return Response.error(
            503, "server is draining", **{"Connection": "close"}
        )
    if not server.ready:
        return Response.error(
            503, "server is warming up", **{"Retry-After": "1"}
        )
    admitted = await server.admission.acquire()
    if not admitted:
        server.instrumentation.emit(
            "request", endpoint=path, tier="shed", status=429,
            elapsed_ms=0.0,
        )
        return Response.error(
            429,
            "overloaded: concurrency limit and queue are full",
            **{"Retry-After": server.retry_after_hint()},
        )
    try:
        query = parse_qs(query_string, keep_blank_values=True)
        deadline = server.new_deadline(query)
        try:
            return await handler(server, query, deadline, chaos)
        except ValidationError as exc:
            return Response.error(400, str(exc))
    finally:
        server.admission.release()
