"""Cost of the result-integrity subsystem.

One claim is measured and asserted: **contracts add < 5% overhead** to
the Monte Carlo engine when enabled in counting mode -- the hot loop
is numpy trials, and the post-condition is one comparison per
estimate.

Timings are interleaved best-of-N (see
:mod:`benchmarks.test_bench_observability` for why back-to-back blocks
mislead) so scheduler hiccups cannot fail the build.
"""

from __future__ import annotations

import time
from fractions import Fraction

from conftest import record

from repro.model.algorithms import SingleThresholdRule
from repro.model.system import DistributedSystem
from repro.simulation.engine import MonteCarloEngine
from repro.validation.contracts import use_contracts

TRIALS = 1_000_000
REPEATS = 7
#: Enabled (counting-mode) contracts may cost at most this fraction
#: over the plain engine run (ISSUE target: < 5%).
CONTRACTS_OVERHEAD_LIMIT = 0.05


def _interleaved_minima(fn_a, fn_b, repeats: int = REPEATS):
    """Best-of-N times of two workloads measured in alternation.

    The minimum is the standard microbenchmark statistic when the two
    workloads are near-identical: scheduler preemption and frequency
    ramps only ever add time, so the minima are the cleanest estimate
    of the true cost and their ratio the cleanest overhead figure.
    """
    fn_a()
    fn_b()
    times_a, times_b = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        fn_a()
        times_a.append(time.perf_counter() - start)
        start = time.perf_counter()
        fn_b()
        times_b.append(time.perf_counter() - start)
    return min(times_a), min(times_b)


def test_bench_contracts_overhead():
    """MC engine with contracts counting vs contracts off."""
    system = DistributedSystem(
        [SingleThresholdRule(Fraction(3, 5))] * 4, Fraction(4, 3)
    )

    def contracts_off():
        MonteCarloEngine(seed=42).estimate_winning_probability(
            system, trials=TRIALS
        )

    def contracts_on():
        with use_contracts(strict=False):
            MonteCarloEngine(seed=42).estimate_winning_probability(
                system, trials=TRIALS
            )

    t_off, t_on = _interleaved_minima(contracts_off, contracts_on)
    overhead = t_on / t_off - 1

    record(
        "contracts overhead on MC engine",
        off_ms=round(t_off * 1000, 1),
        on_ms=round(t_on * 1000, 1),
        overhead_pct=round(overhead * 100, 2),
        limit_pct=CONTRACTS_OVERHEAD_LIMIT * 100,
    )
    assert overhead < CONTRACTS_OVERHEAD_LIMIT
