"""Parameter-sweep runners producing experiment records.

The figures and tables of the paper are sweeps: winning probability
against the common threshold ``beta`` (Figures 1-2) or against the
player count ``n`` (the uniformity table).  These helpers run such
sweeps through either the exact formulas, the Monte Carlo engine, or
both, and return plain records that the reporting layer renders.

Both sweeps accept ``workers=`` and forward it to the engine, so large
validation grids shard across a process pool without changing their
results (see :mod:`repro.simulation.parallel`).  With instrumentation
active (see :mod:`repro.observability`) each sweep wraps itself and
every grid point in spans and counts points simulated -- without
touching any random stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Sequence

from repro.core.nonoblivious import symmetric_threshold_winning_probability
from repro.core.oblivious import optimal_oblivious_winning_probability
from repro.errors import ValidationError
from repro.model.algorithms import SingleThresholdRule
from repro.model.system import DistributedSystem
from repro.observability import get_instrumentation
from repro.simulation.engine import MonteCarloEngine
from repro.simulation.faulttolerance import FaultToleranceConfig
from repro.symbolic.rational import RationalLike, as_fraction, rational_range

__all__ = [
    "BatchSweepStats",
    "SweepPoint",
    "SweepResult",
    "sweep_players",
    "sweep_thresholds",
]


@dataclass(frozen=True)
class BatchSweepStats:
    """How the batch layer served a sweep: points evaluated, points
    certified within the float error bound, and points that fell back
    to the exact ``Fraction`` kernel."""

    points: int
    certified: int
    fallbacks: int

    @property
    def fallback_rate(self) -> float:
        return self.fallbacks / self.points if self.points else 0.0


@dataclass(frozen=True)
class SweepPoint:
    """One point of a sweep: the parameter, the exact value, and (when a
    Monte Carlo check ran) the simulated estimate with its interval."""

    parameter: Fraction
    exact: Fraction
    simulated: Optional[float] = None
    interval: Optional[tuple] = None

    @property
    def consistent(self) -> Optional[bool]:
        """Whether the exact value falls in the simulated interval
        (None when no simulation ran)."""
        if self.interval is None:
            return None
        lo, hi = self.interval
        return lo <= float(self.exact) <= hi


@dataclass
class SweepResult:
    """A labelled series of sweep points.

    ``batch`` records how the batch layer served the sweep when it ran
    in batched mode (``None`` for the scalar exact path)."""

    label: str
    points: List[SweepPoint] = field(default_factory=list)
    batch: Optional[BatchSweepStats] = None

    @property
    def any_simulated(self) -> bool:
        """Whether at least one point carries a Monte Carlo check."""
        return any(p.consistent is not None for p in self.points)

    def all_consistent(self) -> Optional[bool]:
        """Whether every simulated point covers its exact value.

        Returns ``None`` when *no* point was simulated at all -- an
        exact-only sweep carries no Monte Carlo evidence, so it must
        not read as a passed validation.  (An earlier revision returned
        ``True`` here, letting a sweep "pass" vacuously.)  Points
        without intervals in a partially-simulated sweep are skipped.
        """
        if not self.any_simulated:
            return None
        return all(p.consistent is not False for p in self.points)

    def best(self) -> SweepPoint:
        """The point with the largest exact value."""
        return max(self.points, key=lambda p: p.exact)


def sweep_thresholds(
    n: int,
    delta: RationalLike,
    grid: Optional[Sequence[RationalLike]] = None,
    grid_size: int = 101,
    simulate: bool = False,
    trials: int = 100_000,
    seed: Optional[int] = None,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    fault_tolerance: Optional[FaultToleranceConfig] = None,
    batch: bool = False,
) -> SweepResult:
    """Winning probability of the symmetric threshold rule over a ``beta`` grid.

    Exact values come from Theorem 5.1; with ``simulate=True`` each grid
    point is also estimated by Monte Carlo and the Wilson interval
    recorded (this is the validation mode used by the integration
    tests and benchmark harness).  *workers*, *shards* and
    *fault_tolerance* are forwarded to
    :meth:`MonteCarloEngine.estimate_winning_probability`; because each
    grid point runs on its own named stream, one checkpoint file can
    carry an entire interrupted sweep across a resume.

    With ``batch=True`` the exact column is served by the vectorised
    batch layer (:mod:`repro.batch`): the grid is evaluated **at the
    float64 image of each beta** in one compiled pass, each point's
    value is either certified within the fastpath error bound (and
    recorded as the certified float's rational image) or served by the
    exact ``Fraction`` kernel at that float point.  The returned
    result carries :class:`BatchSweepStats`; ``sweep.batch_points`` is
    counted on the metrics.  Betas that are not exactly
    float64-representable are evaluated at their rounded image -- use
    the scalar path when exact evaluation at such betas matters.
    """
    d = as_fraction(delta)
    if d <= 0:
        raise ValidationError(f"delta must be positive, got {d}")
    betas = (
        [as_fraction(b) for b in grid]
        if grid is not None
        else rational_range(0, 1, grid_size)
    )
    engine = MonteCarloEngine(seed=seed) if simulate else None
    instr = get_instrumentation()
    points = []
    batch_stats = None
    batch_exacts: Optional[List[Fraction]] = None
    if batch:
        import numpy as np

        from repro.batch.tables import compiled_threshold_curve

        compiled = compiled_threshold_curve(n, d)
        xs = np.array([float(b) for b in betas], dtype=np.float64)
        result = compiled.evaluate_certified(xs)
        batch_exacts = [
            result.exact_fallbacks.get(i, None) for i in range(len(betas))
        ]
        batch_exacts = [
            as_fraction(result.values[i]) if exact_value is None else exact_value
            for i, exact_value in enumerate(batch_exacts)
        ]
        batch_stats = BatchSweepStats(
            points=result.points,
            certified=result.points - result.fallback_count,
            fallbacks=result.fallback_count,
        )
        instr.increment("sweep.batch_points", result.points)
        instr.emit(
            "batch",
            points=batch_stats.points,
            certified=batch_stats.certified,
            fallbacks=batch_stats.fallbacks,
        )
    with instr.span(
        "sweep.thresholds",
        n=n,
        delta=str(d),
        grid_points=len(betas),
        simulate=simulate,
    ):
        for index, beta in enumerate(betas):
            with instr.span("sweep.point", beta=str(beta)):
                exact = (
                    batch_exacts[index]
                    if batch_exacts is not None
                    else symmetric_threshold_winning_probability(beta, n, d)
                )
                simulated = None
                interval = None
                if engine is not None:
                    system = DistributedSystem(
                        [SingleThresholdRule(beta) for _ in range(n)], d
                    )
                    summary = engine.estimate_winning_probability(
                        system,
                        trials=trials,
                        stream=f"beta={beta}",
                        workers=workers,
                        shards=shards,
                        fault_tolerance=fault_tolerance,
                    )
                    simulated = summary.estimate
                    interval = summary.interval
                    instr.increment("sweep.points_simulated")
                instr.increment("sweep.points")
                instr.emit(
                    "point",
                    label=f"beta={beta}",
                    index=index,
                    total=len(betas),
                )
            points.append(
                SweepPoint(
                    parameter=beta,
                    exact=exact,
                    simulated=simulated,
                    interval=interval,
                )
            )
    return SweepResult(
        label=f"n={n}, delta={d}", points=points, batch=batch_stats
    )


def sweep_players(
    ns: Sequence[int],
    delta_of_n: Callable[[int], RationalLike],
    value_of_n: Callable[[int, Fraction], Fraction] = (
        lambda n, d: optimal_oblivious_winning_probability(d, n)
    ),
    label: str = "optimal oblivious",
    system_of_n: Optional[
        Callable[[int, Fraction], DistributedSystem]
    ] = None,
    simulate: bool = False,
    trials: int = 100_000,
    seed: Optional[int] = None,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    fault_tolerance: Optional[FaultToleranceConfig] = None,
) -> SweepResult:
    """Sweep a per-``n`` exact quantity (default: the Theorem 4.3 optimum).

    *delta_of_n* maps the player count to the capacity (e.g. constant 1,
    or the scaled ``n/3`` used in Section 5.2.2).

    With ``simulate=True``, *system_of_n* must build the executable
    system for each ``(n, delta)`` pair; every point then also records
    a Monte Carlo estimate (stream ``f"n={n}"``), with *workers*,
    *shards* and *fault_tolerance* forwarded to the engine.
    """
    if simulate and system_of_n is None:
        raise ValueError("simulate=True requires system_of_n")
    engine = MonteCarloEngine(seed=seed) if simulate else None
    instr = get_instrumentation()
    ns = list(ns)
    points = []
    with instr.span(
        "sweep.players",
        label=label,
        grid_points=len(ns),
        simulate=simulate,
    ):
        for point_index, n in enumerate(ns):
            # The distributed model needs at least two players; n = 1
            # used to slip past this guard and fail deep inside the
            # kernels instead of at the API boundary.
            if n < 2:
                raise ValueError(f"player counts must be >= 2, got {n}")
            d = as_fraction(delta_of_n(n))
            with instr.span("sweep.point", n=n, delta=str(d)):
                simulated = None
                interval = None
                if engine is not None:
                    summary = engine.estimate_winning_probability(
                        system_of_n(n, d),
                        trials=trials,
                        stream=f"n={n}",
                        workers=workers,
                        shards=shards,
                        fault_tolerance=fault_tolerance,
                    )
                    simulated = summary.estimate
                    interval = summary.interval
                    instr.increment("sweep.points_simulated")
                instr.increment("sweep.points")
                instr.emit(
                    "point",
                    label=f"n={n}",
                    index=point_index,
                    total=len(ns),
                )
            points.append(
                SweepPoint(
                    parameter=Fraction(n),
                    exact=value_of_n(n, d),
                    simulated=simulated,
                    interval=interval,
                )
            )
    return SweepResult(label=label, points=points)
