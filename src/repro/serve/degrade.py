"""Deadline budgets and the tiered answer policy of the serving layer.

Every request enters with a :class:`Deadline` -- a monotonic-clock
budget fixed at admission time -- and the kernel tiers consume it in
order of cost:

1. **Certified float** (always runs): one vectorised Horner pass
   through the compiled piecewise table
   (:meth:`~repro.batch.compile.CompiledPiecewise.evaluate_with_bound`)
   yields the value *and* an a-posteriori error bound in microseconds.
   When the bound clears the tolerance the answer is final and
   bit-identical to the scalar float path.
2. **Exact fallback** (conditional): an uncertified point is recomputed
   by the exact ``Fraction`` kernel -- but only while deadline budget
   remains *and* the circuit breaker around the exact tier is closed.
   The fallback runs off-loop in the default executor with a timeout of
   the remaining budget, so a pathological point cannot stall the
   event loop or blow the request's deadline.
3. **Degraded** (always possible): when the budget is spent or the
   breaker is open, the float value from tier 1 is served as-is,
   explicitly flagged ``tier="degraded"`` and carrying its certified
   error bound.  Degradation is never silent: the response says
   exactly how wrong it can be.

The same ladder shapes ``/v1/optimal-strategy``:
:func:`certified_grid_optimum` is the degraded tier -- a dense float
grid over the compiled curve plus the per-piece Lipschitz ceiling of
:func:`~repro.optimize.threshold_opt.optimal_symmetric_threshold_batched`,
which brackets the true optimum ``P*`` in ``[floor, ceiling]`` with
sound (never heuristic) arithmetic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from repro.validation.enclosure import certifies  # re-exported

__all__ = [
    "Deadline",
    "GridOptimum",
    "certified_grid_optimum",
    "certifies",
]


class Deadline:
    """A request's time budget on the monotonic clock.

    Created once at admission; every tier asks :meth:`remaining`
    before spending work.  *clock* is injectable so the tests can
    drive expiry without sleeping.
    """

    __slots__ = ("_clock", "_start", "budget_seconds")

    def __init__(
        self,
        budget_ms: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        if budget_ms <= 0:
            raise ValueError(f"budget_ms must be positive, got {budget_ms}")
        self._clock = clock
        self._start = clock()
        self.budget_seconds = budget_ms / 1000.0

    def elapsed(self) -> float:
        """Seconds since admission."""
        return self._clock() - self._start

    def remaining(self) -> float:
        """Seconds of budget left (never negative)."""
        return max(0.0, self.budget_seconds - self.elapsed())

    @property
    def expired(self) -> bool:
        return self.elapsed() >= self.budget_seconds

    def __repr__(self) -> str:
        return (
            f"Deadline({self.budget_seconds * 1000:.0f}ms, "
            f"{self.remaining() * 1000:.0f}ms left)"
        )


@dataclass(frozen=True)
class GridOptimum:
    """The degraded tier's answer to "where is the maximum?".

    *probability* is the best sampled float value; the true optimum
    ``P*`` provably lies in ``[floor, ceiling]``, so
    ``|probability - P*| <= error_bound`` where ``error_bound =
    max(ceiling - probability, probability - floor)``.  *beta* is the
    best sampled abscissa, located to within *beta_resolution* of a
    true argmax only heuristically -- which is why the response flags
    the whole answer ``degraded`` rather than pretending precision.
    """

    beta: float
    probability: float
    floor: float
    ceiling: float
    beta_resolution: float

    @property
    def error_bound(self) -> float:
        return max(
            self.ceiling - self.probability, self.probability - self.floor
        )


def certified_grid_optimum(
    compiled, samples_per_piece: int = 128
) -> GridOptimum:
    """Bracket a compiled curve's maximum on a float grid, soundly.

    The same bound construction as the batched optimiser's pruning
    pass (:func:`optimal_symmetric_threshold_batched`): per piece, the
    exact derivative-magnitude (Lipschitz) bound ``sum i |c_i|
    M^(i-1)`` caps how far the true maximum can rise above the best
    sample, and the per-point float evaluation bounds cap what the
    samples themselves can lie about.  Unlike the optimiser this never
    opens the exact tier -- it is the degraded answer, built entirely
    from work already done in float.
    """
    import numpy as np

    pieces = compiled.exact.pieces
    count = max(samples_per_piece, 2)
    grids = [
        np.linspace(float(p.lower), float(p.upper), count) for p in pieces
    ]
    xs = np.concatenate(grids)
    values, bounds = compiled.evaluate_with_bound(xs)
    finite = np.isfinite(bounds)
    floor = (
        float(np.max(values[finite] - bounds[finite]))
        if bool(finite.any())
        else float("-inf")
    )
    ceiling = float("-inf")
    for index, piece in enumerate(pieces):
        sample_xs = grids[index]
        sample_values = values[index * count : (index + 1) * count]
        sample_bounds = bounds[index * count : (index + 1) * count]
        scale = max(abs(piece.lower), abs(piece.upper))
        lipschitz = Fraction(0)
        for degree, coeff in enumerate(piece.polynomial.coefficients):
            if degree:
                lipschitz += degree * abs(coeff) * scale ** (degree - 1)
        # Samples that land exactly on a piece edge can dispatch to the
        # neighbouring piece and come back with an infinite bound; drop
        # them and widen the Lipschitz coverage radius so every point of
        # the piece is still within reach of a trusted sample.
        trusted = np.isfinite(sample_bounds)
        if not bool(trusted.any()):
            ceiling = float("inf")
            break
        trusted_xs = sample_xs[trusted]
        reach = max(
            float(trusted_xs[0]) - float(piece.lower),
            float(piece.upper) - float(trusted_xs[-1]),
            float(np.max(np.diff(trusted_xs)) / 2.0)
            if trusted_xs.size > 1
            else 0.0,
        )
        slack = float(np.max(sample_bounds[trusted]))
        piece_ceiling = (
            float(np.max(sample_values[trusted]))
            + float(lipschitz) * reach * (1.0 + 1e-9)
            + slack
            + 1e-12
        )
        ceiling = max(ceiling, piece_ceiling)
    best = int(np.argmax(np.where(finite, values, float("-inf"))))
    resolution = max(
        float(p.width()) / (count - 1) for p in pieces
    )
    return GridOptimum(
        beta=float(xs[best]),
        probability=float(values[best]),
        floor=floor,
        ceiling=min(ceiling, 1.0),  # probabilities cannot exceed 1
        beta_resolution=resolution,
    )


async def exact_fallback_with_budget(
    exact_kernel: Callable[[], object],
    deadline: Deadline,
    min_budget_seconds: float = 0.005,
) -> Optional[object]:
    """Run the exact tier off-loop within the remaining budget.

    Returns the exact value, or ``None`` when the budget is already
    too thin to bother (*min_budget_seconds*) or expires mid-compute.
    A timed-out computation keeps running in its executor thread --
    Python offers no safe preemption -- but the request stops waiting
    for it; the circuit breaker exists precisely to stop *sustained*
    overruns from piling up such orphans.
    """
    import asyncio

    remaining = deadline.remaining()
    if remaining < min_budget_seconds:
        return None
    loop = asyncio.get_running_loop()
    try:
        return await asyncio.wait_for(
            loop.run_in_executor(None, exact_kernel), timeout=remaining
        )
    except asyncio.TimeoutError:
        return None
