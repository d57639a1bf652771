"""Near-optimal symmetric thresholds at asymptotic scale.

The exact optimizer (:mod:`repro.optimize.threshold_opt`) maximises
the piecewise-polynomial curve of Theorem 5.1 symbolically -- perfect
for the paper's ``n``, hopeless at ``n = 10**6``.  This module runs
the same one-dimensional search against the certified binomial-mixture
objective (:func:`repro.core.asymptotic.symmetric_threshold_winning_regime`):
a coarse grid to localise the maximum, then golden-section refinement,
then one final evaluation of the chosen threshold at full precision.

The result is *near*-optimal with an honest certificate: alongside the
chosen ``beta`` and its bracketed winning probability, the optimizer
reports ``gap_bound`` -- the largest amount by which any *evaluated*
candidate could beat the chosen one, computed from the certified
enclosures ``max_i (v_i + e_i) - (v* - e*)``.  This is a grid-restricted
certificate (the continuum between grid points is covered only by the
objective's smoothness, not by the bound), which is exactly the
guarantee the asymptotic tier can afford; callers needing the global
argmax use the exact tier.

Small ``n`` (``<= policy.exact_max_n``) transparently delegates to the
exact optimizer and wraps its answer, so callers can use this one
entry point across the full range of ``n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Optional, Tuple

from repro.errors import ValidationError
from repro.core.asymptotic import symmetric_threshold_winning_regime
from repro.probability.regimes import DEFAULT_POLICY, RegimePolicy
from repro.symbolic.rational import RationalLike, as_fraction
from repro.validation.fastpath import Enclosure

__all__ = [
    "AsymptoticOptimum",
    "near_optimal_symmetric_threshold",
]

#: 2 - golden ratio: the golden-section step factor.
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class AsymptoticOptimum:
    """A near-optimal threshold with certified value enclosure.

    ``probability`` carries the regime/bound provenance of the final
    full-precision evaluation at ``beta``; ``gap_bound`` certifies how
    far below the best *evaluated* candidate the choice can be (see
    the module docstring for the exact meaning).  When the exact tier
    answered, the exact optimum rides along in ``exact`` and
    ``gap_bound`` is 0.
    """

    n: int
    delta: Fraction
    beta: float
    probability: Enclosure
    gap_bound: float
    evaluations: int
    exact: Optional[object] = None

    @property
    def value(self) -> float:
        return self.probability.value

    @property
    def error_bound(self) -> float:
        return self.probability.error_bound

    @property
    def bracket(self) -> Tuple[float, float]:
        return self.probability.bracket

    def __str__(self) -> str:
        lo, hi = self.bracket
        # six significant digits through Decimal: a capacity beyond
        # float range must print, not overflow
        with localcontext() as context:
            context.prec = 6
            delta = Decimal(self.delta.numerator) / self.delta.denominator
        return (
            f"n={self.n}, delta={delta:g}: "
            f"beta~={self.beta:.6f}, P in [{lo:.6f}, {hi:.6f}] "
            f"({self.probability.regime}, gap <= {self.gap_bound:.2e})"
        )


def near_optimal_symmetric_threshold(
    n: int,
    delta: RationalLike,
    policy: RegimePolicy = DEFAULT_POLICY,
    grid_points: int = 9,
    refine_iterations: int = 18,
) -> AsymptoticOptimum:
    """Search ``beta -> P(beta)`` for a near-optimal common threshold.

    *grid_points* interior candidates localise the maximum; a
    golden-section refinement of *refine_iterations* steps narrows the
    bracket to width ``~0.618**iterations``; the winner is then
    re-evaluated at full precision.  The scan itself runs with a
    loosened tail budget (``sqrt(tail_tol)``, capped at 1e-6) because
    ranking candidates does not need the final bound's precision --
    only the returned evaluation does.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    d = as_fraction(delta)
    if d <= 0:
        raise ValidationError(f"delta must be positive, got {d}")
    if grid_points < 1:
        raise ValidationError(
            f"grid_points must be >= 1, got {grid_points}"
        )
    if n <= policy.exact_max_n:
        from repro.optimize.threshold_opt import optimal_symmetric_threshold

        exact = optimal_symmetric_threshold(n, d)
        return AsymptoticOptimum(
            n=n,
            delta=d,
            beta=float(exact.beta),
            probability=Enclosure.of_fraction(
                exact.probability, "piecewise-polynomial"
            ),
            gap_bound=0.0,
            evaluations=1,
            exact=exact,
        )

    scan_policy = replace(
        policy,
        tail_tol=max(policy.tail_tol, min(1e-6, math.sqrt(policy.tail_tol))),
    )

    evaluations = 0
    best_upper = -math.inf  # max over evaluated candidates of v + e

    def objective(beta: float) -> float:
        nonlocal evaluations, best_upper
        result = symmetric_threshold_winning_regime(
            beta, n, d, scan_policy
        )
        evaluations += 1
        upper = result.value + result.error_bound
        if upper > best_upper:
            best_upper = upper
        return result.value

    # Coarse grid over the open interval (0, 1).
    step = 1.0 / (grid_points + 1)
    grid = [(i + 1) * step for i in range(grid_points)]
    values = [objective(b) for b in grid]
    best = max(range(grid_points), key=values.__getitem__)
    lo = grid[best - 1] if best > 0 else 0.0
    hi = grid[best + 1] if best < grid_points - 1 else 1.0

    # Golden-section refinement on [lo, hi] (unimodal to the accuracy
    # that matters; the gap certificate covers any mis-ranking).
    x1 = lo + _GOLDEN * (hi - lo)
    x2 = hi - _GOLDEN * (hi - lo)
    f1 = objective(x1)
    f2 = objective(x2)
    for _ in range(refine_iterations):
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = lo + _GOLDEN * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = hi - _GOLDEN * (hi - lo)
            f2 = objective(x2)
    beta_hat = x1 if f1 >= f2 else x2

    final = symmetric_threshold_winning_regime(beta_hat, n, d, policy)
    gap = max(0.0, best_upper - (final.value - final.error_bound))

    from repro.observability import get_instrumentation

    instr = get_instrumentation()
    if instr.enabled:
        instr.increment("asymptotics.optimizer_searches")
        instr.increment("asymptotics.optimizer_evals", evaluations + 1)
    return AsymptoticOptimum(
        n=n,
        delta=d,
        beta=beta_hat,
        probability=final,
        gap_bound=gap,
        evaluations=evaluations + 1,
    )
