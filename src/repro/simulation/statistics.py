"""Binomial summaries and confidence intervals for Monte Carlo results.

The quantity every simulation estimates is a probability (the winning
probability), so the natural summary is a binomial proportion.  The
Wilson score interval is used rather than the normal ("Wald") interval
because winning probabilities near 0 or 1 appear routinely (e.g. large
``delta``), where the Wald interval badly under-covers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.errors import ValidationError

__all__ = ["BinomialSummary", "wilson_interval"]


def wilson_interval(
    successes: int, trials: int, z_score: float = 3.89
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    The default ``z_score`` of 3.89 corresponds to a two-sided tail of
    roughly 1e-4, chosen so that test assertions of the form "exact
    value inside the interval" fail spuriously about once per ten
    thousand runs.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(
            f"successes must be in [0, {trials}], got {successes}"
        )
    if z_score <= 0:
        raise ValueError(f"z_score must be positive, got {z_score}")
    p_hat = successes / trials
    z2 = z_score * z_score
    denom = 1 + z2 / trials
    centre = (p_hat + z2 / (2 * trials)) / denom
    spread = (
        z_score
        * math.sqrt(p_hat * (1 - p_hat) / trials + z2 / (4 * trials * trials))
        / denom
    )
    return (max(0.0, centre - spread), min(1.0, centre + spread))


@dataclass(frozen=True)
class BinomialSummary:
    """Point estimate plus Wilson interval for a simulated probability."""

    successes: int
    trials: int
    z_score: float = 3.89

    def __post_init__(self) -> None:
        # Validate eagerly (the interval computation validates too, but
        # failing at construction localises the error).
        wilson_interval(self.successes, self.trials, self.z_score)

    @property
    def estimate(self) -> float:
        return self.successes / self.trials

    @property
    def interval(self) -> Tuple[float, float]:
        return wilson_interval(self.successes, self.trials, self.z_score)

    @property
    def lower(self) -> float:
        return self.interval[0]

    @property
    def upper(self) -> float:
        return self.interval[1]

    @property
    def half_width(self) -> float:
        lo, hi = self.interval
        return (hi - lo) / 2

    def covers(self, value: float) -> bool:
        """Whether *value* lies inside the confidence interval."""
        lo, hi = self.interval
        return lo <= value <= hi

    def __str__(self) -> str:
        lo, hi = self.interval
        return (
            f"{self.estimate:.5f} [{lo:.5f}, {hi:.5f}] "
            f"({self.successes}/{self.trials})"
        )
