"""Regime dispatch for sum-of-uniforms CDF queries.

One query interface, two evaluation tiers, chosen per call by the
order ``m``:

* **exact** (``m`` up to the policy's ceiling, 160 by default) -- the
  inclusion-exclusion kernel of
  :mod:`repro.probability.uniform_sums`: one integer sum and one
  ``Fraction`` per query, linear in ``m``.  The only error is the
  final correctly-rounded conversion to ``float`` (``<= eps/2``
  relative), reported as such; the exact ``Fraction`` rides along.
* **asymptotic** (larger ``m``) -- the Berry-Esseen / Edgeworth tier
  of :mod:`repro.probability.asymptotics`, ``O(1)`` for any ``m``
  with a rigorous analytic bound.

Every result is an :class:`~repro.validation.enclosure.Enclosure`
recording which tier answered and the guaranteed two-sided error
bound, so downstream consumers
(the large-``n`` winning-probability engine, the serve layer, the
validation grid) can propagate certified enclosures instead of bare
floats.  Dispatch decisions are counted on the active metrics
registry under ``asymptotics.dispatch.<regime>``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from repro.errors import ValidationError
from repro.probability.asymptotics import (
    _check_method,
    irwin_hall_cdf_asymptotic,
)
from repro.probability.uniform_sums import irwin_hall_cdf
from repro.symbolic.rational import RationalLike, as_fraction
from repro.validation.enclosure import (
    TIER_ASYMPTOTIC as REGIME_ASYMPTOTIC,
    TIER_EXACT as REGIME_EXACT,
    Enclosure,
)

__all__ = [
    "DEFAULT_POLICY",
    "REGIME_ASYMPTOTIC",
    "REGIME_EXACT",
    "RegimePolicy",
    "irwin_hall_cdf_regime",
]


@dataclass(frozen=True)
class RegimePolicy:
    """Crossover thresholds and the tail budget for regime dispatch.

    ``exact_max_m`` and ``certified_max_m`` both bound the Irwin-Hall
    order answered exactly; :attr:`exact_ceiling` is the larger of the
    two, and anything above it goes asymptotic.  ``exact_max_n`` is
    the player-count ceiling for the exact winning-probability
    formulas (the ``O(n^2)``/``O(2^n)`` layer above this module).
    ``tail_tol`` is the truncation budget the binomial-mixture
    evaluator may spend on discarding negligible mixture terms; it is
    added verbatim to the reported error bound.
    """

    exact_max_n: int = 20
    exact_max_m: int = 24
    certified_max_m: int = 160
    method: str = "edgeworth"
    tail_tol: float = 1e-12

    def __post_init__(self) -> None:
        _check_method(self.method)
        if self.exact_max_m < 0 or self.certified_max_m < 0:
            raise ValidationError("regime ceilings must be >= 0")
        if self.tail_tol <= 0.0:
            raise ValidationError(
                f"tail_tol must be positive, got {self.tail_tol}"
            )

    @property
    def exact_ceiling(self) -> int:
        """The largest Irwin-Hall order the exact tier answers."""
        return max(self.exact_max_m, self.certified_max_m)


DEFAULT_POLICY = RegimePolicy()


def _count(regime: str) -> None:
    from repro.observability import get_instrumentation

    instr = get_instrumentation()
    if instr.enabled:
        instr.increment("asymptotics.dispatch.calls")
        instr.increment(f"asymptotics.dispatch.{regime}")


def irwin_hall_cdf_regime(
    t: RationalLike, m: int, policy: RegimePolicy = DEFAULT_POLICY
) -> Enclosure:
    """``P(sum of m iid U[0,1] <= t)`` via the cheapest adequate tier.

    Dispatch: ``m <= policy.exact_ceiling`` -> exact Fraction kernel;
    larger ``m`` -> asymptotic tier.  The returned
    :class:`~repro.validation.enclosure.Enclosure` records the tier that
    produced the value and its guaranteed error bound.
    """
    if m < 0:
        raise ValidationError(f"m must be >= 0, got {m}")
    tt = as_fraction(t)
    if m == 0:
        _count(REGIME_EXACT)
        return Enclosure.of_fraction(
            Fraction(int(tt >= 0)), "empty-sum", error_bound=0.0
        )
    if m <= policy.exact_ceiling:
        _count(REGIME_EXACT)
        return Enclosure.of_fraction(
            irwin_hall_cdf(tt, m), "inclusion-exclusion"
        )
    _count(REGIME_ASYMPTOTIC)
    # Clamped to the support first: float() of a far-out-of-range
    # Fraction would overflow, and the tier short-circuits there anyway.
    # A positive t stays positive (the CDF is monotone, so rounding a
    # tiny t up to the smallest subnormal keeps the enclosure sound).
    t_f = max(float(min(tt, m)), math.ulp(0.0)) if tt > 0 else 0.0
    return irwin_hall_cdf_asymptotic(t_f, m, method=policy.method)
