"""The answer type every tier shares, and its tolerance predicate.

Every certified probability any kernel returns -- exact, batch,
asymptotic or degraded -- leaves it as an :class:`Enclosure`: a float,
a guaranteed bound on its distance from the exact value, and the tier
that produced it.  :func:`certifies` is the one tolerance predicate
the batch layer's compiled tables and the serve layer's degradation
ladder share, and :data:`EPS` the machine epsilon their bounds are
written in.

Pure float/math code with no imports from the rest of the package.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "EPS",
    "Enclosure",
    "TIER_ASYMPTOTIC",
    "TIER_CERTIFIED",
    "TIER_DEGRADED",
    "TIER_EXACT",
    "certifies",
]

#: Machine epsilon of IEEE-754 double precision (2**-52).
EPS: float = sys.float_info.epsilon

#: Answer tiers, in the serving layer's order of preference.
TIER_CERTIFIED = "certified"  # float value, bound clears tolerance
TIER_EXACT = "exact"  # correctly rounded exact Fraction
TIER_ASYMPTOTIC = "asymptotic"  # large-n tier: certified analytic bound
TIER_DEGRADED = "degraded"  # float value whose bound did not certify

#: Default certification tolerances of every float tier.
DEFAULT_REL_TOL = 1e-9
DEFAULT_ABS_TOL = 1e-15


def certifies(
    value: float,
    bound: float,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> bool:
    """Whether a float answer's a-posteriori *bound* is small enough,
    relative to *value*, for the float to stand in for the exact
    result: ``bound <= max(abs_tol, rel_tol * |value|)``.

    Written as two comparisons so that it also works elementwise on
    numpy arrays of values and bounds.
    """
    return (bound <= abs_tol) | (bound <= rel_tol * abs(value))


@dataclass(frozen=True)
class Enclosure:
    """A probability with a guaranteed bound and where it came from.

    The guarantee is ``|true value - value| <= error_bound``.
    *regime* is the tier that answered (a ``TIER_*`` constant),
    *method* the kernel inside it, and *exact* the untruncated
    ``Fraction`` when there is one.  A plain frozen dataclass: the
    mixture hot path builds one per small-order factor.
    """

    value: float
    error_bound: float
    regime: str
    method: str
    exact: Optional[Fraction] = None

    @classmethod
    def of_fraction(
        cls,
        exact: Fraction,
        method: str,
        error_bound: Optional[float] = None,
    ) -> "Enclosure":
        """The exact tier's answer: *exact* correctly rounded to float.

        ``float(Fraction)`` is correctly rounded, so the default bound
        is ``eps * |value|`` -- floored at the smallest subnormal when
        the conversion underflows.  *error_bound* overrides it for
        values known to convert exactly.
        """
        value = float(exact)
        if error_bound is None:
            error_bound = (
                max(EPS * abs(value), math.ulp(0.0)) if exact else 0.0
            )
        return cls(value, error_bound, TIER_EXACT, method, exact)

    @property
    def certified(self) -> bool:
        """Whether the bound met its tier's contract (every tier but
        ``degraded``)."""
        return self.regime != TIER_DEGRADED

    @property
    def bracket(self) -> Tuple[float, float]:
        """Certified ``(floor, ceiling)`` enclosure, clipped to [0, 1]."""
        return (
            max(0.0, self.value - self.error_bound),
            min(1.0, self.value + self.error_bound),
        )

    def fields(self, **between: Any) -> Dict[str, Any]:
        """The ``value, error_bound, floor, ceiling, ..., regime,
        method`` block of a JSON payload; *between* goes before
        ``regime``."""
        floor, ceiling = self.bracket
        return {
            "value": self.value,
            "error_bound": self.error_bound,
            "floor": floor,
            "ceiling": ceiling,
            **between,
            "regime": self.regime,
            "method": self.method,
        }
