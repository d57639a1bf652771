"""Certified float evaluation of alternating inclusion-exclusion sums.

Every closed form in the paper is an alternating sum of large terms
(Proposition 2.2, Lemmas 2.4-2.7): exact ``Fraction`` evaluation is
always correct but the integer arithmetic grows quickly with the
dimension, while naive float evaluation silently loses every digit to
cancellation once the terms dwarf the result (the classic Irwin-Hall
breakdown around ``m ~ 25``).

This module implements the middle road: **compensated (Neumaier)
summation with a running a-posteriori error bound**.  The sum is
evaluated in floats, and alongside it two cheap accumulators are
carried:

* the sum of term magnitudes, bounding the rounding error injected by
  the summation itself (``~ 2 eps * sum |term|`` for a compensated
  sum);
* the per-term error propagated from inexact inputs -- each caller
  supplies, with every term, a bound on the absolute error of the
  ``base`` being raised to the ``m``-th power, which a first-order
  (derivative) bound converts to a term error, with an explicit slack
  term when the base is close enough to zero that the paper's strict
  ``> 0`` condition might be misclassified in float.

The result is *certified* when the total bound is small relative to
the computed value; otherwise callers fall back to the exact path
(and count the event).  The bound is deliberately conservative -- a
false "not certified" costs a fallback, a false "certified" would be a
lie -- and the property suite asserts the certificate against exact
values on randomized cases.

Every certified probability any kernel returns -- exact, certified
float, asymptotic or degraded -- leaves it as an :class:`Enclosure`,
and :func:`certifies` is the one tolerance predicate all tiers share.

Pure float/math code apart from :func:`resolve_guarded`, which lazily
reaches into :mod:`repro.observability` to count certified results and
exact fallbacks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.errors import NumericalInstabilityError

__all__ = [
    "EPS",
    "Enclosure",
    "TIER_ASYMPTOTIC",
    "TIER_CERTIFIED",
    "TIER_DEGRADED",
    "TIER_EXACT",
    "certified_alternating_sum",
    "certifies",
    "neumaier_sum",
    "resolve_guarded",
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


def _tolerance(value: float) -> float:
    """The widest bound :func:`certifies` accepts for *value* at the
    default tolerances."""
    return max(DEFAULT_ABS_TOL, DEFAULT_REL_TOL * abs(value))


@dataclass(frozen=True)
class Enclosure:
    """A probability with a guaranteed bound and where it came from.

    The guarantee is ``|true value - value| <= error_bound``.
    *regime* is the tier that answered (a ``TIER_*`` constant),
    *method* the kernel inside it, *exact* the untruncated
    ``Fraction`` when there is one, and *m* the number of
    positive-width uniform summands when an asymptotic CDF kernel
    answered.  A plain frozen dataclass: the mixture hot path builds
    one per small-order factor.
    """

    value: float
    error_bound: float
    regime: str
    method: str
    exact: Optional[Fraction] = None
    m: Optional[int] = None

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


#: The answer of a float series that cannot even be evaluated: routed
#: through :func:`resolve_guarded` so the fallback policy and the
#: ``fastpath.fallbacks`` metrics apply uniformly.
_UNCERTIFIABLE = Enclosure(
    math.nan, math.inf, TIER_DEGRADED, "compensated-float"
)


def neumaier_sum(values: Iterable[float]) -> Tuple[float, float]:
    """Compensated sum of *values*: returns ``(total, abs_sum)``.

    Neumaier's variant of Kahan summation: the compensation term picks
    whichever of the running sum and the addend is smaller in
    magnitude, so it stays accurate even when an addend exceeds the
    running sum.  ``abs_sum`` (the sum of magnitudes) is what the
    caller needs to bound the residual rounding error.
    """
    total = 0.0
    compensation = 0.0
    abs_sum = 0.0
    for value in values:
        partial = total + value
        if abs(total) >= abs(value):
            compensation += (total - partial) + value
        else:
            compensation += (value - partial) + total
        total = partial
        abs_sum += abs(value)
    return total + compensation, abs_sum


def certified_alternating_sum(
    signed_bases: Iterable[Tuple[int, float, float]],
    power: int,
    normaliser: float,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> Enclosure:
    """Evaluate ``(1/normaliser) * sum sign * base**power`` with a bound.

    *signed_bases* yields ``(sign, base, base_error)`` triples: the
    paper's strict-condition convention applies, so terms with
    ``base <= 0`` contribute nothing.  *base_error* bounds the absolute
    error of *base* (from inexact shifts/ratios computed in float);
    a first-order bound ``power * base**(power-1) * base_error`` plus a
    relative ``(power + 1) * eps`` for the power itself converts it to
    a term error.  When ``|base| <= base_error`` the sign of the exact
    base is unknown, so the slack ``(2 * base_error)**power`` covers a
    possible misclassification of the strict condition.

    The result is ``certified`` when the accumulated bound
    :func:`certifies` the value, and ``degraded`` otherwise.
    """
    if power < 1:
        raise ValueError(f"power must be >= 1, got {power}")
    if normaliser == 0.0:
        raise ValueError("normaliser must be nonzero")
    addends = []
    term_error = 0.0
    try:
        for sign, base, base_error in signed_bases:
            if abs(base) <= base_error:
                # The exact base may sit on the other side of the strict
                # condition; whichever way, the term is at most this big.
                term_error += (2.0 * base_error) ** power
            if base <= 0.0:
                continue
            term = base**power
            term_error += term * (power + 1) * EPS
            if base_error > 0.0:
                term_error += power * base ** (power - 1) * base_error
            addends.append(term if sign > 0 else -term)
    except OverflowError:
        # A term escaped float range (float ** int raises instead of
        # returning inf).  The series is unsalvageable in floats; hand
        # the caller an uncertified result so the normal fallback
        # policy -- not an exception -- decides what happens next.
        return _UNCERTIFIABLE
    raw, abs_sum = neumaier_sum(addends)
    # Compensated summation leaves ~2 eps per unit of magnitude summed,
    # plus one rounding for folding the compensation back in.
    summation_error = 2.0 * EPS * abs_sum + EPS * abs(raw)
    scale = abs(normaliser)
    value = raw / normaliser
    bound = (term_error + summation_error) / scale + 2.0 * EPS * abs(value)
    if certifies(value, bound, rel_tol, abs_tol):
        return Enclosure(value, bound, TIER_CERTIFIED, "compensated-float")
    return Enclosure(value, bound, TIER_DEGRADED, "compensated-float")


def resolve_guarded(
    context: str,
    guarded: Enclosure,
    exact_thunk,
    fallback: str = "exact",
) -> float:
    """Apply the fallback policy to a guarded evaluation.

    Certified results are returned as-is.  Uncertified results either
    fall back to *exact_thunk* (``fallback="exact"``, the transparent
    default) or raise (``fallback="raise"``).  Both outcomes are
    counted on the active metrics registry: ``fastpath.calls``,
    ``fastpath.certified``, ``fastpath.fallbacks`` and a per-context
    ``fastpath.fallbacks.<context>`` -- so an operator reading a
    ``--profile`` report sees exactly how often the exact path had to
    step in.
    """
    if fallback not in ("exact", "raise"):
        raise ValueError(
            f"fallback must be 'exact' or 'raise', got {fallback!r}"
        )
    from repro.observability import get_instrumentation

    instr = get_instrumentation()
    if instr.enabled:
        instr.increment("fastpath.calls")
        if guarded.certified:
            instr.increment("fastpath.certified")
        else:
            instr.increment("fastpath.fallbacks")
            instr.increment(f"fastpath.fallbacks.{context}")
    if guarded.certified:
        return guarded.value
    if fallback == "raise":
        raise NumericalInstabilityError(
            f"{context}: float result {guarded.value!r} carries error "
            f"bound {guarded.error_bound:.3e}, too wide to certify; "
            "use the exact Fraction path"
        )
    return float(exact_thunk())
