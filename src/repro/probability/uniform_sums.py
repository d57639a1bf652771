"""Exact distributions of sums of independent uniforms (Section 2.2).

All core functions return exact :class:`fractions.Fraction` values.
Each scales its alternating series to one common denominator, sums it
in Python ``int``s (``alternating_power_sum`` for the symmetric
collapse, ``alternating_subset_power_sum`` over subsets, both in
:mod:`repro.symbolic.rational`) and builds one ``Fraction`` at the
end.  The paper's strict conditions become integer comparisons on the
same scale, so every cut-off is where the formula puts it.
The results implemented:

* **Lemma 2.4** -- for independent ``x_i ~ U[0, pi_i]``,

  ``F(t) = (1 / (m! prod pi_l)) * sum_{I : sum_{l in I} pi_l < t}
            (-1)^|I| (t - sum_{l in I} pi_l)^m``

* **Lemma 2.5** -- the density of the same sum (this answers Rota's
  research problem on "a nice formula for the density of n independent,
  uniformly distributed random variables").

* **Corollary 2.6** -- the Irwin-Hall CDF (all ``pi_i = 1``).

* **Lemma 2.7** -- for ``x_i ~ U[pi_i, 1]``,

  ``F(t) = 1 - (1 / (m! prod (1 - pi_l))) * sum_{I : |I| < m - t + sum pi_l}
             (-1)^|I| (m - t - |I| + sum_{l in I} pi_l)^m``

* The **joint probabilities** that Theorem 5.1 multiplies together:
  ``P(sum x_i <= t  and  every x_i <= alpha_i)`` and
  ``P(sum x_i <= t  and  every x_i >= alpha_i)`` for ``x_i ~ U[0, 1]``
  (i.e. the un-normalised numerators, where the paper's conditional
  probabilities have been multiplied back by ``P(y = b)``).

Boundary conventions (explicit, never left to the inclusion-exclusion
sum collapsing by accident; each is pinned by a dedicated test):

* the empty sum (``m = 0``) is the constant 0, so its CDF is 1 for
  ``t >= 0`` and 0 below, and it has no density;
* ``t <= 0`` gives CDF 0 and ``t >= sum(uppers)`` gives CDF 1 (the
  distribution is continuous, so the boundary points carry no mass
  and either closed/open convention yields the same value);
* a **zero-width interval** ``uppers[i] = 0`` is the constant 0 --
  it is dropped from the sum rather than rejected, so degenerate
  grids evaluate without special-casing by the caller.  Negative
  widths raise :class:`~repro.errors.ValidationError`.

There is no float variant: a float with a certified bound comes from
:func:`repro.probability.regimes.irwin_hall_cdf_regime`, which rounds
the exact Irwin-Hall value for orders up to the policy's ceiling (160
by default) and answers larger orders from the asymptotic tier.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence

from repro.cache import memoized_kernel
from repro.errors import ValidationError
from repro.symbolic.rational import (
    RationalLike,
    alternating_power_sum,
    alternating_power_sums,
    alternating_subset_power_sum,
    as_fraction,
    common_denominator,
    factorial,
)
from repro.validation.contracts import check_probability

__all__ = [
    "irwin_hall_cdf",
    "irwin_hall_pdf",
    "joint_sum_below_and_inside_boxes",
    "joint_sum_below_and_inside_high",
    "joint_sum_below_and_inside_low",
    "sum_uniform_cdf",
    "sum_uniform_pdf",
    "sum_uniform_tail_cdf",
]


def _validated_widths(
    values: Sequence[RationalLike], name: str
) -> List[Fraction]:
    """Interval widths: non-negative, with zero-width (constant 0)
    entries dropped -- adding the constant 0 never changes a sum."""
    out = [as_fraction(v) for v in values]
    for i, v in enumerate(out):
        if v < 0:
            raise ValidationError(
                f"{name}[{i}] must be >= 0 (a zero-width interval is "
                f"the constant 0), got {v}"
            )
    return [v for v in out if v != 0]


@memoized_kernel
def sum_uniform_cdf(t: RationalLike, uppers: Sequence[RationalLike]) -> Fraction:
    """Lemma 2.4: ``P(sum x_i <= t)`` for independent ``x_i ~ U[0, uppers[i]]``.

    For ``t <= 0`` returns 0; for ``t >= sum(uppers)`` returns 1 (both
    follow from the formula but are short-circuited for clarity and
    speed).  Zero-width entries of *uppers* are the constant 0 and are
    dropped; if every entry is zero-width the empty-sum convention
    applies.  Exponential in ``len(uppers)`` via subset enumeration --
    fine for the paper's small ``m``; use :func:`irwin_hall_cdf` for the
    identical-interval case, which is linear.
    """
    pi = _validated_widths(uppers, "uppers")
    m = len(pi)
    tt = as_fraction(t)
    if m == 0:
        return Fraction(1) if tt >= 0 else Fraction(0)
    if tt <= 0:
        return Fraction(0)
    _, (top, *widths) = common_denominator([tt, *pi])
    if top >= sum(widths):
        return Fraction(1)
    # the normaliser m! prod(pi) carries the numerator's scale^m
    total = alternating_subset_power_sum(top, widths, m)
    value = Fraction(total, factorial(m) * math.prod(widths))
    return check_probability("sum_uniform_cdf", value)


@memoized_kernel
def sum_uniform_pdf(t: RationalLike, uppers: Sequence[RationalLike]) -> Fraction:
    """Lemma 2.5: density of the sum of independent ``x_i ~ U[0, uppers[i]]``.

    This is the formula the paper offers as an answer to Rota's research
    problem.  The density is taken as the right-continuous version at
    knots; it vanishes outside ``(0, sum(uppers))``.  Zero-width
    entries of *uppers* are dropped (they shift nothing); if every
    entry is zero-width the sum is a point mass and has no density, so
    a :class:`~repro.errors.ValidationError` is raised, exactly as for
    an empty *uppers*.
    """
    pi = _validated_widths(uppers, "uppers")
    m = len(pi)
    tt = as_fraction(t)
    if m == 0:
        raise ValidationError(
            "the empty sum is a point mass; it has no density"
        )
    if tt <= 0:
        return Fraction(0)
    scale, (top, *widths) = common_denominator([tt, *pi])
    if top >= sum(widths):
        return Fraction(0)
    total = alternating_subset_power_sum(top, widths, m - 1)
    return Fraction(total * scale, factorial(m - 1) * math.prod(widths))


@memoized_kernel
def irwin_hall_cdf(t: RationalLike, m: int) -> Fraction:
    """Corollary 2.6: ``P(sum of m U[0,1] <= t)``, the Irwin-Hall CDF.

    ``F(t) = (1/m!) sum_{0 <= i <= m, i < t} (-1)^i C(m, i) (t - i)^m``

    Linear in ``m``.  ``m = 0`` returns 1 for ``t >= 0`` (empty sum);
    ``t <= 0`` returns 0 and ``t >= m`` returns 1.
    """
    if m < 0:
        raise ValidationError(f"m must be >= 0, got {m}")
    tt = as_fraction(t)
    if m == 0:
        return Fraction(1) if tt >= 0 else Fraction(0)
    if tt <= 0:
        return Fraction(0)
    if tt >= m:
        return Fraction(1)
    q = tt.denominator
    (total,) = alternating_power_sums(tt.numerator, q, [m])
    value = Fraction(total, factorial(m) * q**m)
    return check_probability("irwin_hall_cdf", value)


@memoized_kernel
def irwin_hall_pdf(t: RationalLike, m: int) -> Fraction:
    """Density of the Irwin-Hall distribution (Lemma 2.5 with unit boxes)."""
    if m < 1:
        raise ValidationError(f"m must be >= 1 for a density, got {m}")
    tt = as_fraction(t)
    if tt <= 0 or tt >= m:
        return Fraction(0)
    q = tt.denominator
    total = alternating_power_sum(tt.numerator, q, m, m - 1)
    return Fraction(total, factorial(m - 1) * q ** (m - 1))


@memoized_kernel
def sum_uniform_tail_cdf(
    t: RationalLike, lowers: Sequence[RationalLike]
) -> Fraction:
    """Lemma 2.7: ``P(sum x_i <= t)`` for independent ``x_i ~ U[lowers[i], 1]``.

    Derived in the paper by the reflection ``x'_i = 1 - x_i``:

    ``F(t) = 1 - (1/(m! prod (1 - pi_l))) *
             sum_{I : |I| < m - t + sum_{l in I} pi_l}
             (-1)^|I| (m - t - |I| + sum_{l in I} pi_l)^m``

    Every ``lowers[i]`` must lie in ``[0, 1)``; a degenerate
    ``lowers[i] = 1`` would make ``x_i`` an atom at the boundary,
    where the open/closed convention matters, so it is rejected with
    :class:`~repro.errors.ValidationError`.  Boundary behaviour: 0 for
    ``t <= sum(lowers)`` (the floor of the support), 1 for ``t >= m``,
    and the empty sum follows the ``m = 0`` convention of
    :func:`sum_uniform_cdf`.
    """
    pi = [as_fraction(v) for v in lowers]
    m = len(pi)
    tt = as_fraction(t)
    if m == 0:
        return Fraction(1) if tt >= 0 else Fraction(0)
    for i, v in enumerate(pi):
        if not 0 <= v < 1:
            raise ValidationError(
                f"lowers[{i}] must be in [0, 1), got {v}"
            )
    floor_sum = sum(pi, Fraction(0))
    if tt <= floor_sum:
        return Fraction(0)
    if tt >= m:
        return Fraction(1)
    # Reflection: 1 - x_i ~ U[0, 1 - pi_i]; P(sum x <= t) =
    # 1 - P(sum (1 - x) <= m - t) evaluated with Lemma 2.4.
    return check_probability(
        "sum_uniform_tail_cdf",
        1 - sum_uniform_cdf(m - tt, [1 - v for v in pi]),
    )


@memoized_kernel
def joint_sum_below_and_inside_low(
    t: RationalLike, alphas: Sequence[RationalLike]
) -> Fraction:
    """``P(sum x_i <= t  and  x_i <= alphas[i] for all i)`` with ``x_i ~ U[0,1]``.

    This is the first factor in Theorem 5.1 (the "bin 0" factor): the
    players whose output bit is 0 have, by the single-threshold rule,
    inputs in ``[0, alpha_i]``, and the bin wins when their sum stays
    below the capacity.  Equals the volume

    ``Vol(SigmaPi(t * 1, alpha)) =
      (1/m!) sum_{I : sum alpha_l < t} (-1)^|I| (t - sum_{l in I} alpha_l)^m``

    (no normalisation: the ambient density on the unit cube is 1).
    Empty *alphas* gives 1 for ``t >= 0``.
    """
    alpha = [as_fraction(v) for v in alphas]
    m = len(alpha)
    tt = as_fraction(t)
    if m == 0:
        return Fraction(1) if tt >= 0 else Fraction(0)
    for i, v in enumerate(alpha):
        if not 0 <= v <= 1:
            raise ValidationError(
                f"alphas[{i}] must be in [0, 1], got {v}"
            )
        if v == 0:
            # P(x_i <= 0) = 0: the joint event is null.
            return Fraction(0)
    if tt <= 0:
        return Fraction(0)
    scale, (top, *widths) = common_denominator([tt, *alpha])
    total = alternating_subset_power_sum(top, widths, m)
    value = Fraction(total, factorial(m) * scale**m)
    return check_probability("joint_sum_below_and_inside_low", value)


@memoized_kernel
def joint_sum_below_and_inside_boxes(
    t: RationalLike, intervals: Sequence
) -> Fraction:
    """``P(sum x_i <= t  and  x_i in [l_i, u_i] for all i)``, ``x_i ~ U[0,1]``.

    The common generalisation of the two threshold joints: each input
    is confined to its own sub-interval of ``[0, 1]``.  By the shift
    reduction,

    ``P = prod (u_i - l_i) * F(t - sum l_i)``

    with ``F`` the Lemma 2.4 CDF of the sum of uniforms on
    ``[0, u_i - l_i]``.  This is the primitive the interval-rule
    extension (``repro.core.interval_rules``) sums over segment
    choices.  *intervals* is a sequence of ``(lower, upper)`` pairs;
    the empty sequence gives 1 for ``t >= 0``.
    """
    pairs = [(as_fraction(l), as_fraction(u)) for l, u in intervals]
    tt = as_fraction(t)
    if not pairs:
        return Fraction(1) if tt >= 0 else Fraction(0)
    widths = []
    offset = Fraction(0)
    box = Fraction(1)
    for i, (lo, hi) in enumerate(pairs):
        if not 0 <= lo < hi <= 1:
            raise ValidationError(
                f"intervals[{i}] must satisfy 0 <= l < u <= 1, "
                f"got [{lo}, {hi}]"
            )
        widths.append(hi - lo)
        offset += lo
        box *= hi - lo
    return box * sum_uniform_cdf(tt - offset, widths)


@memoized_kernel
def joint_sum_below_and_inside_high(
    t: RationalLike, alphas: Sequence[RationalLike]
) -> Fraction:
    """``P(sum x_i <= t  and  x_i >= alphas[i] for all i)`` with ``x_i ~ U[0,1]``.

    The second factor in Theorem 5.1 (the "bin 1" factor):

    ``prod (1 - alpha_l) - (1/m!) sum_{I : |I| < m - t + sum alpha_l}
       (-1)^|I| (m - t - |I| + sum_{l in I} alpha_l)^m``

    Empty *alphas* gives 1 for ``t >= 0``.
    """
    alpha = [as_fraction(v) for v in alphas]
    m = len(alpha)
    tt = as_fraction(t)
    if m == 0:
        return Fraction(1) if tt >= 0 else Fraction(0)
    for i, v in enumerate(alpha):
        if not 0 <= v <= 1:
            raise ValidationError(
                f"alphas[{i}] must be in [0, 1], got {v}"
            )
    if 1 in alpha:
        # P(x_i >= 1) = 0.
        return Fraction(0)
    scale, (top, *lows) = common_denominator([tt, *alpha])
    if top <= sum(lows):
        return Fraction(0)
    # Reflection x_i -> 1 - x_i: the sum runs over the widths 1 - alpha_l
    # below m - t, and prod(1 - alpha_l) is the survival numerator.
    widths = [scale - a for a in lows]
    total = alternating_subset_power_sum(m * scale - top, widths, m)
    value = Fraction(math.prod(widths) * factorial(m) - total,
                     factorial(m) * scale**m)
    return check_probability("joint_sum_below_and_inside_high", value)
