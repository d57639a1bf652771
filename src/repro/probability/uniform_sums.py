"""Exact distributions of sums of independent uniforms (Section 2.2).

All core functions return exact :class:`fractions.Fraction` values.
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

The ``*_fast`` variants evaluate the same alternating series in
compensated float arithmetic with a running error bound (see
:mod:`repro.validation.fastpath`): they return the float when the
bound certifies it and transparently fall back to the exact
``Fraction`` path otherwise, counting the fallback in the metrics.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import List, Sequence

from repro.cache import memoized_kernel
from repro.errors import ValidationError
from repro.probability.inclusion_exclusion import alternating_symmetric_sum
from repro.symbolic.rational import (
    RationalLike,
    as_fraction,
    binomial,
    factorial,
)
from repro.validation.contracts import check_probability
from repro.validation.fastpath import (
    EPS,
    _UNCERTIFIABLE,
    certified_alternating_sum,
    resolve_guarded,
)

__all__ = [
    "IrwinHallFastContext",
    "SumUniformFastContext",
    "irwin_hall_cdf",
    "irwin_hall_cdf_fast",
    "irwin_hall_pdf",
    "joint_sum_below_and_inside_boxes",
    "joint_sum_below_and_inside_high",
    "joint_sum_below_and_inside_low",
    "sum_uniform_cdf",
    "sum_uniform_cdf_fast",
    "sum_uniform_pdf",
    "sum_uniform_tail_cdf",
]


def _validated_positive(
    values: Sequence[RationalLike], name: str
) -> List[Fraction]:
    out = [as_fraction(v) for v in values]
    for i, v in enumerate(out):
        if v <= 0:
            raise ValidationError(f"{name}[{i}] must be positive, got {v}")
    return out


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
    identical-interval case, which is linear, or
    :func:`sum_uniform_cdf_fast` for a certified float.
    """
    pi = _validated_widths(uppers, "uppers")
    m = len(pi)
    tt = as_fraction(t)
    if m == 0:
        return Fraction(1) if tt >= 0 else Fraction(0)
    if tt <= 0:
        return Fraction(0)
    total_span = sum(pi, Fraction(0))
    if tt >= total_span:
        return Fraction(1)
    normaliser = factorial(m)
    for v in pi:
        normaliser *= v

    total = Fraction(0)
    for size in range(m + 1):
        sign = (-1) ** size
        for subset in combinations(pi, size):
            shift = sum(subset, Fraction(0))
            if shift < tt:
                total += sign * (tt - shift) ** m
    return check_probability("sum_uniform_cdf", total / normaliser)


class SumUniformFastContext:
    """Hoisted precomputation for grid evaluation of :func:`sum_uniform_cdf_fast`.

    The Lemma 2.4 series depends on *t* only through the per-subset
    base ``t - shift``: the subset enumeration, the exact subset shifts
    (an ``fsum`` each), the normaliser and the float conversions are
    all functions of *uppers* alone.  A loop over a ``t`` grid used to
    redo that ``O(2^m)`` prefix on every call; building the context
    once hoists it, and :meth:`cdf` then reuses it per point.

    The per-point arithmetic -- term order, base subtraction, error
    model, certification, fallback -- is *identical* to a fresh
    :func:`sum_uniform_cdf_fast` call, so the hoisted path returns
    bit-identical certified values (pinned by a regression test).
    """

    __slots__ = (
        "_pi",
        "_m",
        "_normaliser",
        "_normaliser_f",
        "_t_span",
        "_shifts",
        "_float_ready",
    )

    def __init__(self, uppers: Sequence[RationalLike]):
        self._pi = _validated_widths(uppers, "uppers")
        self._m = len(self._pi)
        normaliser = factorial(self._m)
        for v in self._pi:
            normaliser *= v
        self._normaliser = normaliser
        self._t_span = sum(self._pi, Fraction(0))
        # The float mirror of the exact inputs.  ``float(Fraction)``
        # RAISES OverflowError past ~1e308 (m! times wide intervals
        # gets there quickly), and extreme widths can also round the
        # normaliser to inf or to 0.0 -- in every such case the fast
        # path cannot even be attempted, so the context is marked
        # float-unready and :meth:`cdf` goes straight to the fallback
        # policy instead of blowing up.
        try:
            pi_f = [float(v) for v in self._pi]
            normaliser_f = float(normaliser)
            float_ready = (
                math.isfinite(normaliser_f)
                and normaliser_f != 0.0
                and all(map(math.isfinite, pi_f))
            )
        except OverflowError:
            pi_f = []
            normaliser_f = math.inf
            float_ready = False
        self._normaliser_f = normaliser_f
        self._float_ready = float_ready
        # (sign, shift) per subset, in the exact enumeration order of
        # the un-hoisted implementation: sizes ascending, and within a
        # size the itertools.combinations order.
        shifts = []
        if float_ready:
            for size in range(self._m + 1):
                sign = 1 if size % 2 == 0 else -1
                for subset in combinations(pi_f, size):
                    shifts.append((sign, math.fsum(subset)))
        self._shifts = tuple(shifts)

    @property
    def m(self) -> int:
        """Number of (positive-width) summands."""
        return self._m

    def cdf(
        self,
        t: RationalLike,
        rel_tol: float = 1e-9,
        abs_tol: float = 1e-15,
        fallback: str = "exact",
    ) -> float:
        """One guarded evaluation, bit-identical to
        :func:`sum_uniform_cdf_fast` at the same arguments."""
        tt = as_fraction(t)
        if self._m == 0:
            return 1.0 if tt >= 0 else 0.0
        if tt <= 0:
            return 0.0
        if tt >= self._t_span:
            return 1.0
        t_f = math.inf
        if self._float_ready:
            try:
                t_f = float(tt)
            except OverflowError:
                t_f = math.inf
        if not math.isfinite(t_f):
            # Inputs outside float range: the fast path cannot run, but
            # the fallback contract still must -- hand resolve_guarded
            # an uncertified sentinel so the event is counted as
            # ``fastpath.fallbacks`` and the fallback="raise" policy
            # raises NumericalInstabilityError instead of OverflowError.
            guarded = _UNCERTIFIABLE
        else:

            def bases():
                for sign, shift in self._shifts:
                    # t and the shift are correctly-rounded conversions
                    # and an exact fsum; the subtraction adds one more
                    # rounding.
                    error = 3.0 * EPS * (t_f + shift)
                    yield (sign, t_f - shift, error)

            guarded = certified_alternating_sum(
                bases(),
                self._m,
                self._normaliser_f,
                rel_tol=rel_tol,
                abs_tol=abs_tol,
            )
        value = resolve_guarded(
            "sum_uniform_cdf",
            guarded,
            lambda: sum_uniform_cdf(tt, self._pi),
            fallback=fallback,
        )
        return min(1.0, max(0.0, value))


def sum_uniform_cdf_fast(
    t: RationalLike,
    uppers: Sequence[RationalLike],
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-15,
    fallback: str = "exact",
) -> float:
    """Guarded float fast path for :func:`sum_uniform_cdf`.

    Evaluates the Lemma 2.4 alternating series in compensated float
    arithmetic with a running error bound; returns the float when the
    bound certifies it to *rel_tol* / *abs_tol* and otherwise falls
    back to the exact path (``fallback="exact"``, counted in the
    metrics as ``fastpath.fallbacks``) or raises
    :class:`~repro.errors.NumericalInstabilityError`
    (``fallback="raise"``).

    Calling this in a loop over a ``t`` grid redoes the ``O(2^m)``
    subset precomputation every time; build a
    :class:`SumUniformFastContext` once instead (this function is a
    thin wrapper over a fresh context, so the two paths cannot drift).
    """
    return SumUniformFastContext(uppers).cdf(
        t, rel_tol=rel_tol, abs_tol=abs_tol, fallback=fallback
    )


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
    if tt <= 0 or tt >= sum(pi, Fraction(0)):
        return Fraction(0)
    normaliser = factorial(m - 1)
    for v in pi:
        normaliser *= v

    total = Fraction(0)
    for size in range(m + 1):
        sign = (-1) ** size
        for subset in combinations(pi, size):
            shift = sum(subset, Fraction(0))
            if shift < tt:
                total += sign * (tt - shift) ** (m - 1)
    return total / normaliser


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
    total = alternating_symmetric_sum(
        m,
        term=lambda i: (tt - i) ** m,
        condition=lambda i: i < tt,
    )
    return check_probability("irwin_hall_cdf", total / factorial(m))


class IrwinHallFastContext:
    """Hoisted precomputation for grid evaluation of :func:`irwin_hall_cdf_fast`.

    The per-term weight ``(C(m, i)/m!)**(1/m)`` (taken via log-gamma)
    depends only on ``m`` and ``i``; a scalar loop over a ``t`` grid
    used to recompute the two ``lgamma`` calls and the ``exp`` for
    every term of every point.  The context computes the per-``i``
    ``(sign, scale, log_coeff)`` triples once; :meth:`cdf` replays the
    same term order (including the ``i < t`` truncation) with the same
    arithmetic, so certified values are bit-identical to the un-hoisted
    path (pinned by a regression test).
    """

    __slots__ = ("_m", "_terms")

    def __init__(self, m: int):
        if m < 0:
            raise ValidationError(f"m must be >= 0, got {m}")
        self._m = m
        terms = []
        for i in range(m + 1):
            sign = 1 if i % 2 == 0 else -1
            if m == 0:
                terms.append((sign, 1.0, 0.0))
                continue
            # (C(m, i) / m!) ** (1/m) = (i! (m-i)!) ** (-1/m)
            log_coeff = -(math.lgamma(i + 1) + math.lgamma(m - i + 1))
            scale = math.exp(log_coeff / m)
            terms.append((sign, scale, log_coeff))
        self._terms = tuple(terms)

    @property
    def m(self) -> int:
        """Number of unit-uniform summands."""
        return self._m

    def cdf(
        self,
        t: RationalLike,
        rel_tol: float = 1e-9,
        abs_tol: float = 1e-15,
        fallback: str = "exact",
    ) -> float:
        """One guarded evaluation, bit-identical to
        :func:`irwin_hall_cdf_fast` at the same arguments."""
        m = self._m
        tt = as_fraction(t)
        if m == 0:
            return 1.0 if tt >= 0 else 0.0
        if tt <= 0:
            return 0.0
        if tt >= m:
            return 1.0
        t_f = float(tt)

        def bases():
            for i, (sign, scale, log_coeff) in enumerate(self._terms):
                if not i < tt:
                    break
                base = scale * (t_f - i)
                # conversion + subtraction errors, plus the log/exp
                # route's relative error amplified by the later m-th
                # power is covered by the derivative term in the
                # certifier.
                error = scale * 2.0 * EPS * (t_f + i) + abs(base) * EPS * (
                    abs(log_coeff) / m + 4.0
                )
                yield (sign, base, error)

        guarded = certified_alternating_sum(
            bases(), m, 1.0, rel_tol=rel_tol, abs_tol=abs_tol
        )
        value = resolve_guarded(
            "irwin_hall_cdf",
            guarded,
            lambda: irwin_hall_cdf(tt, m),
            fallback=fallback,
        )
        return min(1.0, max(0.0, value))


def irwin_hall_cdf_fast(
    t: RationalLike,
    m: int,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-15,
    fallback: str = "exact",
) -> float:
    """Guarded float fast path for :func:`irwin_hall_cdf`.

    The binomial weight and the ``1/m!`` normaliser are folded into
    each term's base as ``(C(m, i)/m!)**(1/m)`` via log-gamma, so the
    evaluation neither overflows nor underflows for large ``m`` -- the
    regime where the exact path's integer arithmetic is slowest and
    where naive float summation loses every digit to cancellation
    (around ``m ~ 25`` at central ``t``).  Certification and fallback
    behave exactly as in :func:`sum_uniform_cdf_fast`.

    Calling this in a loop over a ``t`` grid recomputes the log-gamma
    weights every time; build an :class:`IrwinHallFastContext` once
    instead (this function is a thin wrapper over a fresh context, so
    the two paths cannot drift).
    """
    return IrwinHallFastContext(m).cdf(
        t, rel_tol=rel_tol, abs_tol=abs_tol, fallback=fallback
    )


@memoized_kernel
def irwin_hall_pdf(t: RationalLike, m: int) -> Fraction:
    """Density of the Irwin-Hall distribution (Lemma 2.5 with unit boxes)."""
    if m < 1:
        raise ValidationError(f"m must be >= 1 for a density, got {m}")
    tt = as_fraction(t)
    if tt <= 0 or tt >= m:
        return Fraction(0)
    total = alternating_symmetric_sum(
        m,
        term=lambda i: (tt - i) ** (m - 1),
        condition=lambda i: i < tt,
    )
    return total / factorial(m - 1)


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

    total = Fraction(0)
    for size in range(m + 1):
        sign = (-1) ** size
        for subset in combinations(alpha, size):
            shift = sum(subset, Fraction(0))
            if shift < tt:
                total += sign * (tt - shift) ** m
    return check_probability(
        "joint_sum_below_and_inside_low", total / factorial(m)
    )


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
    survival = Fraction(1)
    for v in alpha:
        survival *= 1 - v
    if survival == 0:
        # Some alpha_i == 1: P(x_i >= 1) = 0.
        return Fraction(0)
    floor_sum = sum(alpha, Fraction(0))
    if tt <= floor_sum:
        return Fraction(0)
    if tt >= m:
        return survival
    total = Fraction(0)
    for size in range(m + 1):
        sign = (-1) ** size
        for subset in combinations(alpha, size):
            shift = sum(subset, Fraction(0))
            if size < m - tt + shift:
                total += sign * (m - tt - size + shift) ** m
    return check_probability(
        "joint_sum_below_and_inside_high",
        survival - total / factorial(m),
    )
