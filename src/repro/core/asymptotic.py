"""Large-``n`` winning probabilities via binomial mixtures of regimes.

The paper's exact machinery tops out near ``n ~ 20`` (inclusion-
exclusion over ``2^n`` subsets, or ``O(n^2)`` Fraction arithmetic for
the symmetric threshold case with numerators that grow like ``n!``).
This module pushes the two symmetric families -- the common-threshold
rule of Theorem 5.1 and the symmetric oblivious coin of Section 4 --
to ``n = 10**6`` and beyond, with a *certified* error bound.

The structure both families share: condition on the number of ones
``K ~ Binomial(n, p1)``.  Given ``K = k``, the two bin loads are
independent sums of uniforms, so

``P(win) = sum_k pmf(k) * F0(delta; n - k) * F1(delta; k)``

where each factor is an Irwin-Hall CDF after rescaling:

* threshold ``beta``: bin 0 holds ``n - k`` inputs conditioned on
  ``x <= beta``, i.e. iid ``U[0, beta]``, so
  ``F0 = IH(delta / beta, n - k)``; bin 1 holds ``k`` inputs
  conditioned on ``x > beta``, i.e. iid ``U[beta, 1]``, so
  ``F1 = IH((delta - k beta) / (1 - beta), k)``;
* oblivious ``alpha``: outputs are independent of the inputs, so both
  factors are plain ``IH(delta, .)``.

Each window is evaluated as arrays: the counts ``k`` and both bins'
factor points and orders, then every factor inside the support in one
pass of the Edgeworth / Hoeffding assembly
(:func:`repro.probability.asymptotics.irwin_hall_asymptotic_lanes`).
The exact tier then runs only where it changes the bound.  A factor of
order at most the policy's exact ceiling (160 by default) is
*eligible*; its share of the bound is ``pmf(k) * e``.  The smallest
eligible shares stay asymptotic while their sum stays below ``EPS``
times the summed share of the ineligible factors, and every other
eligible factor is upgraded.  When every factor is eligible (``n <=
160``), none is fixed, so all are upgraded; otherwise the bound grows
by at most one part in ``2^52``.  Upgraded factors are evaluated once
per distinct ``(t, m)``, one exact column per shared point
(:func:`repro.probability.regimes.irwin_hall_exact_column`): bin 0 of
the threshold rule and both bins of the oblivious rule share one ``t``
across the window.  Those exact factors touch no cache: their points
are floats with ``2^52`` denominators that no later query repeats, so
the mixture persists nothing.  Each lane performs the scalar formula's
IEEE operations in the same order, and value and bound are summed in
the order of the scalar two-sided walk, so every answer is
bit-identical to summing term by term.  Per-factor bounds ``e0, e1``
combine into a per-term bound ``e0 + e1 + e0 e1`` (from ``|v0 v1 - F0
F1|`` with both factors in ``[0, 1]``), and the binomial tail outside
the evaluated window -- chosen by a Bernstein-inequality radius so its
total mass is below ``policy.tail_tol`` -- is charged to the bound
verbatim.  The window has ``O(sqrt(n log(1/tail_tol)))`` terms, so
``n = 10**6`` evaluates in about 7 ms (2-vCPU guest).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from typing import Callable, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.probability.asymptotics import irwin_hall_asymptotic_lanes
from repro.probability.regimes import (
    DEFAULT_POLICY,
    RegimePolicy,
    irwin_hall_exact_column,
)
from repro.symbolic.rational import RationalLike, as_fraction
from repro.validation.enclosure import EPS, TIER_ASYMPTOTIC, Enclosure

__all__ = [
    "binomial_window",
    "symmetric_oblivious_winning_regime",
    "symmetric_threshold_winning_regime",
]


def binomial_window(
    n: int, p: float, tail_tol: float
) -> Tuple[int, int]:
    """Smallest centered ``[lo, hi]`` with binomial tail mass below
    *tail_tol*, by Bernstein's inequality.

    ``P(|K - np| >= s) <= 2 exp(-s^2 / (2 n p q + 2 s / 3))`` is below
    *tail_tol* once ``s >= L/3 + sqrt(L^2/9 + 2 n p q L)`` with
    ``L = ln(2 / tail_tol)``.  Degenerate ``p`` collapses the window
    to the certain endpoint.
    """
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n}")
    if p <= 0.0:
        return (0, 0)
    if p >= 1.0:
        return (n, n)
    npq = n * p * (1.0 - p)
    big_l = math.log(2.0 / tail_tol)
    s = big_l / 3.0 + math.sqrt(big_l * big_l / 9.0 + 2.0 * npq * big_l)
    center = n * p
    lo = max(0, int(math.floor(center - s)))
    hi = min(n, int(math.ceil(center + s)))
    return (lo, hi)


def _ih_factors(
    t: np.ndarray, m: np.ndarray, weight: np.ndarray, policy: RegimePolicy
) -> Tuple[np.ndarray, np.ndarray]:
    """``(values, error_bounds)`` of ``IH(t[i], m[i])`` for every lane.

    Lanes outside the open support (``t <= 0``, ``t >= m``, ``m = 0``)
    are exact 0 or 1 and are never evaluated, so an infinite ``t``
    reaches no arithmetic.  The others are answered asymptotically in
    one array pass, then upgraded to exact by the share rule of the
    module docstring, a lane's share being ``weight * bound``.  The
    orders *m* are floats, exact up to ``2**53``; only the single count
    of a degenerate window can exceed that, and its factor is
    asymptotic, which reads a float order anyway.
    """
    # Outside the support: 1 where t >= m (the empty sum included).
    value = np.where(t >= m, 1.0, 0.0)
    bound = np.zeros(m.shape)
    inside = (t > 0.0) & (t < m)
    value[inside], bound[inside] = irwin_hall_asymptotic_lanes(
        t[inside], m[inside], policy.method
    )
    eligible = np.flatnonzero(inside & (m <= policy.exact_ceiling))
    if not eligible.size:
        return value, bound
    share = weight * bound
    fixed = math.fsum(share[inside & (m > policy.exact_ceiling)].tolist())
    by_share = eligible[np.argsort(share[eligible], kind="stable")]
    kept = np.searchsorted(np.cumsum(share[by_share]), EPS * fixed)
    lanes = by_share[kept:]
    points = list(zip(t[lanes].tolist(), m[lanes].astype(int).tolist()))
    answers = {}
    # Sorted by t, then m: the orders of each column ascend.
    for point_t, column in groupby(sorted(set(points)), itemgetter(0)):
        column = list(column)
        orders = [order for _, order in column]
        answers.update(
            zip(column, zip(*irwin_hall_exact_column(point_t, orders)))
        )
    value[lanes] = [answers[point][0] for point in points]
    bound[lanes] = [answers[point][1] for point in points]
    return value, bound


def _pmf_window(
    n: int, p_one: float, lo: int, hi: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(k, pmf(k; n, p_one))`` over ``[lo, hi]`` in summation order:
    down from the mode to *lo*, then up to *hi*; ``k`` as floats.

    The pmf is generated by the two-sided recurrence from the mode (one
    lgamma triple total, no per-term special functions).  Each step
    depends on the previous one, so it stays a scalar loop; the values
    decay monotonically on each side, so no overflow is possible.
    """
    q = 1.0 - p_one
    mode = min(hi, max(lo, int((n + 1) * p_one)))
    log_pmf = (
        math.lgamma(n + 1)
        - math.lgamma(mode + 1)
        - math.lgamma(n - mode + 1)
        + mode * math.log(p_one)
        + (n - mode) * math.log(q)
    )
    pmf_mode = math.exp(log_pmf)
    ratio_up = p_one / q
    pmfs = [pmf_mode]
    pmf = pmf_mode
    for k in range(mode, lo, -1):
        pmf = pmf * k / ((n - k + 1) * ratio_up)
        pmfs.append(pmf)
    pmf = pmf_mode
    for k in range(mode, hi):
        pmf = pmf * ratio_up * (n - k) / (k + 1)
        pmfs.append(pmf)
    ks = np.concatenate((
        np.arange(mode, lo - 1, -1, dtype=np.float64),
        np.arange(mode + 1, hi + 1, dtype=np.float64),
    ))
    return ks, np.array(pmfs)


def _binomial_mixture(
    n: int,
    p_one: float,
    points: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]],
    policy: RegimePolicy,
) -> Enclosure:
    """``sum_k pmf(k; n, p_one) IH(t0, n - k) IH(t1, k)`` with bound.

    ``points(k)`` gives the factor points ``(t0, t1)`` of both bins for
    the array of counts ``k``.  The window is Bernstein-sized for
    ``policy.tail_tol``, and the factors of both bins are evaluated in
    one :func:`_ih_factors` pass, so a point the two bins share is
    evaluated once.  Value and bound are summed sequentially in the
    order of :func:`_pmf_window`.
    """
    lo, hi = binomial_window(n, p_one, policy.tail_tol)
    if p_one <= 0.0 or p_one >= 1.0:
        ks, pmf = np.array([float(hi)]), np.ones(1)  # hi == lo: certain
        slack = 4.0 * EPS
    else:
        ks, pmf = _pmf_window(n, p_one, lo, hi)
        # Truncated tail mass plus float noise from the pmf recurrence
        # and the accumulation (~eps per term, conservatively scaled).
        slack = policy.tail_tol + 8.0 * EPS * ks.size
    # Products of tiny factors underflow to subnormals or zero, as they
    # do in scalar float arithmetic; that is the intended limit.
    with np.errstate(under="ignore"):
        t0, t1 = points(ks)
        value, bound = _ih_factors(
            np.concatenate((t0, t1)),
            np.concatenate((n - ks, ks)),
            np.concatenate((pmf, pmf)),
            policy,
        )
        v0, v1 = np.split(value, 2)
        e0, e1 = np.split(bound, 2)
        # np.cumsum adds left to right, in summation order.
        total = float(np.cumsum(pmf * (v0 * v1))[-1])
        total_bound = float(np.cumsum(pmf * (e0 + e1 + e0 * e1))[-1]) + slack
    from repro.observability import get_instrumentation

    instr = get_instrumentation()
    if instr.enabled:
        instr.increment("asymptotics.calls")
        instr.increment("asymptotics.terms", ks.size)
    return Enclosure(
        min(1.0, max(0.0, total)), total_bound, TIER_ASYMPTOTIC, policy.method
    )


#: ``delta <= 0`` is never won; ``delta >= n`` is always won, since
#: each bin holds a sum of at most ``n`` inputs in ``[0, 1]``.  Both are
#: decided on the exact capacity, before any ``float(delta)``.
_NEVER_WON = Enclosure.of_fraction(Fraction(0), "degenerate")
_ALWAYS_WON = Enclosure.of_fraction(Fraction(1), "degenerate", 0.0)


def symmetric_threshold_winning_regime(
    beta: RationalLike,
    n: int,
    delta: RationalLike,
    policy: RegimePolicy = DEFAULT_POLICY,
) -> Enclosure:
    """Theorem 5.1's symmetric threshold value, at any ``n``.

    Small ``n`` (``<= policy.exact_max_n``) delegates to the exact
    ``O(n^2)`` formula; larger ``n`` uses the certified binomial
    mixture described in the module docstring.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    b = as_fraction(beta)
    if not 0 <= b <= 1:
        raise ValidationError(f"beta must be in [0, 1], got {b}")
    d = as_fraction(delta)
    if d <= 0:
        return _NEVER_WON
    if n <= policy.exact_max_n:
        from repro.core.nonoblivious import (
            symmetric_threshold_winning_probability,
        )

        return Enclosure.of_fraction(
            symmetric_threshold_winning_probability(b, n, d),
            "inclusion-exclusion",
        )
    if d >= n:
        return _ALWAYS_WON
    beta_f = float(b)
    # A capacity below the smallest subnormal is rounded up to it, not
    # down to 0: the winning probability is monotone in delta.
    delta_f = max(float(d), math.ulp(0.0))
    if beta_f <= 0.0 or beta_f >= 1.0:
        # All inputs land in one bin; its load is a plain sum of n
        # iid U[0, 1] regardless of which bin that is.
        value, bound = _ih_factors(
            np.array([delta_f]), np.array([float(n)]), np.ones(1), policy
        )
        return Enclosure(
            float(value[0]), float(bound[0]), TIER_ASYMPTOTIC, policy.method
        )

    inv_beta = 1.0 / beta_f
    inv_rest = 1.0 / (1.0 - beta_f)

    def points(k: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # (n - k) inputs conditioned on x <= beta are iid U[0, beta];
        # k inputs conditioned on x > beta are iid U[beta, 1], so that
        # load is k*beta + (1 - beta) * IrwinHall(k).
        return (
            np.full(k.shape, delta_f * inv_beta),
            (delta_f - k * beta_f) * inv_rest,
        )

    return _binomial_mixture(n, 1.0 - beta_f, points, policy)


def symmetric_oblivious_winning_regime(
    alpha: RationalLike,
    n: int,
    delta: RationalLike,
    policy: RegimePolicy = DEFAULT_POLICY,
) -> Enclosure:
    """Symmetric oblivious-coin winning probability, at any ``n``.

    ``alpha`` is each player's probability of outputting 0 (the
    Section 4 convention); small ``n`` delegates to the exact formula.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    a = as_fraction(alpha)
    if not 0 <= a <= 1:
        raise ValidationError(f"alpha must be in [0, 1], got {a}")
    d = as_fraction(delta)
    if d <= 0:
        return _NEVER_WON
    if n <= policy.exact_max_n:
        from repro.core.oblivious import (
            symmetric_oblivious_winning_probability,
        )

        return Enclosure.of_fraction(
            symmetric_oblivious_winning_probability(d, n, a),
            "inclusion-exclusion",
        )
    if d >= n:
        return _ALWAYS_WON
    # A capacity below the smallest subnormal is rounded up to it, not
    # down to 0: the winning probability is monotone in delta.
    delta_f = max(float(d), math.ulp(0.0))

    def points(k: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # Outputs are independent of inputs: each bin's load is a sum
        # of plain U[0, 1] inputs.
        t = np.full(k.shape, delta_f)
        return t, t

    return _binomial_mixture(n, 1.0 - float(a), points, policy)
