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

Each factor is answered by the regime dispatcher
(:func:`repro.probability.regimes.irwin_hall_cdf_regime`): exact up
to the policy's ceiling (order 160 by default), the Berry-Esseen /
Edgeworth tier for the (dominant) large orders.  Per-factor bounds
``e0, e1`` combine into a per-term bound
``e0 + e1 + e0 e1`` (from ``|v0 v1 - F0 F1|`` with both factors in
``[0, 1]``), and the binomial tail outside the evaluated window --
chosen by a Bernstein-inequality radius so its total mass is below
``policy.tail_tol`` -- is charged to the bound verbatim.  The window
has ``O(sqrt(n log(1/tail_tol)))`` terms and each term is ``O(1)`` in
the asymptotic regime, so ``n = 10**6`` evaluates in milliseconds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Tuple

from repro.errors import ValidationError
from repro.probability.asymptotics import irwin_hall_asymptotic_value_bound
from repro.probability.regimes import (
    DEFAULT_POLICY,
    RegimePolicy,
    irwin_hall_cdf_regime,
)
from repro.symbolic.rational import RationalLike, as_fraction
from repro.validation.fastpath import EPS, TIER_ASYMPTOTIC, Enclosure

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


def _ih_factor(
    t: float, m: int, policy: RegimePolicy
) -> Tuple[float, float]:
    """``(value, error_bound)`` of ``IH(t, m)`` via the cheapest tier.

    Hot path of the mixture loop: the dominant large-``m`` case stays
    in pure float arithmetic (no Fraction conversion) by calling the
    asymptotic tier directly; small orders route through the full
    regime dispatcher.
    """
    if m == 0:
        return (1.0, 0.0) if t >= 0.0 else (0.0, 0.0)
    if t <= 0.0:
        return (0.0, 0.0)
    if t >= m:
        return (1.0, 0.0)
    if m > policy.exact_ceiling:
        return irwin_hall_asymptotic_value_bound(t, m, policy.method)
    result = irwin_hall_cdf_regime(t, m, policy)
    return (result.value, result.error_bound)


def _binomial_mixture(
    n: int,
    p_one: float,
    f_zero: Callable[[int], Tuple[float, float]],
    f_one: Callable[[int], Tuple[float, float]],
    policy: RegimePolicy,
) -> Enclosure:
    """``sum_k pmf(k; n, p_one) f_zero(n - k) f_one(k)`` with bound.

    The window is Bernstein-sized for ``policy.tail_tol``; the pmf is
    generated by the two-sided recurrence from the mode (one lgamma
    triple total, no per-term special functions).
    """
    lo, hi = binomial_window(n, p_one, policy.tail_tol)
    q = 1.0 - p_one
    if p_one <= 0.0 or p_one >= 1.0:
        k = hi  # == lo: the certain count
        v0, e0 = f_zero(n - k)
        v1, e1 = f_one(k)
        value = v0 * v1
        bound = e0 + e1 + e0 * e1 + 4.0 * EPS
        terms = 1
    else:
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
        value = 0.0
        bound = 0.0
        terms = 0
        # Walk down then up from the mode; pmf values decay
        # monotonically on each side, so no overflow is possible.
        for direction in (-1, +1):
            pmf = pmf_mode
            k = mode
            if direction == +1:
                if mode == hi:
                    continue
                pmf = pmf * ratio_up * (n - mode) / (mode + 1)
                k = mode + 1
            while lo <= k <= hi:
                v0, e0 = f_zero(n - k)
                v1, e1 = f_one(k)
                value += pmf * (v0 * v1)
                bound += pmf * (e0 + e1 + e0 * e1)
                terms += 1
                if direction == -1:
                    if k == lo:
                        break
                    pmf = pmf * k / ((n - k + 1) * ratio_up)
                    k -= 1
                else:
                    if k == hi:
                        break
                    pmf = pmf * ratio_up * (n - k) / (k + 1)
                    k += 1
        # Truncated tail mass plus float noise from the pmf recurrence
        # and the accumulation (~eps per term, conservatively scaled).
        bound += policy.tail_tol + 8.0 * EPS * terms
    from repro.observability import get_instrumentation

    instr = get_instrumentation()
    if instr.enabled:
        instr.increment("asymptotics.calls")
        instr.increment("asymptotics.terms", terms)
    return Enclosure(
        min(1.0, max(0.0, value)), bound, TIER_ASYMPTOTIC, policy.method
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
        value, bound = _ih_factor(delta_f, n, policy)
        return Enclosure(value, bound, TIER_ASYMPTOTIC, policy.method)

    inv_beta = 1.0 / beta_f
    inv_rest = 1.0 / (1.0 - beta_f)

    def f_zero(m: int) -> Tuple[float, float]:
        # (n - k) inputs conditioned on x <= beta: iid U[0, beta].
        return _ih_factor(delta_f * inv_beta, m, policy)

    def f_one(k: int) -> Tuple[float, float]:
        # k inputs conditioned on x > beta: iid U[beta, 1], so the
        # load is k*beta + (1 - beta) * IrwinHall(k).
        return _ih_factor((delta_f - k * beta_f) * inv_rest, k, policy)

    return _binomial_mixture(n, 1.0 - beta_f, f_zero, f_one, policy)


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

    def factor(m: int) -> Tuple[float, float]:
        # Outputs are independent of inputs: each bin's load is a sum
        # of plain U[0, 1] inputs.
        return _ih_factor(delta_f, m, policy)

    return _binomial_mixture(n, 1.0 - float(a), factor, factor, policy)
