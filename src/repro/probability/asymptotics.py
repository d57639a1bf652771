"""Asymptotic (large-``m``) approximations to sum-of-uniforms CDFs.

The exact kernels of :mod:`repro.probability.uniform_sums` are
inclusion-exclusion sums -- exponential in ``m`` for general interval
widths, and even the linear Irwin-Hall series loses every float digit
to cancellation once ``m`` is a few hundred.  This module provides the
third tier of the regime ladder: central-limit approximations with
*explicit, rigorous* error bounds, valid for any ``m`` and sharp
enough to be useful from ``m`` in the hundreds up to ``10**6`` and
beyond.

Two estimators are offered per CDF:

* ``method="normal"`` -- the plain CLT estimate ``Phi(z)`` with the
  Berry-Esseen bound

  ``|F(t) - Phi(z)| <= C_BE * sum rho_i / sigma^3``

  where ``rho_i = E|X_i - mu_i|^3`` and ``C_BE = 0.5600`` (Shevtsova's
  constant for sums of independent, not necessarily identically
  distributed variables, which covers the iid case).  For uniforms the
  ratio is width-invariant: a single ``U[0, u]`` contributes
  ``rho/sigma^3 = (u^3/32) / (u/sqrt(12))^3 = 12*sqrt(12)/32``, so the
  iid bound is ``0.5600 * (12*sqrt(12)/32) / sqrt(m) ~ 0.7275/sqrt(m)``.

* ``method="edgeworth"`` (default) -- the first Edgeworth correction.
  Uniforms are symmetric (zero skewness), so the leading correction is
  the kurtosis term

  ``F(t) ~ Phi(z) - phi(z) * (lambda4 / 24) * (z^3 - 3z)``

  with ``lambda4 = kappa4 / sigma^4`` the excess kurtosis of the sum
  (``kappa4 = -u^4/120`` per ``U[0, u]``; for Irwin-Hall this is the
  familiar ``Phi(z) + phi(z)(z^3 - 3z)/(20 m)``).  The *estimate* is
  far more accurate than the normal one (empirically ``O(1/m)`` vs
  ``O(1/sqrt(m))``), and its *guaranteed* bound is kept rigorous by
  the triangle inequality: ``|F - edgeworth| <= BE + |correction|``.

Both bounds are then **tail-sharpened**: in the far tails the true CDF
is pinned between 0 (or 1) and a Hoeffding bound
``exp(-2 s^2 / sum u_i^2)``, which for ``|z| >> 1`` is exponentially
smaller than the polynomial Berry-Esseen term.  The reported
``error_bound`` is the minimum of the two enclosures, so e.g.
``P(S <= m/4)`` for large ``m`` comes back as a tiny value with a tiny
certified bound rather than a tiny value with a ``0.7/sqrt(m)`` bound.

Quantiles are bracketed rather than merely estimated:
``F(mu + sigma * InvPhi(p - eps)) <= p <= F(mu + sigma * InvPhi(p + eps))``
whenever ``eps`` is a valid uniform CDF-error bound, so the returned
``(lower, upper)`` interval *provably* contains the true quantile.

Everything here is plain ``float`` arithmetic on a handful of terms --
``O(1)`` per query -- and depends only on the standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence, Tuple

from repro.errors import ValidationError
from repro.validation.fastpath import TIER_ASYMPTOTIC, Enclosure

__all__ = [
    "ASYMPTOTIC_METHODS",
    "AsymptoticQuantile",
    "BERRY_ESSEEN_CONSTANT",
    "UNIFORM_BE_RATIO",
    "irwin_hall_asymptotic_value_bound",
    "irwin_hall_cdf_asymptotic",
    "irwin_hall_quantile_asymptotic",
    "normal_cdf",
    "normal_pdf",
    "sum_uniform_cdf_asymptotic",
]

#: Shevtsova's Berry-Esseen constant for sums of independent (not
#: necessarily identically distributed) random variables.
BERRY_ESSEEN_CONSTANT = 0.5600

#: ``E|X - mu|^3 / sigma^3`` for a uniform on any interval: width
#: cancels, leaving ``(u^3/32) / (u^3 / (12 sqrt(12))) = 12 sqrt(12)/32``.
UNIFORM_BE_RATIO = 12.0 * math.sqrt(12.0) / 32.0

ASYMPTOTIC_METHODS = ("normal", "edgeworth")

_SQRT2 = math.sqrt(2.0)
_TINY = math.ulp(0.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_STD_NORMAL = NormalDist()


def normal_cdf(z: float) -> float:
    """Standard normal CDF via ``erfc`` (accurate in both tails)."""
    return 0.5 * math.erfc(-z / _SQRT2)


def normal_pdf(z: float) -> float:
    """Standard normal density."""
    # exp underflows to 0.0 for |z| >~ 39, which is the correct limit.
    return _INV_SQRT_2PI * math.exp(-0.5 * min(z * z, 1500.0))


#: Earlier name of the enclosure this module returns.
AsymptoticCDF = Enclosure


@dataclass(frozen=True)
class AsymptoticQuantile:
    """A quantile estimate with a certified enclosing interval.

    ``lower <= true quantile <= upper`` is guaranteed; *value* is the
    Cornish-Fisher point estimate inside that interval.
    """

    value: float
    lower: float
    upper: float
    p: float
    m: int


def _check_method(method: str) -> None:
    if method not in ASYMPTOTIC_METHODS:
        raise ValidationError(
            f"method must be one of {ASYMPTOTIC_METHODS}, got {method!r}"
        )


def _raw_assemble(
    t: float,
    mean: float,
    sigma: float,
    be_bound: float,
    lambda4: float,
    sq_width_sum: float,
    method: str,
) -> Tuple[float, float]:
    """Shared estimate/bound assembly for the iid and non-iid cases.

    Returns ``(value, error_bound)`` as a bare tuple -- the hot path
    of the binomial-mixture engine calls this thousands of times per
    query, so no dataclass is allocated here.
    """
    z = (t - mean) / sigma
    value = 0.5 * math.erfc(-z / _SQRT2)
    bound = be_bound
    if method == "edgeworth":
        phi_z = _INV_SQRT_2PI * math.exp(-0.5 * min(z * z, 1500.0))
        correction = -phi_z * (lambda4 / 24.0) * (z * z * z - 3.0 * z)
        value += correction
        # The Edgeworth *estimate* is sharper but its cheap rigorous
        # bound is not: |F - (Phi + corr)| <= |F - Phi| + |corr|.
        bound += abs(correction)
    if value < 0.0:
        value = 0.0
    elif value > 1.0:
        value = 1.0
    # Tail sharpening: Hoeffding pins F into [0, tail] (left tail) or
    # [1 - tail, 1] (right tail), so the distance from any estimate in
    # [0, 1] to the true CDF is at most max(tail, distance to the
    # pinned endpoint).  Strictly inside the support the true CDF is
    # neither 0 nor 1, so the tail term is floored at the smallest
    # subnormal instead of underflowing to an enclosure of zero width.
    s = t - mean
    hoeff = max(math.exp(-2.0 * (s * s / sq_width_sum)), _TINY)
    pinned = value if s < 0.0 else 1.0 - value
    if pinned < hoeff:
        pinned = hoeff
    if pinned < bound:
        bound = pinned
    return value, bound


_BE_IID = BERRY_ESSEEN_CONSTANT * UNIFORM_BE_RATIO


def irwin_hall_asymptotic_value_bound(
    t: float, m: int, method: str = "edgeworth"
) -> Tuple[float, float]:
    """Allocation-free ``(value, error_bound)`` variant of
    :func:`irwin_hall_cdf_asymptotic`.

    The hot-path entry point for the binomial-mixture engine: same
    numbers, no :class:`~repro.validation.fastpath.Enclosure`, no
    argument validation beyond the support short-circuits (``m >= 1``
    and a recognised *method* are the caller's responsibility).
    """
    if t <= 0.0:
        return 0.0, 0.0
    if t >= m:
        return 1.0, 0.0
    # kappa4 = -m/120; lambda4 = kappa4 / sigma^4 = -6/(5m).
    return _raw_assemble(
        t,
        0.5 * m,
        math.sqrt(m / 12.0),
        _BE_IID / math.sqrt(m),
        -1.2 / m,
        float(m),
        method,
    )


def _float_point(t: float) -> float:
    t = float(t)
    if math.isnan(t):
        raise ValidationError("t must be a number, got nan")
    return t


def irwin_hall_cdf_asymptotic(
    t: float, m: int, method: str = "edgeworth"
) -> Enclosure:
    """Asymptotic ``P(sum of m iid U[0,1] <= t)`` with certified bound.

    ``O(1)`` for any ``m >= 1``; exact short-circuits outside the
    support return ``error_bound = 0``.
    """
    _check_method(method)
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    value, bound = irwin_hall_asymptotic_value_bound(
        _float_point(t), m, method
    )
    return Enclosure(value, bound, TIER_ASYMPTOTIC, method, m=m)


def sum_uniform_cdf_asymptotic(
    t: float, uppers: Sequence[float], method: str = "edgeworth"
) -> Enclosure:
    """Asymptotic ``P(sum x_i <= t)`` for ``x_i ~ U[0, uppers[i]]``.

    Non-iid analogue of :func:`irwin_hall_cdf_asymptotic`; linear in
    ``len(uppers)`` (one pass to accumulate moments).  Zero-width
    entries are the constant 0 and are dropped, mirroring the exact
    kernel's convention.  The CDF is scale-invariant, so ``t`` and the
    widths are first divided by the power of two nearest the largest
    width: exact in binary, and it keeps the fourth-moment sums inside
    float range for any finite widths.
    """
    _check_method(method)
    t = _float_point(t)
    widths = []
    for i, u in enumerate(uppers):
        u = float(u)
        if not 0.0 <= u < math.inf:
            raise ValidationError(
                f"uppers[{i}] must be finite and >= 0, got {u}"
            )
        if u > 0.0:
            widths.append(u)
    m = len(widths)
    if m == 0:
        value = 1.0 if t >= 0.0 else 0.0
        return Enclosure(value, 0.0, TIER_ASYMPTOTIC, method, m=0)
    if t <= 0.0:
        return Enclosure(0.0, 0.0, TIER_ASYMPTOTIC, method, m=m)
    scale = math.ldexp(1.0, -math.frexp(max(widths))[1])
    widths = [u * scale for u in widths]
    t *= scale
    span = math.fsum(widths)
    if t >= span:
        return Enclosure(1.0, 0.0, TIER_ASYMPTOTIC, method, m=m)
    mean = 0.5 * span
    sq = math.fsum(u * u for u in widths)
    variance = sq / 12.0
    sigma = math.sqrt(variance)
    # rho_i = u_i^3/32; sum rho / sigma^3.
    rho_sum = math.fsum(u * u * u for u in widths) / 32.0
    be = BERRY_ESSEEN_CONSTANT * rho_sum / (sigma * variance)
    # kappa4_i = -u_i^4/120.
    kappa4 = -math.fsum(u * u * u * u for u in widths) / 120.0
    lambda4 = kappa4 / (variance * variance)
    value, bound = _raw_assemble(t, mean, sigma, be, lambda4, sq, method)
    return Enclosure(value, bound, TIER_ASYMPTOTIC, method, m=m)


def irwin_hall_quantile_asymptotic(
    p: float, m: int, method: str = "edgeworth"
) -> AsymptoticQuantile:
    """Quantile of the Irwin-Hall distribution with a certified bracket.

    Since ``|F - Phi(z)| <= eps`` uniformly (the ``method="normal"``
    Berry-Esseen bound), ``F(mu + sigma InvPhi(p - eps)) <= p`` and
    ``F(mu + sigma InvPhi(p + eps)) >= p``, so the true quantile lies
    in the returned ``[lower, upper]``.  When ``p -+ eps`` escapes
    ``(0, 1)`` the corresponding endpoint degrades to the support edge
    (0 or ``m``) -- still correct, just vacuous on that side.  The
    point estimate is the Cornish-Fisher inversion of the Edgeworth
    series (or the plain normal quantile under ``method="normal"``).
    """
    _check_method(method)
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValidationError(f"p must be in (0, 1), got {p}")
    mu = m / 2.0
    sigma = math.sqrt(m / 12.0)
    eps = BERRY_ESSEEN_CONSTANT * UNIFORM_BE_RATIO / math.sqrt(m)
    zq = _STD_NORMAL.inv_cdf(p)
    if method == "edgeworth":
        # Cornish-Fisher: invert z + (z^3-3z)/(20m) to first order.
        z_point = zq - (zq * zq * zq - 3.0 * zq) / (20.0 * m)
    else:
        z_point = zq
    value = min(float(m), max(0.0, mu + sigma * z_point))
    lo_p = p - eps
    hi_p = p + eps
    lower = (
        0.0 if lo_p <= 0.0 else max(0.0, mu + sigma * _STD_NORMAL.inv_cdf(lo_p))
    )
    upper = (
        float(m)
        if hi_p >= 1.0
        else min(float(m), mu + sigma * _STD_NORMAL.inv_cdf(hi_p))
    )
    return AsymptoticQuantile(
        value=value, lower=lower, upper=upper, p=p, m=m
    )
