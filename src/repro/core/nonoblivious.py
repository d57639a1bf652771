"""Theorem 5.1: winning probabilities of single-threshold algorithms.

A non-oblivious single-threshold algorithm assigns player ``i`` the
threshold ``a_i``; the player outputs ``y_i = 0`` when ``x_i <= a_i``
and ``1`` otherwise.  Theorem 5.1 gives, for bin capacity ``delta``:

``P_A(delta) = sum_{b in {0,1}^n}  L_b(delta) * H_b(delta)``

where (with Z the zero-players and O the one-players of ``b``)

* ``L_b = P(sum_{i in Z} x_i <= delta  and  x_i <= a_i  for i in Z)``
* ``H_b = P(sum_{i in O} x_i <= delta  and  x_i >= a_i  for i in O)``

both given in closed inclusion-exclusion form by the joint probability
functions of :mod:`repro.probability.uniform_sums`.

For the *symmetric* case ``a_i = beta`` for all players (Theorem 5.2
shows the optimum is symmetric), the sum collapses over ``k = |b|``:

``P(beta) = sum_k C(n, k) A_k(beta) B_k(beta)``

``A_k(beta) = (1/(n-k)!) sum_{i : delta - i beta > 0}
              (-1)^i C(n-k, i) (delta - i beta)^(n-k)``

``B_k(beta) = (1 - beta)^k - (1/k!) sum_{i : k - delta - i(1-beta) > 0}
              (-1)^i C(k, i) (k - delta - i(1 - beta))^k``

On each interval between *breakpoints* (the points where one of the
strict conditions flips), ``P(beta)`` is a polynomial with rational
coefficients; :func:`symmetric_threshold_winning_polynomial` constructs
that exact piecewise polynomial, which Section 5.2 then maximises.

With ``delta = p/q`` in lowest terms, one common denominator clears
every fraction (``m = n - k``, sums over the same active ``i``):

``P(beta) = (1 / (n! q^n)) sum_k C(n, k)^2 Ahat_k(beta) Bhat_k(beta)``

``Ahat_k = sum_i (-1)^i C(m, i) (p - i q beta)^m``

``Bhat_k = k! q^k (1 - beta)^k
           - sum_i (-1)^i C(k, i) (k q - p - i q + i q beta)^k``

so every term has integer coefficients and depends only on ``(m, i)``
or ``(k, i)``, never on the interval.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import List, Sequence

from repro.cache import memoized_kernel
from repro.errors import ValidationError
from repro.probability.uniform_sums import (
    joint_sum_below_and_inside_high,
    joint_sum_below_and_inside_low,
)
from repro.validation.contracts import check_probability
from repro.symbolic.piecewise import PiecewisePolynomial
from repro.symbolic.polynomial import Polynomial
from repro.symbolic.rational import (
    RationalLike,
    alternating_power_sum,
    as_fraction,
    binomial,
    factorial,
)

__all__ = [
    "symmetric_threshold_breakpoints",
    "symmetric_threshold_winning_polynomial",
    "symmetric_threshold_winning_probability",
    "threshold_winning_probability",
]


@memoized_kernel
def threshold_winning_probability(
    delta: RationalLike, thresholds: Sequence[RationalLike]
) -> Fraction:
    """Theorem 5.1 with per-player thresholds (exact, ``O(4^n)``).

    *delta* is the bin capacity; ``thresholds[i]`` is player *i*'s
    cut-off in ``[0, 1]``.  The sum enumerates all ``2^n`` output
    vectors and evaluates both joint factors by subset
    inclusion-exclusion.
    """
    a = [as_fraction(v) for v in thresholds]
    if not a:
        raise ValidationError("need at least one player")
    for i, v in enumerate(a):
        if not 0 <= v <= 1:
            raise ValidationError(
                f"thresholds[{i}] must be in [0, 1], got {v}"
            )
    d = as_fraction(delta)
    if d <= 0:
        return Fraction(0)
    n = len(a)
    total = Fraction(0)
    for bits in product((0, 1), repeat=n):
        zeros = [a[i] for i in range(n) if bits[i] == 0]
        ones = [a[i] for i in range(n) if bits[i] == 1]
        low = joint_sum_below_and_inside_low(d, zeros)
        if low == 0:
            continue
        high = joint_sum_below_and_inside_high(d, ones)
        total += low * high
    return check_probability("threshold_winning_probability", total)


def _a_factor(beta: Fraction, n: int, k: int, delta: Fraction) -> Fraction:
    """``A_k(beta)`` -- the bin-0 joint probability with ``n - k`` zeros."""
    m = n - k
    if m == 0:
        return Fraction(1)
    (b, c), (p, q) = beta.as_integer_ratio(), delta.as_integer_ratio()
    # delta - i * beta = (p c - i q b) / (q c)
    total = alternating_power_sum(p * c, q * b, m, m)
    return Fraction(total, factorial(m) * (q * c) ** m)


def _b_factor(beta: Fraction, k: int, delta: Fraction) -> Fraction:
    """``B_k(beta)`` -- the bin-1 joint probability with ``k`` ones."""
    if k == 0:
        return Fraction(1)
    (b, c), (p, q) = beta.as_integer_ratio(), delta.as_integer_ratio()
    # k - delta - i (1 - beta) = ((k q - p) c - i q (c - b)) / (q c)
    total = alternating_power_sum((k * q - p) * c, q * (c - b), k, k)
    return Fraction(
        factorial(k) * (q * (c - b)) ** k - total, factorial(k) * (q * c) ** k
    )


@memoized_kernel
def symmetric_threshold_winning_probability(
    beta: RationalLike, n: int, delta: RationalLike
) -> Fraction:
    """Theorem 5.1 specialised to a common threshold ``beta`` (exact, O(n^2)).

    ``P(beta) = sum_k C(n, k) A_k(beta) B_k(beta)``
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    b = as_fraction(beta)
    if not 0 <= b <= 1:
        raise ValidationError(f"beta must be in [0, 1], got {b}")
    d = as_fraction(delta)
    if d <= 0:
        return Fraction(0)
    total = Fraction(0)
    for k in range(n + 1):
        total += (
            binomial(n, k) * _a_factor(b, n, k, d) * _b_factor(b, k, d)
        )
    return check_probability(
        "symmetric_threshold_winning_probability", total
    )


def symmetric_threshold_breakpoints(
    n: int, delta: RationalLike
) -> List[Fraction]:
    """All points in ``[0, 1]`` where a strict condition of Theorem 5.1 flips.

    * from ``A_k``: ``delta - i*beta = 0``  =>  ``beta = delta / i``
      for ``i = 1 .. n``;
    * from ``B_k``: ``k - delta - i*(1 - beta) = 0``  =>
      ``beta = 1 - (k - delta) / i`` for ``k = 1 .. n``, ``i = 1 .. k``.

    The returned list is sorted, starts with 0 and ends with 1.
    Between consecutive breakpoints the winning probability is a single
    polynomial in ``beta``.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    d = as_fraction(delta)
    if d <= 0:
        raise ValidationError(f"delta must be positive, got {d}")
    points = {Fraction(0), Fraction(1)}
    for i in range(1, n + 1):
        candidate = d / i
        if 0 < candidate < 1:
            points.add(candidate)
    for k in range(1, n + 1):
        for i in range(1, k + 1):
            candidate = 1 - (k - d) / i
            if 0 < candidate < 1:
                points.add(candidate)
    return sorted(points)


@memoized_kernel(persist=False)
def symmetric_threshold_winning_polynomial(
    n: int, delta: RationalLike
) -> PiecewisePolynomial:
    """The exact piecewise polynomial ``beta -> P(beta)`` on ``[0, 1]``.

    On each breakpoint interval the active condition pattern is fixed,
    so each ``A_k`` and ``B_k`` is a genuine polynomial in ``beta``.
    Every term of the module's common-denominator identity is expanded
    once, in closed form, as Python ``int`` coefficients; the terms
    active at an interval's midpoint are a prefix whose length one
    integer comparison gives, and each interval sums them and
    convolves the integer ``Ahat_k`` and ``Bhat_k``.  This is the
    object Section 5.2 differentiates and maximises.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    d = as_fraction(delta)
    if d <= 0:
        raise ValidationError(f"delta must be positive, got {d}")

    p, q = d.numerator, d.denominator

    def expand(scale: int, c0: int, c1: int, e: int) -> List[int]:
        """Integer coefficients of ``scale * (c0 + c1 * beta) ** e``."""
        return [scale * binomial(e, j) * c0 ** (e - j) * c1 ** j
                for j in range(e + 1)]

    a_terms = [[expand((-1) ** i * binomial(m, i), p, -i * q, m)
                for i in range(m + 1)] for m in range(n + 1)]
    b_terms = [[expand((-1) ** (i + 1) * binomial(k, i), (k - i) * q - p,
                       i * q, k) for i in range(k + 1)] for k in range(n + 1)]
    b_bases = [expand(factorial(k), q, -q, k) for k in range(n + 1)]
    denominator = factorial(n) * q ** n

    def build(mid: Fraction) -> Polynomial:
        # d - i * mid > 0 and k - d - i * (1 - mid) > 0 each hold for a
        # prefix of the i; with mid = u / v, its length is the least
        # i >= 0 with i q u >= p v (resp. i q (v - u) >= (k q - p) v).
        u, v = mid.numerator, mid.denominator
        a_active = -(-p * v // (q * u))
        total = [0] * (n + 1)
        for k in range(n + 1):
            b_active = max(0, -(-(k * q - p) * v // (q * (v - u))))
            a_hat = [sum(c) for c in zip([0] * (n - k + 1),
                                         *a_terms[n - k][:a_active])]
            b_hat = [sum(c) for c in zip(b_bases[k], *b_terms[k][:b_active])]
            weight = binomial(n, k) ** 2
            for r, a in enumerate(a_hat):
                for s, b in enumerate(b_hat):
                    total[r + s] += weight * a * b
        return Polynomial([Fraction(c, denominator) for c in total])

    breakpoints = symmetric_threshold_breakpoints(n, d)
    return PiecewisePolynomial.from_sampler(build, breakpoints)
