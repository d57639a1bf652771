"""The kernel ``phi_t(k)`` of Theorem 4.1.

For an output vector ``b`` with ``|b| = k`` ones, the probability that
neither bin overflows given ``y = b`` factorises (independence of the
two disjoint input groups) into a product of Irwin-Hall CDFs:

``phi_t(k) = F_k(t) * F_{n-k}(t)``

where ``F_m`` is the CDF of the sum of ``m`` iid U[0, 1] variables
(Corollary 2.6).  Lemma 4.4's symmetry ``phi_t(k) = phi_t(n - k)`` is
immediate from the product form, and the strict monotonicity
``phi_t(k) < phi_t(k + 1)`` for ``k < n/2`` drives the uniqueness
argument in Lemma 4.6; both facts are exercised by the test-suite.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List

from repro.errors import ValidationError
from repro.probability.uniform_sums import irwin_hall_cdf
from repro.symbolic.rational import RationalLike, as_fraction

__all__ = ["phi", "phi_table", "phi_forward_difference"]


def phi(t: RationalLike, k: int, n: int) -> Fraction:
    """``phi_t(k) = F_k(t) * F_{n-k}(t)`` -- the no-overflow probability
    conditioned on exactly *k* of the *n* players choosing bin 1.

    *t* is the bin capacity (the paper's ``t`` in Section 4, ``delta``
    in Section 5).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, {n}], got {k}")
    tt = as_fraction(t)
    if tt <= 0:
        return Fraction(0)
    return irwin_hall_cdf(tt, k) * irwin_hall_cdf(tt, n - k)


def phi_table(t: RationalLike, n: int) -> List[Fraction]:
    """All values ``[phi_t(0), ..., phi_t(n)]`` sharing the CDF evaluations.

    The Irwin-Hall CDFs ``F_0(t) ... F_n(t)`` are computed once and
    reused, so the table costs ``O(n^2)`` arithmetic operations instead
    of ``O(n^3)``.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    tt = as_fraction(t)
    cdfs = [irwin_hall_cdf(tt, m) for m in range(n + 1)]
    return [cdfs[k] * cdfs[n - k] for k in range(n + 1)]


def phi_forward_difference(t: RationalLike, n: int) -> Dict[int, Fraction]:
    """The differences ``phi_t(r + 1) - phi_t(r)`` for ``r = 0 .. n - 1``.

    These are the coefficients appearing in the degree-(n-1) polynomial
    equation of Lemma 4.6; the lemma's argument needs them positive for
    ``r < n/2``, which the test-suite asserts for a sweep of ``t``.
    """
    table = phi_table(t, n)
    return {r: table[r + 1] - table[r] for r in range(n)}
