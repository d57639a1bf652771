"""Lemma 4.6 replayed exactly on the symmetric oblivious profile.

Under symmetry the stationarity condition of Corollary 4.2 is the
derivative of ``P(alpha) = P(alpha, ..., alpha)``
(:func:`~repro.optimize.oblivious_opt.symmetric_oblivious_polynomial`)
divided by ``n``.  Dividing it by ``-alpha^(n-1)`` and substituting
``rho = (1 - alpha) / alpha`` gives the lemma's polynomial

``Q(rho) = sum_r C(n-1, r) (phi_t(r+1) - phi_t(r)) rho^r``

built here from :func:`~repro.core.phi.phi_forward_difference`.  The
paper writes its variable as ``alpha / (alpha - 1)``; under the
substitution used here ``alpha = 1/2`` maps to ``rho = 1``.  Lemma 4.4
makes Q's coefficients antisymmetric, so ``Q(1) = 0`` and the fair
coin is stationary; Lemma 4.6 says it is the only interior stationary
point, which exact Sturm root counting confirms for each ``(n, t)``.
"""

from fractions import Fraction

import pytest

from repro.core.optimality import oblivious_partial
from repro.core.phi import phi_forward_difference
from repro.optimize.oblivious_opt import symmetric_oblivious_polynomial
from repro.symbolic.polynomial import Polynomial
from repro.symbolic.rational import binomial
from repro.symbolic.roots import count_real_roots

SWEEP = [
    (n, t)
    for n in (2, 3, 4, 5, 6, 7)
    for t in (Fraction(1, 2), Fraction(1), Fraction(4, 3), Fraction(2))
    if t < n
]
ODD_SWEEP = [(n, t) for n, t in SWEEP if n % 2 == 1]
ALPHAS = [Fraction(i, 10) for i in range(1, 10)]


def lemma_polynomial(t, n):
    """Q(rho) with coefficients ``C(n-1, r) (phi_t(r+1) - phi_t(r))``."""
    diffs = phi_forward_difference(t, n)
    return Polynomial([binomial(n - 1, r) * diffs[r] for r in range(n)])


def stationarity(t, n):
    """The symmetric stationarity polynomial ``P'(alpha) / n``."""
    return symmetric_oblivious_polynomial(t, n).derivative() / n


class TestCoefficientAntisymmetry:
    @pytest.mark.parametrize("n, t", SWEEP)
    def test_lemma_4_4_in_coefficient_form(self, n, t):
        q = lemma_polynomial(t, n)
        assert all(
            q.coefficient(r) + q.coefficient(n - 1 - r) == 0
            for r in range(n)
        )

    @pytest.mark.parametrize("n, t", SWEEP)
    def test_q_vanishes_at_one(self, n, t):
        q = lemma_polynomial(t, n)
        assert not q.is_zero()
        assert q(1) == 0

    @pytest.mark.parametrize("n, t", ODD_SWEEP)
    def test_middle_coefficient_vanishes_for_odd_n(self, n, t):
        assert lemma_polynomial(t, n).coefficient((n - 1) // 2) == 0


class TestStationarityPolynomial:
    @pytest.mark.parametrize("n, t", SWEEP)
    def test_half_is_stationary(self, n, t):
        assert stationarity(t, n)(Fraction(1, 2)) == 0

    @pytest.mark.parametrize("n, t", SWEEP)
    def test_half_is_the_only_interior_root(self, n, t):
        """The uniqueness claim of Lemma 4.6 (the interval is shrunk
        slightly to avoid the boundary roots that exist when phi
        degenerates)."""
        s = stationarity(t, n)
        assert not s.is_zero()
        assert count_real_roots(
            s, Fraction(1, 1000), Fraction(999, 1000)
        ) == 1

    @pytest.mark.parametrize("n, t", SWEEP)
    def test_one_is_the_only_root_of_q_in_the_image(self, n, t):
        """The same claim in the lemma's variable: ``alpha`` in
        ``(1/1000, 999/1000]`` is ``rho`` in ``[1/999, 999)``."""
        q = lemma_polynomial(t, n)
        assert count_real_roots(
            q, Fraction(1, 999) - Fraction(1, 10**9), Fraction(999)
        ) == 1

    @pytest.mark.parametrize("n, t", SWEEP)
    def test_matches_gradient_evaluator(self, n, t):
        s = stationarity(t, n)
        for alpha in ALPHAS:
            assert s(alpha) == oblivious_partial(t, [alpha] * n, 0)

    @pytest.mark.parametrize("n, t", SWEEP)
    def test_substitution_relation(self, n, t):
        """``S(alpha) = -alpha^(n-1) Q((1 - alpha) / alpha)``."""
        q = lemma_polynomial(t, n)
        s = stationarity(t, n)
        for alpha in ALPHAS:
            assert s(alpha) == -(alpha ** (n - 1)) * q((1 - alpha) / alpha)

    def test_degree(self):
        assert lemma_polynomial(1, 4).degree <= 3
        assert stationarity(1, 4).degree <= 3

    def test_validation(self):
        with pytest.raises(ValueError):
            symmetric_oblivious_polynomial(1, 0)
        with pytest.raises(ValueError):
            phi_forward_difference(1, 0)
