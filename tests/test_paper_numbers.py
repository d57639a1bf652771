"""Integration tests pinning every number and claim the paper reports.

This is the reproduction's scoreboard: each test cites the paper
location it validates.  Deviations discovered during the reproduction
are asserted as such and cross-referenced in EXPERIMENTS.md.
"""

import random
from fractions import Fraction

import pytest

from repro.core.nonoblivious import (
    symmetric_threshold_winning_polynomial,
    symmetric_threshold_winning_probability,
)
from repro.core.oblivious import (
    oblivious_winning_probability,
    optimal_oblivious_winning_probability,
)
from repro.core.optimality import oblivious_gradient, oblivious_partial
from repro.optimize.threshold_opt import optimal_symmetric_threshold
from repro.symbolic.polynomial import Polynomial


class TestSection521_N3Delta1:
    """Section 5.2.1: the case n = 3, delta = 1."""

    def test_piecewise_cubic_low_interval(self):
        # paper, beta in [0, 1/3] and (1/3, 1/2]: P = 1/6 + 3/2 b^2 - 1/2 b^3
        curve = symmetric_threshold_winning_polynomial(3, 1)
        expected = Polynomial(
            [Fraction(1, 6), 0, Fraction(3, 2), Fraction(-1, 2)]
        )
        assert curve.piece_at(Fraction(1, 4)).polynomial == expected
        assert curve.piece_at(Fraction(9, 20)).polynomial == expected

    def test_piecewise_cubic_high_interval(self):
        # paper, beta in (1/2, 1]: P = -11/6 + 9 b - 21/2 b^2 + 7/2 b^3
        curve = symmetric_threshold_winning_polynomial(3, 1)
        expected = Polynomial(
            [Fraction(-11, 6), 9, Fraction(-21, 2), Fraction(7, 2)]
        )
        assert curve.piece_at(Fraction(4, 5)).polynomial == expected

    def test_optimality_quadratic(self):
        # paper: "the solution ... satisfies beta^2 - 2 beta + 6/7 = 0"
        curve = symmetric_threshold_winning_polynomial(3, 1)
        derivative = curve.piece_at(Fraction(4, 5)).polynomial.derivative()
        assert derivative / derivative.leading_coefficient == (
            Polynomial([Fraction(6, 7), -2, 1])
        )

    def test_optimal_threshold_is_one_minus_sqrt_one_seventh(self):
        # paper: beta* = 1 - sqrt(1/7) = 0.622
        opt = optimal_symmetric_threshold(3, 1, Fraction(1, 10**15))
        assert abs(float(opt.beta) - (1 - (1 / 7) ** 0.5)) < 1e-14
        assert round(float(opt.beta), 3) == 0.622

    def test_rejected_root_above_one(self):
        # paper: "beta = 1 + sqrt(1/7) ... not acceptable"
        from repro.symbolic.roots import real_roots

        quadratic = Polynomial([Fraction(6, 7), -2, 1])
        all_roots = real_roots(quadratic)
        assert len(all_roots) == 2
        assert float(all_roots[1]) > 1

    def test_optimal_probability_rounds_to_0545(self):
        # paper: "The corresponding optimal (maximum) probability is
        # 0.545" -- the exact value is 0.54463...; the paper's 0.545 is
        # the 3-decimal rounding.
        opt = optimal_symmetric_threshold(3, 1)
        assert round(float(opt.probability), 3) == 0.545
        assert abs(float(opt.probability) - 0.5446311) < 1e-6

    def test_low_interval_has_no_interior_optimum(self):
        # paper: on [0, 1/3] and (1/3, 1/2] the stationarity condition
        # 3 b - (3/2) b^2 = 0 has no acceptable maximiser
        cubic = Polynomial([Fraction(1, 6), 0, Fraction(3, 2), Fraction(-1, 2)])
        derivative = cubic.derivative()
        # roots are 0 and 2: neither is an interior max of [0, 1/2]
        assert derivative(0) == 0
        assert derivative(2) == 0
        assert derivative(Fraction(1, 4)) > 0  # increasing throughout


class TestSection522_N4Delta43:
    """Section 5.2.2: the case n = 4, delta = 4/3."""

    def test_optimal_threshold_rounds_to_0678(self):
        # paper: "the solution is calculated to be equal to
        # approximately 0.678"
        opt = optimal_symmetric_threshold(4, Fraction(4, 3))
        assert round(float(opt.beta), 3) == 0.678

    def test_paper_cubic_optimality_condition(self):
        # paper: "the solution for n = 4 and delta = 4/3 satisfies the
        # polynomial equation -(26/3) b^3 + (98/3) b^2 - (368/9) b
        # - 416/27 = 0".  Re-derived exactly, the constant term is
        # +416/27 (the scanned text's minus sign is a typo: with
        # -416/27 the cubic has no root near 0.678, with +416/27 it
        # does).  All other coefficients match the paper exactly.
        opt = optimal_symmetric_threshold(4, Fraction(4, 3))
        cubic = opt.stationarity_polynomial
        assert cubic == Polynomial(
            [
                Fraction(416, 27),
                Fraction(-368, 9),
                Fraction(98, 3),
                Fraction(-26, 3),
            ]
        )
        # and the paper's reported root is indeed its root in [0, 1]
        assert abs(cubic(opt.beta)) < Fraction(1, 10**9)

    def test_quartic_pieces_cover_unit_interval(self):
        curve = symmetric_threshold_winning_polynomial(4, Fraction(4, 3))
        assert curve.lower == 0 and curve.upper == 1
        assert all(p.polynomial.degree <= 4 for p in curve.pieces)

    def test_endpoints(self):
        # beta in {0, 1}: all four inputs in one bin;
        # P = IrwinHallCDF(4/3, 4) = 7/54... check against the exact
        # Irwin-Hall value
        from repro.probability.uniform_sums import irwin_hall_cdf

        expected = irwin_hall_cdf(Fraction(4, 3), 4)
        assert symmetric_threshold_winning_probability(
            0, 4, Fraction(4, 3)
        ) == expected
        assert symmetric_threshold_winning_probability(
            1, 4, Fraction(4, 3)
        ) == expected

    def test_non_uniformity_against_n3(self):
        # the paper's point: the optimal thresholds differ across n
        beta3 = optimal_symmetric_threshold(3, 1).beta
        beta4 = optimal_symmetric_threshold(4, Fraction(4, 3)).beta
        assert abs(beta3 - beta4) > Fraction(1, 100)


def seeded_profiles():
    """Three seeded rational profiles each for n = 3, 4, 5."""
    rng = random.Random(45)
    return [
        [Fraction(rng.randint(1, 19), 20) for _ in range(n)]
        for n in (3, 4, 5)
        for _ in range(3)
    ]


def with_k(alphas, k, value):
    return alphas[:k] + [Fraction(value)] + alphas[k + 1 :]


PROFILE_CASES = pytest.mark.parametrize(
    "t, alphas",
    [
        (t, alphas)
        for t in (Fraction(1, 2), Fraction(1), Fraction(4, 3))
        for alphas in seeded_profiles()
    ],
    ids=lambda v: (
        f"t={v}"
        if isinstance(v, Fraction)
        else f"n={len(v)}:" + ",".join(map(str, v))
    ),
)

class TestSection4_Oblivious:
    """Theorem 4.3 and its scope."""

    def test_fair_coin_stationary_for_many_n_t(self):
        for n in (2, 3, 4, 5, 6, 10):
            for t in (Fraction(1, 2), 1, Fraction(4, 3), 2):
                grad = oblivious_gradient(t, [Fraction(1, 2)] * n)
                assert all(g == 0 for g in grad)

    def test_optimal_oblivious_value_n3(self):
        assert optimal_oblivious_winning_probability(1, 3) == Fraction(5, 12)

    @PROFILE_CASES
    def test_lemma_4_5_exchange_symmetry(self, t, alphas):
        """Lemma 4.5: dP/dalpha_j == dP/dalpha_k whenever
        alpha_j == alpha_k, so stationary points can be taken
        symmetric."""
        for j in range(len(alphas)):
            for k in range(j + 1, len(alphas)):
                diagonal = list(alphas)
                diagonal[k] = diagonal[j]
                assert oblivious_partial(t, diagonal, j) == oblivious_partial(
                    t, diagonal, k
                )

    def test_lemma_4_5_partials_differ_off_the_diagonal(self):
        off_diagonal = [Fraction(1, 4), Fraction(3, 4), Fraction(1, 2)]
        assert oblivious_partial(1, off_diagonal, 0) != oblivious_partial(
            1, off_diagonal, 1
        )

    @PROFILE_CASES
    def test_theorem_4_1_partial_ignores_own_coordinate(self, t, alphas):
        """P is affine in each alpha_k: dP/dalpha_k does not depend on
        alpha_k and equals P(alpha_k = 1) - P(alpha_k = 0)."""
        for k in range(len(alphas)):
            ends = [
                oblivious_winning_probability(t, with_k(alphas, k, v))
                for v in (0, 1)
            ]
            partials = {
                oblivious_partial(t, with_k(alphas, k, v), k)
                for v in (0, Fraction(1, 3), alphas[k], 1)
            }
            assert partials == {ends[1] - ends[0]}

    @PROFILE_CASES
    def test_theorem_4_1_is_multilinear(self, t, alphas):
        """P at alpha_k = 1/2 is the mean of P at alpha_k = 0 and 1."""
        for k in range(len(alphas)):
            ends = [
                oblivious_winning_probability(t, with_k(alphas, k, v))
                for v in (0, 1)
            ]
            middle = oblivious_winning_probability(
                t, with_k(alphas, k, Fraction(1, 2))
            )
            assert middle == (ends[0] + ends[1]) / 2

    def test_uniformity_alpha_half_for_all_n(self):
        from repro.optimize.oblivious_opt import solve_oblivious_optimum

        for n in range(2, 9):
            assert solve_oblivious_optimum(1, n).alpha == Fraction(1, 2)

    def test_paper_discrepancy_theorem_4_3_boundary(self):
        """Theorem 4.3's optimality holds among symmetric profiles only;
        the deterministic boundary split beats the fair coin (see
        EXPERIMENTS.md, discrepancy D1)."""
        split = oblivious_winning_probability(1, [1, 0, 1])
        assert split == Fraction(1, 2)
        assert split > Fraction(5, 12)


class TestKnowledgeVsUniformityHeadline:
    """The abstract's trade-off, quantified."""

    def test_n3_nonoblivious_beats_oblivious(self):
        threshold = optimal_symmetric_threshold(3, 1).probability
        oblivious = optimal_oblivious_winning_probability(1, 3)
        assert threshold > oblivious

    def test_paper_discrepancy_n4_oblivious_beats_thresholds(self):
        """Deviation (EXPERIMENTS.md, discrepancy D2): at the paper's
        n = 4, delta = 4/3 case the fair coin beats every symmetric
        single threshold."""
        threshold = optimal_symmetric_threshold(4, Fraction(4, 3)).probability
        oblivious = optimal_oblivious_winning_probability(Fraction(4, 3), 4)
        assert oblivious == Fraction(559, 1296)
        assert oblivious > threshold

    def test_paper_discrepancy_d4_symmetric_reduction_fails(self):
        """Deviation (EXPERIMENTS.md, discrepancy D4): the paper's
        parenthetical "(Theorem 5.2 establishes that an optimal
        protocol is symmetric.)" fails within the threshold class at
        n = 4, delta = 4/3: the deterministic split (1, 1, 0, 0) is a
        threshold profile worth exactly 49/81 ~ 0.605."""
        from repro.core.nonoblivious import (
            threshold_winning_probability,
        )

        split = threshold_winning_probability(Fraction(4, 3), [1, 1, 0, 0])
        assert split == Fraction(49, 81)
        symmetric = optimal_symmetric_threshold(4, Fraction(4, 3))
        assert split > symmetric.probability
        # at n = 3, delta = 1 the symmetric optimum survives (the PY
        # conjecture itself is safe): the best split is only 1/2
        split3 = threshold_winning_probability(1, [1, 1, 0])
        assert split3 == Fraction(1, 2)
        assert split3 < optimal_symmetric_threshold(3, 1).probability

    def test_figure_1_ordering_near_optimum(self):
        # around their optima, smaller systems (same capacity) win more
        p3 = optimal_symmetric_threshold(3, 1).probability
        p4 = optimal_symmetric_threshold(4, 1).probability
        p5 = optimal_symmetric_threshold(5, 1).probability
        assert p3 > p4 > p5


class TestRotaDensityFormula:
    """Lemma 2.5 -- the answer to Rota's research problem."""

    def test_density_integrates_to_one(self):
        from repro.probability.uniform_sums import sum_uniform_pdf

        uppers = [1, Fraction(1, 2), Fraction(3, 4)]
        steps = 2000
        total_span = sum(uppers)
        riemann = sum(
            sum_uniform_pdf(total_span * Fraction(i, steps), uppers)
            for i in range(1, steps)
        ) * total_span / steps
        assert abs(riemann - 1) < Fraction(1, 200)

    def test_density_is_continuous_at_knots(self):
        # for m >= 2 the density is continuous everywhere, including
        # the knots where the inclusion-exclusion pattern changes
        from repro.probability.uniform_sums import sum_uniform_pdf

        uppers = [1, 1]
        eps = Fraction(1, 10**9)
        knot = Fraction(1)
        left = sum_uniform_pdf(knot - eps, uppers)
        right = sum_uniform_pdf(knot + eps, uppers)
        assert abs(left - right) < Fraction(1, 10**8)
