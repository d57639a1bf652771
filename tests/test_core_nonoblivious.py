"""Tests for repro.core.nonoblivious (Theorem 5.1 and Section 5.2)."""

import math
from fractions import Fraction

import pytest

from repro.core.nonoblivious import (
    symmetric_threshold_breakpoints,
    symmetric_threshold_winning_polynomial,
    symmetric_threshold_winning_probability,
    threshold_winning_probability,
)
from repro.errors import ValidationError
from repro.optimize.threshold_opt import optimal_symmetric_threshold
from repro.probability.uniform_sums import irwin_hall_cdf
from repro.symbolic.polynomial import Polynomial


class TestTheorem51General:
    def test_symmetric_agreement(self):
        beta = Fraction(5, 8)
        for n in (2, 3, 4):
            assert threshold_winning_probability(1, [beta] * n) == (
                symmetric_threshold_winning_probability(beta, n, 1)
            )

    def test_degenerate_thresholds_all_zero(self):
        # a_i = 0: everyone outputs 1; win iff Irwin-Hall sum <= delta
        for n in (2, 3):
            assert threshold_winning_probability(1, [0] * n) == (
                irwin_hall_cdf(1, n)
            )

    def test_degenerate_thresholds_all_one(self):
        for n in (2, 3):
            assert threshold_winning_probability(1, [1] * n) == (
                irwin_hall_cdf(1, n)
            )

    def test_two_players_split(self):
        # a = (1, 0): player 1 -> bin 0, player 2 -> bin 1, each bin
        # gets one U[0,1] input <= 1: always win at delta = 1
        assert threshold_winning_probability(1, [1, 0]) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            threshold_winning_probability(1, [])
        with pytest.raises(ValueError):
            threshold_winning_probability(1, [Fraction(3, 2)])
        assert threshold_winning_probability(0, [Fraction(1, 2)]) == 0

    def test_asymmetric_hand_case(self):
        # n = 1, threshold a, capacity 1: the single player always wins
        # (its input is <= 1 <= capacity in either bin)
        assert threshold_winning_probability(1, [Fraction(1, 3)]) == 1

    def test_asymmetric_small_capacity(self):
        # n = 1, capacity 1/2, threshold 1/2: win iff x <= 1/2 lands in
        # bin 0 (x <= 1/2, always within capacity) or x > 1/2 in bin 1
        # (overflow iff x > 1/2)... bin 1 load = x > 1/2 overflows.
        # So P(win) = P(x <= 1/2) = 1/2.
        assert threshold_winning_probability(
            Fraction(1, 2), [Fraction(1, 2)]
        ) == Fraction(1, 2)


class TestSection521PaperCase:
    """The worked case n = 3, delta = 1 (Section 5.2.1)."""

    def test_polynomial_piece_low(self):
        curve = symmetric_threshold_winning_polynomial(3, 1)
        expected = Polynomial(
            [Fraction(1, 6), 0, Fraction(3, 2), Fraction(-1, 2)]
        )
        # the paper derives the same cubic on [0, 1/3] and (1/3, 1/2]
        assert curve.piece_at(Fraction(1, 6)).polynomial == expected
        assert curve.piece_at(Fraction(2, 5)).polynomial == expected

    def test_polynomial_piece_high(self):
        curve = symmetric_threshold_winning_polynomial(3, 1)
        expected = Polynomial(
            [Fraction(-11, 6), 9, Fraction(-21, 2), Fraction(7, 2)]
        )
        assert curve.piece_at(Fraction(3, 4)).polynomial == expected

    def test_endpoint_values(self):
        # beta = 0 and beta = 1 both put everyone in one bin
        assert symmetric_threshold_winning_probability(0, 3, 1) == (
            Fraction(1, 6)
        )
        assert symmetric_threshold_winning_probability(1, 3, 1) == (
            Fraction(1, 6)
        )

    def test_paper_value_at_0_622(self):
        # the paper's optimal beta solves beta^2 - 2 beta + 6/7 = 0;
        # at the exact algebraic point the cubic evaluates to the
        # optimum; check the cubic relation instead of a decimal
        curve = symmetric_threshold_winning_polynomial(3, 1)
        piece = curve.piece_at(Fraction(3, 4)).polynomial
        # dP/dbeta = 9 - 21 b + 21/2 b^2 = (21/2)(b^2 - 2b + 6/7)
        derivative = piece.derivative()
        assert derivative == Polynomial(
            [9, -21, Fraction(21, 2)]
        )
        quadratic = Polynomial([Fraction(6, 7), -2, 1])
        assert derivative == quadratic * Fraction(21, 2)

    def test_continuity_at_breakpoints(self):
        curve = symmetric_threshold_winning_polynomial(3, 1)
        for bp in curve.breakpoints[1:-1]:
            left = curve.piece_at(bp).polynomial(bp)
            right_piece = [p for p in curve.pieces if p.lower == bp]
            if right_piece:
                assert right_piece[0].polynomial(bp) == left


class TestSymmetricEvaluation:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("delta", [Fraction(1, 2), 1, Fraction(4, 3)])
    def test_polynomial_matches_direct_evaluation(self, n, delta):
        curve = symmetric_threshold_winning_polynomial(n, delta)
        for i in range(11):
            beta = Fraction(i, 10)
            assert curve(beta) == symmetric_threshold_winning_probability(
                beta, n, delta
            )

    def test_range(self):
        for i in range(11):
            beta = Fraction(i, 10)
            v = symmetric_threshold_winning_probability(beta, 4, 1)
            assert 0 <= v <= 1

    def test_endpoints_equal_irwin_hall(self):
        for n in (2, 3, 4, 5):
            for delta in (Fraction(1, 2), 1, Fraction(4, 3)):
                expected = irwin_hall_cdf(delta, n)
                assert symmetric_threshold_winning_probability(
                    0, n, delta
                ) == expected
                assert symmetric_threshold_winning_probability(
                    1, n, delta
                ) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            symmetric_threshold_winning_probability(Fraction(3, 2), 3, 1)
        with pytest.raises(ValueError):
            symmetric_threshold_winning_probability(Fraction(1, 2), 0, 1)
        assert symmetric_threshold_winning_probability(
            Fraction(1, 2), 3, 0
        ) == 0


class TestBreakpoints:
    def test_n3_delta1(self):
        bps = symmetric_threshold_breakpoints(3, 1)
        assert Fraction(0) in bps and Fraction(1) in bps
        assert Fraction(1, 2) in bps  # delta / 2
        assert Fraction(1, 3) in bps  # delta / 3

    def test_includes_b_factor_breakpoints(self):
        # n = 4, delta = 4/3: beta = 1 - (k - delta)/i, e.g.
        # k=2, i=1: 1 - 2/3 = 1/3; k=2, i=2: 1 - 1/3 = 2/3
        bps = symmetric_threshold_breakpoints(4, Fraction(4, 3))
        assert Fraction(1, 3) in bps
        assert Fraction(2, 3) in bps

    def test_sorted_within_unit_interval(self):
        bps = symmetric_threshold_breakpoints(5, Fraction(4, 3))
        assert bps == sorted(bps)
        assert all(0 <= b <= 1 for b in bps)

    def test_validation(self):
        with pytest.raises(ValueError):
            symmetric_threshold_breakpoints(0, 1)
        with pytest.raises(ValueError):
            symmetric_threshold_breakpoints(3, 0)

    def test_validation_is_typed(self):
        with pytest.raises(ValidationError):
            symmetric_threshold_breakpoints(0, 1)
        with pytest.raises(ValidationError):
            symmetric_threshold_breakpoints(3, Fraction(-1, 2))

    def test_polynomial_valid_between_breakpoints(self):
        # sampling three points inside one interval: all on the same
        # polynomial (cross-check of the condition-pattern construction)
        n, delta = 4, Fraction(4, 3)
        curve = symmetric_threshold_winning_polynomial(n, delta)
        for piece in curve.pieces:
            width = piece.upper - piece.lower
            for num in (1, 2, 3):
                x = piece.lower + width * Fraction(num, 4)
                assert piece.polynomial(x) == (
                    symmetric_threshold_winning_probability(x, n, delta)
                )


#: perfbench's library and serve curves, plus two deltas with a
#: denominator other than 1 or 2 (so q > 2 in ``delta = p/q``).
_CLOSED_FORM_CURVES = (
    (3, Fraction(1)), (5, Fraction(1, 2)), (7, Fraction(1, 2)),
    (10, Fraction(1, 2)), (4, Fraction(4, 3)), (6, Fraction(1, 2)),
    (8, Fraction(1, 2)), (9, Fraction(1, 2)), (6, Fraction(2)),
    (7, Fraction(5, 3)), (10, Fraction(7, 3)),
)


class TestClosedFormConstruction:
    """The integer-term builder against the independent scalar formula.

    Two polynomials of degree <= n that agree at n + 1 distinct points
    are identical, so each piece is pinned exactly.
    """

    @pytest.mark.parametrize("n,delta", _CLOSED_FORM_CURVES)
    def test_pieces_equal_scalar_formula(self, n, delta):
        curve = symmetric_threshold_winning_polynomial(n, delta)
        bounds = [curve.pieces[0].lower] + [p.upper for p in curve.pieces]
        assert bounds == symmetric_threshold_breakpoints(n, delta)
        for piece in curve.pieces:
            assert piece.polynomial.degree <= n
            width = piece.upper - piece.lower
            for j in range(1, n + 2):
                x = piece.lower + width * Fraction(j, n + 2)
                assert piece.polynomial(x) == (
                    symmetric_threshold_winning_probability(x, n, delta)
                )

    def test_paper_anchors(self):
        n3 = optimal_symmetric_threshold(3, 1)
        assert abs(n3.beta - (1 - math.sqrt(1 / 7))) < 1e-9
        assert round(float(n3.probability), 3) == 0.545
        n4 = optimal_symmetric_threshold(4, Fraction(4, 3))
        assert round(float(n4.beta), 3) == 0.678
