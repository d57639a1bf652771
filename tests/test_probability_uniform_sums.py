"""Tests for repro.probability.uniform_sums (Lemmas 2.4, 2.5, 2.7, Cor 2.6)."""

from fractions import Fraction

import pytest

from repro.probability.uniform_sums import (
    irwin_hall_cdf,
    irwin_hall_pdf,
    joint_sum_below_and_inside_high,
    joint_sum_below_and_inside_low,
    sum_uniform_cdf,
    sum_uniform_pdf,
    sum_uniform_tail_cdf,
)


class TestIrwinHallCdf:
    def test_m1_is_uniform_cdf(self):
        assert irwin_hall_cdf(Fraction(1, 3), 1) == Fraction(1, 3)

    def test_m2_known_values(self):
        # triangular distribution: F(1) = 1/2, F(1/2) = 1/8
        assert irwin_hall_cdf(1, 2) == Fraction(1, 2)
        assert irwin_hall_cdf(Fraction(1, 2), 2) == Fraction(1, 8)
        assert irwin_hall_cdf(Fraction(3, 2), 2) == Fraction(7, 8)

    def test_m3_known_values(self):
        assert irwin_hall_cdf(1, 3) == Fraction(1, 6)
        assert irwin_hall_cdf(Fraction(3, 2), 3) == Fraction(1, 2)

    def test_boundaries(self):
        assert irwin_hall_cdf(0, 4) == 0
        assert irwin_hall_cdf(-1, 4) == 0
        assert irwin_hall_cdf(4, 4) == 1
        assert irwin_hall_cdf(7, 4) == 1

    def test_empty_sum_convention(self):
        assert irwin_hall_cdf(Fraction(1, 2), 0) == 1
        assert irwin_hall_cdf(-1, 0) == 0

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            irwin_hall_cdf(1, -1)

    def test_monotone_in_t(self):
        values = [irwin_hall_cdf(Fraction(i, 4), 3) for i in range(13)]
        assert values == sorted(values)

    def test_symmetry_about_mean(self):
        # Irwin-Hall is symmetric about m/2: F(t) = 1 - F(m - t)
        m = 5
        for t in (Fraction(1, 2), 1, Fraction(7, 4), Fraction(5, 2)):
            assert irwin_hall_cdf(t, m) == 1 - irwin_hall_cdf(m - t, m)


class TestIrwinHallPdf:
    def test_m1_uniform_density(self):
        assert irwin_hall_pdf(Fraction(1, 2), 1) == 1

    def test_m2_triangle(self):
        assert irwin_hall_pdf(Fraction(1, 2), 2) == Fraction(1, 2)
        assert irwin_hall_pdf(1, 2) == 1
        assert irwin_hall_pdf(Fraction(3, 2), 2) == Fraction(1, 2)

    def test_outside_support(self):
        assert irwin_hall_pdf(0, 3) == 0
        assert irwin_hall_pdf(3, 3) == 0
        assert irwin_hall_pdf(4, 3) == 0

    def test_m0_rejected(self):
        with pytest.raises(ValueError):
            irwin_hall_pdf(1, 0)

    def test_integrates_to_cdf(self):
        # numerical check: Riemann sum of the pdf approximates the cdf
        m = 3
        t = Fraction(3, 2)
        steps = 3000
        total = sum(
            irwin_hall_pdf(Fraction(i, steps) * m, m) for i in range(1, steps)
        ) * Fraction(m, steps)
        # F(3/2) for m=3 is 1/2 over the full support scan; compare at
        # the scan of [0, t] only:
        partial = sum(
            irwin_hall_pdf(t * Fraction(i, steps), m)
            for i in range(1, steps)
        ) * t / steps
        assert abs(partial - irwin_hall_cdf(t, m)) < Fraction(1, 500)
        assert abs(total - 1) < Fraction(1, 500)


class TestSumUniformCdf:
    def test_reduces_to_irwin_hall(self):
        for t in (Fraction(1, 2), 1, Fraction(5, 2)):
            assert sum_uniform_cdf(t, [1, 1, 1]) == irwin_hall_cdf(t, 3)

    def test_scaling_one_variable(self):
        # X ~ U[0, 2]: P(X <= t) = t/2
        assert sum_uniform_cdf(Fraction(1, 2), [2]) == Fraction(1, 4)

    def test_mixed_intervals_hand_case(self):
        # X ~ U[0,1], Y ~ U[0,1/2]; P(X + Y <= 1/2) =
        # area of triangle with legs 1/2 over box 1 x 1/2 =
        # (1/8) / (1/2) = 1/4
        assert sum_uniform_cdf(Fraction(1, 2), [1, Fraction(1, 2)]) == (
            Fraction(1, 4)
        )

    def test_boundaries(self):
        assert sum_uniform_cdf(0, [1, 2]) == 0
        assert sum_uniform_cdf(3, [1, 2]) == 1
        assert sum_uniform_cdf(10, [1, 2]) == 1

    def test_empty_list(self):
        assert sum_uniform_cdf(1, []) == 1
        assert sum_uniform_cdf(-1, []) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            sum_uniform_cdf(1, [1, -1])

    def test_zero_width_intervals_dropped(self):
        # A zero-width interval is the constant 0: it contributes
        # nothing to the sum, so the CDF ignores it.
        assert sum_uniform_cdf(1, [1, 0]) == sum_uniform_cdf(1, [1])
        assert sum_uniform_cdf(Fraction(1, 2), [0, 0, 1]) == Fraction(1, 2)
        # All-zero-width degenerates to the point mass at 0.
        assert sum_uniform_cdf(1, [0, 0]) == 1
        assert sum_uniform_cdf(-1, [0]) == 0

    def test_volume_connection(self):
        # Lemma 2.4 proof: F(t) = Vol(SigmaPi(t*1, pi)) / Vol(box)
        from repro.geometry.volume import intersection_volume

        pi = [Fraction(1, 2), Fraction(3, 4), 1]
        t = Fraction(5, 4)
        vol = intersection_volume([t] * 3, pi)
        box = Fraction(1, 2) * Fraction(3, 4)
        assert sum_uniform_cdf(t, pi) == vol / box


class TestSumUniformPdf:
    def test_reduces_to_irwin_hall(self):
        assert sum_uniform_pdf(Fraction(3, 2), [1, 1, 1]) == (
            irwin_hall_pdf(Fraction(3, 2), 3)
        )

    def test_outside_support(self):
        assert sum_uniform_pdf(0, [1, 2]) == 0
        assert sum_uniform_pdf(3, [1, 2]) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sum_uniform_pdf(1, [])

    def test_rota_density_is_derivative_of_cdf(self):
        # central difference of Lemma 2.4 matches Lemma 2.5
        pi = [1, Fraction(1, 2)]
        t = Fraction(3, 4)
        h = Fraction(1, 10**6)
        numeric = (
            sum_uniform_cdf(t + h, pi) - sum_uniform_cdf(t - h, pi)
        ) / (2 * h)
        assert abs(numeric - sum_uniform_pdf(t, pi)) < Fraction(1, 10**5)


class TestSumUniformTailCdf:
    def test_reduces_to_irwin_hall_at_zero_lowers(self):
        for t in (Fraction(1, 2), Fraction(3, 2)):
            assert sum_uniform_tail_cdf(t, [0, 0]) == irwin_hall_cdf(t, 2)

    def test_single_variable(self):
        # X ~ U[1/2, 1]: P(X <= 3/4) = 1/2
        assert sum_uniform_tail_cdf(Fraction(3, 4), [Fraction(1, 2)]) == (
            Fraction(1, 2)
        )

    def test_boundaries(self):
        lowers = [Fraction(1, 4), Fraction(1, 2)]
        assert sum_uniform_tail_cdf(Fraction(3, 4), lowers) == 0  # below floor
        assert sum_uniform_tail_cdf(2, lowers) == 1

    def test_empty(self):
        assert sum_uniform_tail_cdf(0, []) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            sum_uniform_tail_cdf(1, [1])  # lower must be < 1
        with pytest.raises(ValueError):
            sum_uniform_tail_cdf(1, [Fraction(-1, 4)])

    def test_reflection_identity(self):
        # P(sum x <= t) with x ~ U[pi, 1] equals
        # 1 - P(sum x' <= m - t) with x' ~ U[0, 1 - pi]
        lowers = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)]
        t = Fraction(7, 4)
        lhs = sum_uniform_tail_cdf(t, lowers)
        rhs = 1 - sum_uniform_cdf(3 - t, [1 - v for v in lowers])
        assert lhs == rhs


class TestJointProbabilities:
    def test_low_equals_cdf_times_box(self):
        # P(sum <= t and all below alpha) =
        # P(conditioned sum <= t) * prod alpha
        alphas = [Fraction(1, 2), Fraction(3, 4)]
        t = Fraction(3, 4)
        conditional = sum_uniform_cdf(t, alphas)
        box = Fraction(1, 2) * Fraction(3, 4)
        assert joint_sum_below_and_inside_low(t, alphas) == conditional * box

    def test_high_equals_tail_cdf_times_box(self):
        alphas = [Fraction(1, 4), Fraction(1, 2)]
        t = Fraction(3, 2)
        conditional = sum_uniform_tail_cdf(t, alphas)
        box = Fraction(3, 4) * Fraction(1, 2)
        assert joint_sum_below_and_inside_high(t, alphas) == (
            conditional * box
        )

    def test_empty_groups(self):
        assert joint_sum_below_and_inside_low(1, []) == 1
        assert joint_sum_below_and_inside_high(1, []) == 1

    def test_degenerate_thresholds(self):
        # alpha = 0 in the low group: P(x <= 0) = 0
        assert joint_sum_below_and_inside_low(1, [0, Fraction(1, 2)]) == 0
        # alpha = 1 in the high group: P(x >= 1) = 0
        assert joint_sum_below_and_inside_high(1, [1, Fraction(1, 2)]) == 0

    def test_low_capped_by_box_volume(self):
        alphas = [Fraction(1, 3), Fraction(2, 3)]
        v = joint_sum_below_and_inside_low(10, alphas)
        assert v == Fraction(1, 3) * Fraction(2, 3)

    def test_high_capped_by_box_volume(self):
        alphas = [Fraction(1, 3), Fraction(2, 3)]
        v = joint_sum_below_and_inside_high(10, alphas)
        assert v == Fraction(2, 3) * Fraction(1, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            joint_sum_below_and_inside_low(1, [Fraction(3, 2)])
        with pytest.raises(ValueError):
            joint_sum_below_and_inside_high(1, [Fraction(-1, 2)])

    def test_partition_identity(self):
        # conditioning on which side of alpha each input falls:
        # sum over the 2^m split patterns of (joint low for L-part
        # restricted) ... simplest instance m = 1:
        # P(x <= t) = P(x <= t, x <= a) + P(x <= t, x > a)
        a = Fraction(2, 5)
        t = Fraction(7, 10)
        lhs = irwin_hall_cdf(t, 1)
        rhs = joint_sum_below_and_inside_low(
            t, [a]
        ) + joint_sum_below_and_inside_high(t, [a])
        assert lhs == rhs
