"""Golden-record regression: exact values pinned across the package.

Every entry is an exact rational computed by the library at the time
the reproduction was validated (cross-checked against the paper and
Monte Carlo).  Any code change that shifts one of these is either a
bug or a deliberate semantic change that must update this file.
"""

from fractions import Fraction

import pytest

from repro.core.interval_rules import interval_rule_winning_probability
from repro.core.nonoblivious import (
    symmetric_threshold_winning_probability,
    threshold_winning_probability,
)
from repro.core.oblivious import (
    oblivious_winning_probability,
    optimal_oblivious_winning_probability,
)
from repro.core.phi import phi
from repro.geometry.volume import intersection_volume
from repro.model.algorithms import IntervalRule
from repro.probability.uniform_sums import (
    irwin_hall_cdf,
    irwin_hall_pdf,
    sum_uniform_cdf,
    sum_uniform_tail_cdf,
)

F = Fraction

IRWIN_HALL_CDF_GOLDEN = [
    # (t, m, value)
    (F(1, 2), 1, F(1, 2)),
    (F(1), 2, F(1, 2)),
    (F(1), 3, F(1, 6)),
    (F(4, 3), 3, F(61, 162)),
    (F(4, 3), 4, F(7, 54)),
    (F(3, 2), 3, F(1, 2)),
    (F(2), 4, F(1, 2)),
    (F(5, 2), 5, F(1, 2)),
    (F(2), 3, F(5, 6)),
    (F(5, 3), 5, F(593, 5832)),
]

WINNING_GOLDEN = [
    # (kind, args, value)
    ("coin", (F(1), (F(1, 2), F(1, 2))), F(3, 4)),
    ("coin", (F(1), (F(1, 2),) * 3), F(5, 12)),
    ("coin", (F(4, 3), (F(1, 2),) * 4), F(559, 1296)),
    ("coin", (F(1), (F(1, 3), F(1, 2), F(2, 3))), F(23, 54)),
    ("coin", (F(1), (F(1), F(0), F(1, 2))), F(1, 2)),
    ("threshold", (F(1), (F(1, 2),) * 3), F(23, 48)),
    ("threshold", (F(1), (F(2, 3),) * 2), F(5, 6)),
    ("threshold", (F(4, 3), (F(2, 3),) * 4), F(104, 243)),
    ("threshold", (F(1), (F(0), F(1), F(1, 2))), F(1, 2)),
]

SYMMETRIC_CURVE_GOLDEN = [
    # (beta, n, delta, value)
    (F(1, 4), 3, F(1), F(1, 6) + F(3, 2) * F(1, 16) - F(1, 2) * F(1, 64)),
    (F(3, 4), 3, F(1), F(-11, 6) + 9 * F(3, 4) - F(21, 2) * F(9, 16)
     + F(7, 2) * F(27, 64)),
    (F(1, 2), 4, F(4, 3), F(1001, 2592)),
]


class TestIrwinHallGolden:
    @pytest.mark.parametrize("t, m, expected", IRWIN_HALL_CDF_GOLDEN)
    def test_cdf(self, t, m, expected):
        assert irwin_hall_cdf(t, m) == expected

    def test_pdf_peak_values(self):
        assert irwin_hall_pdf(1, 2) == 1
        assert irwin_hall_pdf(F(3, 2), 3) == F(3, 4)


class TestWinningGolden:
    @pytest.mark.parametrize("kind, args, expected", WINNING_GOLDEN)
    def test_values(self, kind, args, expected):
        t, params = args
        if kind == "coin":
            assert oblivious_winning_probability(t, list(params)) == expected
        else:
            assert threshold_winning_probability(t, list(params)) == expected

    def test_symmetric_curve_values(self):
        for beta, n, delta, expected in SYMMETRIC_CURVE_GOLDEN:
            if expected is None:
                continue
            assert symmetric_threshold_winning_probability(
                beta, n, delta
            ) == expected

    def test_optimal_oblivious_table(self):
        expected = {
            2: F(3, 4),
            3: F(5, 12),
            4: F(35, 192),
            5: F(21, 320),
        }
        assert optimal_oblivious_winning_probability(1, 2) == expected[2]
        assert optimal_oblivious_winning_probability(1, 3) == expected[3]
        assert optimal_oblivious_winning_probability(1, 4) == expected[4]
        assert optimal_oblivious_winning_probability(1, 5) == expected[5]


class TestPhiGolden:
    def test_n3_t1(self):
        assert [phi(1, k, 3) for k in range(4)] == [
            F(1, 6),
            F(1, 2),
            F(1, 2),
            F(1, 6),
        ]

    def test_n4_t43(self):
        assert phi(F(4, 3), 2, 4) == F(7, 9) * F(7, 9)


class TestGeometryGolden:
    def test_intersection_volumes(self):
        assert intersection_volume([1, 1], [F(3, 4), F(3, 4)]) == F(7, 16)
        assert intersection_volume([F(3, 2)] * 3, [1, 1, 1]) == F(1, 2)
        assert intersection_volume([2, 3], [1, 1]) == 1


class TestSumGolden:
    def test_mixed_interval_cdfs(self):
        assert sum_uniform_cdf(F(1, 2), [1, F(1, 2)]) == F(1, 4)
        assert sum_uniform_cdf(F(5, 4), [1, F(1, 2)]) == F(15, 16)
        assert sum_uniform_tail_cdf(F(3, 2), [F(1, 4), F(1, 2)]) == F(
            2, 3
        )


class TestIntervalRuleGolden:
    def test_sandwich_rule_value(self):
        rule = IntervalRule([F(1, 2), F(4, 5)], [0, 1, 0])
        value = interval_rule_winning_probability(1, [rule] * 3)
        # pinned at validation time (cross-checked by Monte Carlo)
        assert value == F(443, 1200)


class TestOptimaGolden:
    def test_paper_optima(self):
        from repro.optimize.threshold_opt import (
            optimal_symmetric_threshold,
        )

        opt3 = optimal_symmetric_threshold(3, 1)
        assert float(opt3.beta) == pytest.approx(
            0.6220355269907727, abs=1e-12
        )
        assert float(opt3.probability) == pytest.approx(
            0.5446311396759346, abs=1e-10
        )
        opt4 = optimal_symmetric_threshold(4, F(4, 3))
        assert float(opt4.beta) == pytest.approx(
            0.6779978415565166, abs=1e-10
        )
        assert float(opt4.probability) == pytest.approx(
            0.4285394209985734, abs=1e-10
        )

    def test_mixture_optimum(self):
        from repro.core.randomized import best_symmetric_mixture_exact
        from repro.optimize.threshold_opt import (
            optimal_symmetric_threshold,
        )

        beta = optimal_symmetric_threshold(4, F(4, 3)).beta
        p_star, value = best_symmetric_mixture_exact(4, F(4, 3), beta)
        assert float(p_star) == pytest.approx(0.549144, abs=1e-5)
        assert float(value) == pytest.approx(0.431966, abs=1e-5)
