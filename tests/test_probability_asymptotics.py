"""Tests for the asymptotic tier and the regime dispatch layer.

Covers repro.probability.asymptotics (Berry-Esseen / Edgeworth CDF
approximations and quantile brackets), repro.probability.regimes (the
per-query dispatcher), repro.core.asymptotic (binomial-mixture winning
probabilities at large n) and repro.optimize.asymptotic_opt (the
near-optimal threshold search).
"""

import math
import random
from fractions import Fraction

import pytest

from repro.core.asymptotic import (
    binomial_window,
    symmetric_oblivious_winning_regime,
    symmetric_threshold_winning_regime,
)
from repro.core.nonoblivious import symmetric_threshold_winning_probability
from repro.core.oblivious import symmetric_oblivious_winning_probability
from repro.core.winning import winning_probability
from repro.errors import ValidationError
from repro.model.algorithms import ObliviousCoin, SingleThresholdRule
from repro.observability import use_instrumentation
from repro.optimize.asymptotic_opt import near_optimal_symmetric_threshold
from repro.optimize.threshold_opt import optimal_symmetric_threshold
from repro.probability.asymptotics import (
    AsymptoticCDF,
    irwin_hall_asymptotic_value_bound,
    irwin_hall_cdf_asymptotic,
    irwin_hall_quantile_asymptotic,
    normal_cdf,
    sum_uniform_cdf_asymptotic,
)
from repro.probability.regimes import (
    DEFAULT_POLICY,
    REGIME_ASYMPTOTIC,
    REGIME_EXACT,
    RegimePolicy,
    irwin_hall_cdf_regime,
)
from repro.probability.uniform_sums import irwin_hall_cdf, sum_uniform_cdf

FORCE_ASYMPTOTIC = RegimePolicy(
    exact_max_n=0, exact_max_m=0, certified_max_m=0
)


# ---------------------------------------------------------------------------
# Berry-Esseen / Edgeworth CDF estimates
# ---------------------------------------------------------------------------


class TestIrwinHallAsymptotic:
    @pytest.mark.parametrize("method", ["normal", "edgeworth"])
    @pytest.mark.parametrize("m", [5, 10, 20, 30])
    def test_bound_is_sound_against_exact(self, method, m):
        for num in range(1, 8):
            t = Fraction(num * m, 8)
            exact = float(irwin_hall_cdf(t, m))
            approx = irwin_hall_cdf_asymptotic(float(t), m, method=method)
            assert abs(exact - approx.value) <= approx.error_bound
            lo, hi = approx.bracket
            assert lo <= exact <= hi

    def test_edgeworth_estimate_beats_normal(self):
        # At a non-central point the kurtosis correction matters; the
        # Edgeworth estimate should be strictly closer to truth.
        m = 12
        t = Fraction(m, 4)
        exact = float(irwin_hall_cdf(t, m))
        normal = irwin_hall_cdf_asymptotic(float(t), m, method="normal")
        edge = irwin_hall_cdf_asymptotic(float(t), m, method="edgeworth")
        assert abs(edge.value - exact) < abs(normal.value - exact)

    def test_support_short_circuits_are_exact(self):
        assert irwin_hall_cdf_asymptotic(-1.0, 50).value == 0.0
        assert irwin_hall_cdf_asymptotic(-1.0, 50).error_bound == 0.0
        assert irwin_hall_cdf_asymptotic(0.0, 50).value == 0.0
        assert irwin_hall_cdf_asymptotic(50.0, 50).value == 1.0
        assert irwin_hall_cdf_asymptotic(99.0, 50).error_bound == 0.0

    def test_tail_sharpening_beats_berry_esseen(self):
        # Far in the left tail the Hoeffding pin is exponentially
        # smaller than the O(1/sqrt(m)) Berry-Esseen term.
        m = 400
        approx = irwin_hall_cdf_asymptotic(m / 4.0, m)
        assert approx.value < 1e-6
        assert approx.error_bound < 1e-6
        be_scale = 0.73 / math.sqrt(m)
        assert approx.error_bound < be_scale / 100.0

    def test_bound_shrinks_with_m(self):
        bounds = [
            irwin_hall_cdf_asymptotic(m / 2.0, m, method="normal").error_bound
            for m in (10, 100, 1000, 10000)
        ]
        assert bounds == sorted(bounds, reverse=True)

    def test_symmetry_at_center(self):
        approx = irwin_hall_cdf_asymptotic(8.0, 16)
        assert approx.value == pytest.approx(0.5, abs=1e-12)

    def test_value_bound_variant_matches_dataclass(self):
        for m in (30, 500, 10**6):
            for frac in (0.25, 0.5, 0.75):
                t = frac * m
                full = irwin_hall_cdf_asymptotic(t, m)
                value, bound = irwin_hall_asymptotic_value_bound(t, m)
                assert value == full.value
                assert bound == full.error_bound

    def test_validation(self):
        with pytest.raises(ValidationError):
            irwin_hall_cdf_asymptotic(1.0, 0)
        with pytest.raises(ValidationError):
            irwin_hall_cdf_asymptotic(1.0, 10, method="bogus")

    def test_huge_m_is_finite_and_fast(self):
        approx = irwin_hall_cdf_asymptotic(500_000.0, 10**6)
        assert approx.value == pytest.approx(0.5, abs=1e-9)
        assert 0.0 < approx.error_bound < 1e-3


class TestSumUniformAsymptotic:
    def test_bound_sound_for_mixed_widths(self):
        uppers = [Fraction(1, 2), 1, Fraction(3, 2), 2, 1, Fraction(3, 4)]
        span = sum(uppers)
        for num in range(1, 8):
            t = Fraction(num) * span / 8
            exact = float(sum_uniform_cdf(t, uppers))
            approx = sum_uniform_cdf_asymptotic(
                float(t), [float(u) for u in uppers]
            )
            assert abs(exact - approx.value) <= approx.error_bound

    def test_iid_case_matches_irwin_hall_variant(self):
        m = 40
        t = 17.0
        iid = irwin_hall_cdf_asymptotic(t, m)
        general = sum_uniform_cdf_asymptotic(t, [1.0] * m)
        assert general.value == pytest.approx(iid.value, rel=1e-12)
        assert general.error_bound == pytest.approx(
            iid.error_bound, rel=1e-9
        )

    def test_zero_widths_dropped(self):
        with_zeros = sum_uniform_cdf_asymptotic(3.0, [1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        without = sum_uniform_cdf_asymptotic(3.0, [1.0] * 6)
        assert with_zeros.value == without.value
        assert with_zeros == without

    def test_all_zero_widths_is_constant(self):
        assert sum_uniform_cdf_asymptotic(0.5, [0.0, 0.0]).value == 1.0
        assert sum_uniform_cdf_asymptotic(-0.5, [0.0, 0.0]).value == 0.0

    def test_negative_width_rejected(self):
        with pytest.raises(ValidationError):
            sum_uniform_cdf_asymptotic(1.0, [1.0, -1.0])

    def test_huge_widths_do_not_overflow_to_nan(self):
        # The fourth-moment sum of two 1e300 widths overflows float
        # range; the CDF is scale-invariant, so the kernel rescales.
        approx = sum_uniform_cdf_asymptotic(0.5, [1e300, 1e300])
        assert math.isfinite(approx.value)
        assert math.isfinite(approx.error_bound)
        exact = sum_uniform_cdf(Fraction(1, 2), [Fraction(1e300)] * 2)
        lo, hi = approx.bracket
        assert lo <= float(exact) <= hi
        # Rescaling by a power of two is exact in binary.
        scale = 2.0**-997
        unit = sum_uniform_cdf_asymptotic(0.5 * scale, [1e300 * scale] * 2)
        assert (approx.value, approx.error_bound) == (
            unit.value,
            unit.error_bound,
        )

    def test_tiny_widths_do_not_underflow(self):
        approx = sum_uniform_cdf_asymptotic(1e-300, [1e-300] * 4)
        exact = sum_uniform_cdf(Fraction(1e-300), [Fraction(1e-300)] * 4)
        assert abs(Fraction(approx.value) - exact) <= Fraction(
            approx.error_bound
        )


class TestAsymptoticQuantile:
    @pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_bracket_contains_true_quantile(self, p):
        # Verify via the exact CDF: F(lower) <= p <= F(upper) pins the
        # true quantile inside [lower, upper] by monotonicity.
        m = 16
        q = irwin_hall_quantile_asymptotic(p, m)
        assert q.lower <= q.value <= q.upper
        lower_cdf = float(irwin_hall_cdf(Fraction(q.lower).limit_denominator(10**12), m))
        upper_cdf = float(irwin_hall_cdf(Fraction(q.upper).limit_denominator(10**12), m))
        assert lower_cdf <= p + 1e-12
        assert upper_cdf >= p - 1e-12

    def test_median_is_center(self):
        q = irwin_hall_quantile_asymptotic(0.5, 10**6)
        assert q.value == pytest.approx(500_000.0, abs=1e-6)
        # bracket half-width ~ sigma * InvPhi(1/2 + 0.73/sqrt(m))
        assert q.upper - q.lower < 2.0

    def test_extreme_p_degrades_to_support(self):
        # p +- eps escapes (0, 1) for small m: the bracket endpoint
        # degrades to the support edge, still a valid enclosure.
        q = irwin_hall_quantile_asymptotic(0.01, 4)
        assert q.lower == 0.0
        assert 0.0 <= q.value <= 4.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            irwin_hall_quantile_asymptotic(0.0, 10)
        with pytest.raises(ValidationError):
            irwin_hall_quantile_asymptotic(1.0, 10)
        with pytest.raises(ValidationError):
            irwin_hall_quantile_asymptotic(0.5, 0)

    def test_normal_cdf_tails(self):
        assert normal_cdf(0.0) == pytest.approx(0.5)
        assert normal_cdf(-40.0) >= 0.0
        assert normal_cdf(40.0) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# regime dispatch
# ---------------------------------------------------------------------------


class TestRegimeDispatch:
    def test_small_m_is_exact_with_fraction(self):
        result = irwin_hall_cdf_regime(Fraction(3, 2), 3)
        assert result.regime == REGIME_EXACT
        assert result.exact == irwin_hall_cdf(Fraction(3, 2), 3)
        assert result.value == float(result.exact)
        assert result.error_bound <= 1e-15

    def test_orders_up_to_the_ceiling_are_exact(self):
        rng = random.Random(24)
        assert DEFAULT_POLICY.exact_ceiling == 160
        for m in (25, rng.randint(26, 159), 160):
            points = [
                Fraction(rng.randint(1, 97 * m - 1), 97),
                Fraction(rng.uniform(0.2 * m, 0.8 * m)),
                Fraction(m, 4),
            ]
            for t in points:
                result = irwin_hall_cdf_regime(t, m)
                assert result.regime == REGIME_EXACT, (m, t)
                assert result.exact == irwin_hall_cdf(t, m)
                assert result.value == float(irwin_hall_cdf(t, m)), (m, t)

    def test_ceiling_is_the_larger_order_field(self):
        # Either order field alone sets the exact tier's reach, in the
        # dispatcher and in the binomial mixture's factor loop alike.
        only_exact = RegimePolicy(exact_max_m=160, certified_max_m=0)
        only_certified = RegimePolicy(exact_max_m=0, certified_max_m=160)
        assert only_exact.exact_ceiling == only_certified.exact_ceiling == 160
        assert FORCE_ASYMPTOTIC.exact_ceiling == 0
        for policy in (only_exact, only_certified):
            assert irwin_hall_cdf_regime(40, 100, policy).regime == REGIME_EXACT
            assert (
                irwin_hall_cdf_regime(40, 161, policy).regime
                == REGIME_ASYMPTOTIC
            )
            assert symmetric_threshold_winning_regime(
                Fraction(1, 2), 300, 110, policy
            ) == symmetric_threshold_winning_regime(Fraction(1, 2), 300, 110)

    def test_medium_m_uncertifiable_degrades_to_exact(self):
        # Central t at m ~ 34, where a float series would lose every
        # digit to cancellation: the exact tier answers.
        m = DEFAULT_POLICY.exact_max_m + 10
        result = irwin_hall_cdf_regime(Fraction(m, 2), m)
        assert result.regime == REGIME_EXACT
        assert result.exact == irwin_hall_cdf(Fraction(m, 2), m)

    def test_large_m_is_asymptotic(self):
        m = DEFAULT_POLICY.exact_ceiling + 1
        result = irwin_hall_cdf_regime(Fraction(m, 2), m)
        assert result.regime == REGIME_ASYMPTOTIC
        assert result.method == DEFAULT_POLICY.method
        assert result.exact is None
        # The answer is the asymptotic tier's own, bit for bit.
        for t in (Fraction(m, 2), Fraction(m, 5), Fraction(1, 3)):
            assert irwin_hall_cdf_regime(t, m) == irwin_hall_cdf_asymptotic(
                float(t), m, method=DEFAULT_POLICY.method
            )

    def test_m_zero_empty_sum(self):
        assert irwin_hall_cdf_regime(Fraction(1), 0).value == 1.0
        assert irwin_hall_cdf_regime(Fraction(-1), 0).value == 0.0

    def test_dispatch_counters(self):
        with use_instrumentation() as instr:
            irwin_hall_cdf_regime(Fraction(1, 2), 2)
            irwin_hall_cdf_regime(Fraction(15), 60)
            irwin_hall_cdf_regime(Fraction(80), 160)
            irwin_hall_cdf_regime(Fraction(80), 161)
            irwin_hall_cdf_regime(Fraction(500), 1000)
            irwin_hall_cdf_regime(Fraction(1), 4, FORCE_ASYMPTOTIC)
            counters = instr.metrics.snapshot().counters
        assert counters["asymptotics.dispatch.calls"] == 6
        assert counters["asymptotics.dispatch.exact"] == 3
        assert counters["asymptotics.dispatch.asymptotic"] == 3
        assert not any("certified" in name for name in counters)

    def test_forced_asymptotic_stays_within_bound(self):
        for m in (4, 8, 16):
            t = Fraction(m, 3)
            exact = float(irwin_hall_cdf(t, m))
            result = irwin_hall_cdf_regime(t, m, FORCE_ASYMPTOTIC)
            assert result.regime == REGIME_ASYMPTOTIC
            assert abs(result.value - exact) <= result.error_bound

    def test_bracket_clipped_to_unit_interval(self):
        result = irwin_hall_cdf_regime(Fraction(100), 1000, FORCE_ASYMPTOTIC)
        lo, hi = result.bracket
        assert 0.0 <= lo <= hi <= 1.0

    def test_policy_validation(self):
        with pytest.raises(ValidationError):
            RegimePolicy(method="bogus")
        with pytest.raises(ValidationError):
            RegimePolicy(tail_tol=0.0)
        with pytest.raises(ValidationError):
            RegimePolicy(exact_max_m=-1)


# ---------------------------------------------------------------------------
# binomial window
# ---------------------------------------------------------------------------


class TestBinomialWindow:
    def test_degenerate_p_collapses(self):
        assert binomial_window(100, 0.0, 1e-9) == (0, 0)
        assert binomial_window(100, 1.0, 1e-9) == (100, 100)
        assert binomial_window(100, -0.5, 1e-9) == (0, 0)

    def test_tail_mass_below_tolerance(self):
        # Exact check for small n: the binomial mass outside [lo, hi]
        # must be below the requested tail tolerance.
        n, p, tol = 60, 0.4, 1e-6
        lo, hi = binomial_window(n, p, tol)
        outside = sum(
            float(
                Fraction(math.comb(n, k))
                * Fraction(2, 5) ** k
                * Fraction(3, 5) ** (n - k)
            )
            for k in range(n + 1)
            if not lo <= k <= hi
        )
        assert outside < tol

    def test_window_is_sublinear(self):
        lo, hi = binomial_window(10**6, 0.5, 1e-12)
        assert hi - lo < 20_000  # O(sqrt(n log(1/tol))), not O(n)
        assert 0 <= lo <= 500_000 <= hi <= 10**6

    def test_negative_n_rejected(self):
        with pytest.raises(ValidationError):
            binomial_window(-1, 0.5, 1e-9)


# ---------------------------------------------------------------------------
# winning probabilities at large n
# ---------------------------------------------------------------------------


class TestMixtureAgainstExact:
    @pytest.mark.parametrize("n", [12, 15, 18])
    def test_threshold_forced_asymptotic_within_bound(self, n):
        delta = Fraction(3 * n, 8)
        beta = Fraction(1, 2)
        exact = float(
            symmetric_threshold_winning_probability(beta, n, delta)
        )
        result = symmetric_threshold_winning_regime(
            beta, n, delta, FORCE_ASYMPTOTIC
        )
        assert result.regime == REGIME_ASYMPTOTIC
        assert abs(result.value - exact) <= result.error_bound

    @pytest.mark.parametrize("n", [12, 15, 18])
    def test_oblivious_forced_asymptotic_within_bound(self, n):
        delta = Fraction(3 * n, 8)
        alpha = Fraction(1, 2)
        exact = float(
            symmetric_oblivious_winning_probability(delta, n, alpha)
        )
        result = symmetric_oblivious_winning_regime(
            alpha, n, delta, FORCE_ASYMPTOTIC
        )
        assert result.regime == REGIME_ASYMPTOTIC
        assert abs(result.value - exact) <= result.error_bound

    def test_small_n_delegates_to_exact(self):
        result = symmetric_threshold_winning_regime(
            Fraction(1, 2), 5, Fraction(3, 2)
        )
        assert result.regime == REGIME_EXACT
        assert result.exact == symmetric_threshold_winning_probability(
            Fraction(1, 2), 5, Fraction(3, 2)
        )

    def test_degenerate_delta_is_zero(self):
        result = symmetric_threshold_winning_regime(Fraction(1, 2), 100, 0)
        assert result.value == 0.0
        assert result.error_bound == 0.0

    def test_degenerate_beta_single_bin(self):
        # beta = 1: every input lands in bin 0 with load IH(n).
        n, delta = 100, Fraction(55)
        result = symmetric_threshold_winning_regime(1, n, delta)
        direct = irwin_hall_cdf_regime(delta, n)
        assert result.value == pytest.approx(direct.value, abs=1e-9)

    def test_large_n_is_tight_and_counts_metrics(self):
        with use_instrumentation() as instr:
            result = symmetric_oblivious_winning_regime(
                Fraction(1, 2), 10**5, Fraction(10**5 * 3, 8)
            )
            counters = instr.metrics.snapshot().counters
        assert result.regime == REGIME_ASYMPTOTIC
        assert 0.0 <= result.value <= 1.0
        assert result.error_bound < 1e-6
        assert counters["asymptotics.calls"] == 1
        assert counters["asymptotics.terms"] > 100

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            symmetric_threshold_winning_regime(Fraction(3, 2), 100, 1)
        with pytest.raises(ValidationError):
            symmetric_oblivious_winning_regime(-1, 100, 1)
        with pytest.raises(ValidationError):
            symmetric_threshold_winning_regime(Fraction(1, 2), 0, 1)

    def test_capacity_beyond_float_range_is_won(self):
        # delta >= n: each bin holds a sum of at most n inputs in [0, 1].
        huge = Fraction(10**400)
        for regime in (
            symmetric_threshold_winning_regime,
            symmetric_oblivious_winning_regime,
        ):
            result = regime(Fraction(1, 2), 100, huge)
            assert (result.value, result.error_bound) == (1.0, 0.0)
            assert result.exact == 1
            assert result.bracket == (1.0, 1.0)
        assert near_optimal_symmetric_threshold(100, huge).value == 1.0

    def test_optimum_beyond_float_range_prints(self):
        # str() formats delta without float(), which overflows here.
        text = str(near_optimal_symmetric_threshold(100, Fraction(10) ** 400))
        assert text.startswith("n=100, delta=1.00000e+400: ")
        assert "P in [1.000000, 1.000000]" in text
        assert "delta=0.5: " in str(
            near_optimal_symmetric_threshold(6, Fraction(1, 2))
        )


class TestWinningProbabilityEntryPoint:
    def test_small_system_exact(self):
        algorithms = [SingleThresholdRule(Fraction(1, 2))] * 4
        result = winning_probability(algorithms, Fraction(3, 2))
        assert result.regime == REGIME_EXACT
        assert result.exact == symmetric_threshold_winning_probability(
            Fraction(1, 2), 4, Fraction(3, 2)
        )

    def test_large_threshold_system(self):
        algorithms = [SingleThresholdRule(Fraction(1, 2))] * 500
        result = winning_probability(algorithms, Fraction(200))
        assert result.regime == REGIME_ASYMPTOTIC
        assert 0.0 <= result.value <= 1.0

    def test_large_oblivious_system(self):
        algorithms = [ObliviousCoin(Fraction(1, 2))] * 500
        result = winning_probability(algorithms, Fraction(200))
        assert result.regime == REGIME_ASYMPTOTIC

    def test_heterogeneous_large_system_rejected(self):
        algorithms = [SingleThresholdRule(Fraction(1, 2))] * 499 + [
            SingleThresholdRule(Fraction(1, 3))
        ]
        with pytest.raises(NotImplementedError):
            winning_probability(algorithms, Fraction(200))


# ---------------------------------------------------------------------------
# near-optimal threshold search
# ---------------------------------------------------------------------------


class TestNearOptimalThreshold:
    def test_small_n_delegates_to_exact_optimizer(self):
        result = near_optimal_symmetric_threshold(6, Fraction(2))
        exact = optimal_symmetric_threshold(6, Fraction(2))
        assert result.gap_bound == 0.0
        assert result.beta == float(exact.beta)
        assert result.value == float(exact.probability)
        assert result.exact is not None

    def test_crossover_n_tracks_exact_optimum(self):
        # Force the asymptotic search at an n the exact optimizer can
        # still handle, and compare.
        n, delta = 14, Fraction(21, 4)
        exact = optimal_symmetric_threshold(n, delta)
        policy = RegimePolicy(exact_max_n=0)
        result = near_optimal_symmetric_threshold(n, delta, policy)
        assert result.probability.regime == REGIME_ASYMPTOTIC
        # The certified enclosure around P(beta_hat) must contain the
        # true value of the curve at beta_hat...
        true_at_hat = float(
            symmetric_threshold_winning_probability(
                Fraction(result.beta).limit_denominator(10**12), n, delta
            )
        )
        lo, hi = result.bracket
        assert lo - 1e-12 <= true_at_hat <= hi + 1e-12
        # ...and beta_hat must be near-optimal: the true optimum value
        # cannot exceed the achieved value by more than bound + gap.
        shortfall = float(exact.probability) - true_at_hat
        assert shortfall <= result.gap_bound + 2 * result.error_bound + 1e-9

    def test_large_n_runs_fast_with_small_gap(self):
        result = near_optimal_symmetric_threshold(10**4, Fraction(4000))
        assert result.probability.regime == REGIME_ASYMPTOTIC
        assert 0.0 < result.beta < 1.0
        assert result.gap_bound < 0.01
        assert result.evaluations > 10

    def test_optimizer_counters(self):
        with use_instrumentation() as instr:
            near_optimal_symmetric_threshold(1000, Fraction(400))
            counters = instr.metrics.snapshot().counters
        assert counters["asymptotics.optimizer_searches"] == 1
        assert counters["asymptotics.optimizer_evals"] > 10

    def test_validation(self):
        with pytest.raises(ValidationError):
            near_optimal_symmetric_threshold(0, Fraction(1))
        with pytest.raises(ValidationError):
            near_optimal_symmetric_threshold(100, Fraction(-1))
        with pytest.raises(ValidationError):
            near_optimal_symmetric_threshold(100, Fraction(1), grid_points=0)
