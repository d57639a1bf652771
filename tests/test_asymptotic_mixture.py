"""The large-``n`` binomial mixture against its term-by-term reference.

:mod:`repro.core.asymptotic` evaluates each binomial window as arrays:
the factor points and orders of both bins, the asymptotic factors in
one pass of the Edgeworth / Hoeffding assembly, and each distinct
small-order point once through the exact tier.  This file keeps the
scalar per-``k`` loop that did the same job one term at a time, with
the scalar assembly it called, and holds the array form to them with
``==``: the array form performs the same IEEE operations in the same
order, so every answer and counter must be bit-identical.

It also pins what the mixture persists (nothing: its exact factors are
one-off float points) and its behaviour at float edges, under numpy's
strictest error state.
"""

import math
import random
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from repro.cache import cache_stats, configure_cache
from repro.core.asymptotic import (
    _ih_factors,
    binomial_window,
    symmetric_oblivious_winning_regime,
    symmetric_threshold_winning_regime,
)
from repro.observability import use_instrumentation
from repro.probability.asymptotics import (
    BERRY_ESSEEN_CONSTANT,
    UNIFORM_BE_RATIO,
    irwin_hall_asymptotic_lanes,
    irwin_hall_cdf_asymptotic,
    sum_uniform_cdf_asymptotic,
)
from repro.probability.regimes import (
    DEFAULT_POLICY,
    RegimePolicy,
    irwin_hall_cdf_regime,
)
from repro.probability.uniform_sums import irwin_hall_cdf
from repro.validation.enclosure import EPS

FORCE_ASYMPTOTIC = RegimePolicy(
    exact_max_n=0, exact_max_m=0, certified_max_m=0
)
#: The near-optimal scan's loosened tail budget.
SCAN_POLICY = replace(DEFAULT_POLICY, tail_tol=1e-6)
NORMAL_POLICY = replace(DEFAULT_POLICY, method="normal")


# ---------------------------------------------------------------------------
# the scalar reference: one term, one factor, one lane at a time
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_BE_IID = BERRY_ESSEEN_CONSTANT * UNIFORM_BE_RATIO


def ref_assemble(t, mean, sigma, be_bound, lambda4, sq_width_sum, method):
    z = (t - mean) / sigma
    value = 0.5 * math.erfc(-z / _SQRT2)
    bound = be_bound
    if method == "edgeworth":
        phi_z = _INV_SQRT_2PI * math.exp(-0.5 * min(z * z, 1500.0))
        correction = -phi_z * (lambda4 / 24.0) * (z * z * z - 3.0 * z)
        value += correction
        bound += abs(correction)
    if value < 0.0:
        value = 0.0
    elif value > 1.0:
        value = 1.0
    s = t - mean
    hoeff = max(math.exp(-2.0 * (s * s / sq_width_sum)), math.ulp(0.0))
    pinned = value if s < 0.0 else 1.0 - value
    if pinned < hoeff:
        pinned = hoeff
    if pinned < bound:
        bound = pinned
    return value, bound


def ref_ih_asymptotic(t, m, method):
    return ref_assemble(
        t,
        0.5 * m,
        math.sqrt(m / 12.0),
        _BE_IID / math.sqrt(m),
        -1.2 / m,
        float(m),
        method,
    )


def ref_ih_factor(t, m, policy):
    if m == 0:
        return (1.0, 0.0) if t >= 0.0 else (0.0, 0.0)
    if t <= 0.0:
        return (0.0, 0.0)
    if t >= m:
        return (1.0, 0.0)
    if m > policy.exact_ceiling:
        return ref_ih_asymptotic(t, m, policy.method)
    result = irwin_hall_cdf_regime(t, m, policy)
    return (result.value, result.error_bound)


def ref_mixture(n, p_one, f_zero, f_one, policy):
    """``(value, bound, regime, method, terms)`` summed term by term."""
    lo, hi = binomial_window(n, p_one, policy.tail_tol)
    q = 1.0 - p_one
    if p_one <= 0.0 or p_one >= 1.0:
        k = hi
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
        bound += policy.tail_tol + 8.0 * EPS * terms
    value = min(1.0, max(0.0, value))
    return (value, bound, "asymptotic", policy.method, terms)


def ref_threshold(beta, n, delta, policy):
    """The mixture part (``n > exact_max_n``, ``0 < delta < n``)."""
    beta_f = float(beta)
    delta_f = max(float(delta), math.ulp(0.0))
    if beta_f <= 0.0 or beta_f >= 1.0:
        value, bound = ref_ih_factor(delta_f, n, policy)
        return (value, bound, "asymptotic", policy.method, 0)
    inv_beta = 1.0 / beta_f
    inv_rest = 1.0 / (1.0 - beta_f)

    def f_zero(m):
        return ref_ih_factor(delta_f * inv_beta, m, policy)

    def f_one(k):
        return ref_ih_factor((delta_f - k * beta_f) * inv_rest, k, policy)

    return ref_mixture(n, 1.0 - beta_f, f_zero, f_one, policy)


def ref_oblivious(alpha, n, delta, policy):
    delta_f = max(float(delta), math.ulp(0.0))

    def factor(m):
        return ref_ih_factor(delta_f, m, policy)

    return ref_mixture(n, 1.0 - float(alpha), factor, factor, policy)


FAMILIES = {
    "threshold": (symmetric_threshold_winning_regime, ref_threshold),
    "oblivious": (symmetric_oblivious_winning_regime, ref_oblivious),
}


def array_answer(family, x, n, delta, policy):
    """The module's answer as the reference's tuple."""
    with use_instrumentation() as instr:
        result = FAMILIES[family][0](x, n, delta, policy)
        counters = instr.metrics.snapshot().counters
    return (
        result.value,
        result.error_bound,
        result.regime,
        result.method,
        counters.get("asymptotics.terms", 0),
    )


def assert_matches_reference(family, x, n, delta, policy=DEFAULT_POLICY):
    got = array_answer(family, x, n, delta, policy)
    want = FAMILIES[family][1](x, n, delta, policy)
    assert got == want, (family, x, n, delta, policy)
    return got


# ---------------------------------------------------------------------------
# bit identity
# ---------------------------------------------------------------------------


def _cases(seed):
    """Seeded ``(family, x, n, delta, policy)`` cases over every window
    shape: fully above the exact ceiling, straddling it, fully below it
    (n = 21..160), with and without the loosened scan budget."""
    rng = random.Random(seed)
    for family in FAMILIES:
        for n in (
            rng.randint(21, 160),
            rng.randint(161, 400),
            rng.randint(401, 700),
            rng.randint(2000, 60000),
        ):
            x = Fraction(rng.randint(1, 999), 1000)
            delta = Fraction(rng.randint(1, 3 * n), 6)
            policy = rng.choice((DEFAULT_POLICY, SCAN_POLICY, NORMAL_POLICY))
            yield family, x, n, delta, policy


class TestBitIdentity:
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_windows_match_the_reference(self, seed):
        for case in _cases(seed):
            assert_matches_reference(*case)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_perfbench_style_points(self, family):
        # The library sweep's points: delta = n/3, x in [0.55, 0.75].
        for n in (21, 98, 458, 2138, 10**5):
            got = assert_matches_reference(
                family, Fraction(611803, 1000000), n, Fraction(n, 3)
            )
            assert got[4] > 1

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("n", [12, 17])
    def test_forced_asymptotic_small_n(self, family, n):
        assert_matches_reference(
            family, Fraction(1, 2), n, Fraction(3 * n, 8), FORCE_ASYMPTOTIC
        )

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("x", [Fraction(0), Fraction(1)])
    @pytest.mark.parametrize("n", [21, 98, 300, 10**5])
    def test_single_bin(self, family, x, n):
        # beta in {0, 1} and alpha in {0, 1}: one certain count.
        assert_matches_reference(family, x, n, Fraction(n, 2))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_empty_bin_lanes(self, family):
        # Skewed windows reach k = 0 or k = n, whose bins are empty.
        for x in (Fraction(1, 1000), Fraction(999, 1000)):
            for n in (21, 50, 200):
                lo, hi = binomial_window(n, 1.0 - float(x), 1e-12)
                assert lo == 0 or hi == n
                assert_matches_reference(family, x, n, Fraction(n, 3))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("n", [21, 98, 300, 5000])
    def test_capacity_near_zero_and_near_n(self, family, n):
        for delta in (
            Fraction(1, 10**9),
            Fraction(1, 3),
            n - Fraction(1, 10**9),
            n - Fraction(1, 3),
        ):
            assert_matches_reference(family, Fraction(3, 5), n, delta)

    @pytest.mark.parametrize("seed", range(3))
    def test_large_denominators(self, seed):
        rng = random.Random(100 + seed)
        for family in FAMILIES:
            for n in (40, 250, 3000):
                x = Fraction(rng.randrange(1, 10**30), 10**30 + 7)
                delta = Fraction(rng.randrange(1, n * 10**30), 10**30 + 3)
                assert_matches_reference(family, x, n, delta)

    def test_array_assembly_matches_scalar_lanes(self):
        rng = np.random.default_rng(7)
        m = rng.integers(1, 10**6, 4000).astype(np.float64)
        # Points across the whole support, the far tails included.
        t = m * rng.random(4000) ** rng.choice([1.0, 8.0], 4000)
        t = np.clip(t, math.ulp(0.0), np.nextafter(m, 0.0))
        for method in ("edgeworth", "normal"):
            values, bounds = irwin_hall_asymptotic_lanes(t, m, method)
            want = [
                ref_ih_asymptotic(ti, int(mi), method)
                for ti, mi in zip(t.tolist(), m.tolist())
            ]
            assert list(zip(values.tolist(), bounds.tolist())) == want

    def test_non_iid_assembly_matches_scalar(self):
        widths = [0.5, 1.0, 1.5, 2.0, 1.0, 0.75]
        scale = 0.25  # the power of two the function rescales by
        scaled = [u * scale for u in widths]
        span = math.fsum(scaled)
        sq = math.fsum(u * u for u in scaled)
        variance = sq / 12.0
        sigma = math.sqrt(variance)
        rho_sum = math.fsum(u * u * u for u in scaled) / 32.0
        be = BERRY_ESSEEN_CONSTANT * rho_sum / (sigma * variance)
        kappa4 = -math.fsum(u * u * u * u for u in scaled) / 120.0
        lambda4 = kappa4 / (variance * variance)
        for k in range(1, 40):
            t = k * sum(widths) / 40
            got = sum_uniform_cdf_asymptotic(t, widths)
            want = ref_assemble(
                t * scale, 0.5 * span, sigma, be, lambda4, sq, "edgeworth"
            )
            assert (got.value, got.error_bound) == want


# ---------------------------------------------------------------------------
# what the mixture persists
# ---------------------------------------------------------------------------


class TestMixtureWritesNoCacheEntries:
    def test_large_n_queries_write_nothing_to_disk(self, tmp_path):
        configure_cache(directory=tmp_path)
        try:
            before = cache_stats()["disk"]["writes"]
            symmetric_threshold_winning_regime(
                Fraction(611803, 1000000), 98, Fraction(98, 3)
            )
            symmetric_oblivious_winning_regime(
                Fraction(430039, 1000000), 98, Fraction(98, 3)
            )
            assert cache_stats()["disk"]["writes"] == before
            assert list(tmp_path.iterdir()) == []
            # The exact kernel itself still persists for rational callers.
            irwin_hall_cdf(Fraction(7, 3), 5)
            assert cache_stats()["disk"]["writes"] == before + 1
            assert len(list(tmp_path.glob("*.json"))) == 1
        finally:
            configure_cache(directory=None)

    def test_shared_points_are_evaluated_once(self):
        # The oblivious bins share t = delta, so each order in the
        # window is dispatched once although it occurs in both bins.
        n = 98
        lo, hi = binomial_window(n, 0.5, DEFAULT_POLICY.tail_tol)
        # Orders at or below delta are certain wins, never dispatched.
        orders = {m for k in range(lo, hi + 1) for m in (k, n - k)}
        orders = {m for m in orders if m > n / 3}
        with use_instrumentation() as instr:
            symmetric_oblivious_winning_regime(
                Fraction(1, 2), n, Fraction(n, 3)
            )
            counters = instr.metrics.snapshot().counters
        assert counters["asymptotics.dispatch.calls"] == len(orders)
        assert counters["asymptotics.terms"] == hi - lo + 1


# ---------------------------------------------------------------------------
# float edges under a strict error state
# ---------------------------------------------------------------------------

_TINY = math.ulp(0.0)
#: ``(family, x, delta(n))``
_EDGE_CASES = [
    # subnormal beta: 1 / beta overflows to inf
    ("threshold", Fraction(_TINY), lambda n: Fraction(n, 3)),
    ("threshold", Fraction(1, 2**1060), lambda n: Fraction(n, 2)),
    # beta = 1 - 2^-53: a bin-1 probability of 2^-53
    ("threshold", 1 - Fraction(1, 2**53), lambda n: Fraction(n, 3)),
    ("oblivious", Fraction(1, 2**53), lambda n: Fraction(n, 3)),
    # delta at the smallest subnormal, and below it
    ("threshold", Fraction(1, 2), lambda n: Fraction(_TINY)),
    ("oblivious", Fraction(1, 2), lambda n: Fraction(_TINY)),
    ("threshold", Fraction(1, 2), lambda n: Fraction(1, 10**400)),
    # delta a hair below n
    ("threshold", Fraction(3, 5), lambda n: n - Fraction(1, 2**40)),
    ("oblivious", Fraction(3, 5), lambda n: n - Fraction(1, 2**40)),
]


class TestFloatEdges:
    @pytest.mark.parametrize("n", [98, 458, 10**5])
    @pytest.mark.parametrize("family, x, delta", _EDGE_CASES)
    def test_no_warning_no_nan_and_equal_to_reference(
        self, family, x, delta, n
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                got = assert_matches_reference(family, x, n, delta(n))
        assert all(math.isfinite(v) for v in got[:2])
        assert 0.0 <= got[0] <= 1.0

    def test_scalar_tier_in_the_far_tail(self):
        # Near the support's edge phi(z) and the Hoeffding term are
        # subnormal; the scalar entry point underflows as floats do.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                for m in range(470, 500):
                    for t in (1e-300, 0.5, m - 0.5):
                        got = irwin_hall_cdf_asymptotic(t, m)
                        want = ref_ih_asymptotic(t, m, "edgeworth")
                        assert (got.value, got.error_bound) == want

    def test_masked_lanes_reach_no_arithmetic(self):
        t = np.array([math.inf, -math.inf, -1.0, 0.0, -0.0, 5.0, 500.0,
                      math.inf, 2.0, 3.0])
        m = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 400.0, 1000.0,
                      4.0, 1000.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                values, bounds = _ih_factors(t, m, DEFAULT_POLICY)
        assert values[:8].tolist() == [1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        assert bounds[:8].tolist() == [0.0] * 8
        assert not np.isnan(values).any() and not np.isnan(bounds).any()
        assert values[8] == float(irwin_hall_cdf(Fraction(2), 4))
        assert 0.0 <= values[9] < 1e-100 and 0.0 < bounds[9] < 1e-100
