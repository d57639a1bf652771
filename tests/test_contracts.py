"""Property and metamorphic tests for the result-integrity subsystem.

Seeded randomized checks of the mathematical invariants the contracts
encode -- CDF shape, pdf/cdf consistency, the alpha <-> 1 - alpha
symmetry, volume route agreement -- plus direct tests of the contract
machinery, the typed exception hierarchy, and the certified float fast
path (including its forced-fallback regime).  Pure standard library:
the random cases come from a seeded :class:`random.Random`.
"""

import math
import random
from fractions import Fraction

import pytest

from repro.batch.tables import compiled_oblivious_curve, compiled_threshold_curve
from repro.core.asymptotic import (
    symmetric_oblivious_winning_regime,
    symmetric_threshold_winning_regime,
)
from repro.core.nonoblivious import symmetric_threshold_winning_probability
from repro.core.oblivious import (
    oblivious_winning_probability,
    symmetric_oblivious_winning_probability,
)
from repro.errors import (
    ContractViolation,
    NumericalInstabilityError,
    ReproError,
    ResultsStoreError,
    ValidationError,
)
from repro.geometry.volume import (
    intersection_volume,
    intersection_volume_by_integration,
    intersection_volume_fast,
)
from repro.observability import use_instrumentation
from repro.optimize.threshold_opt import optimal_symmetric_threshold
from repro.probability.asymptotics import sum_uniform_cdf_asymptotic
from repro.probability.regimes import (
    DEFAULT_POLICY,
    RegimePolicy,
    irwin_hall_cdf_regime,
)
from repro.probability.uniform_sums import (
    irwin_hall_cdf,
    irwin_hall_cdf_fast,
    irwin_hall_pdf,
    sum_uniform_cdf,
    sum_uniform_cdf_fast,
    sum_uniform_pdf,
    sum_uniform_tail_cdf,
)
from repro.validation.contracts import (
    check_cdf_profile,
    check_probability,
    check_symmetry,
    contracts_enabled,
    contracts_strict,
    disable_contracts,
    enable_contracts,
    use_contracts,
    violation_count,
)
from repro.serve.degrade import certified_grid_optimum
from repro.validation.fastpath import (
    certified_alternating_sum,
    neumaier_sum,
)


def random_fraction(rng, lo=0, hi=1, denominator=64):
    """A random Fraction in [lo, hi] with a bounded denominator."""
    span = hi - lo
    return Fraction(lo) + span * Fraction(
        rng.randint(0, denominator), denominator
    )


class TestExceptionHierarchy:
    def test_all_root_at_repro_error(self):
        for exc_type in (
            ValidationError,
            ContractViolation,
            NumericalInstabilityError,
            ResultsStoreError,
        ):
            assert issubclass(exc_type, ReproError)

    def test_backwards_compatible_bases(self):
        # Code written against the old bare-ValueError behaviour must
        # keep working after the migration to typed errors.
        assert issubclass(ValidationError, ValueError)
        assert issubclass(ResultsStoreError, ValueError)
        assert issubclass(NumericalInstabilityError, ArithmeticError)
        assert not issubclass(ContractViolation, ValueError)

    def test_contract_violation_carries_contract_name(self):
        exc = ContractViolation("my_contract", "value out of range")
        assert exc.contract == "my_contract"
        assert "my_contract" in str(exc)

    def test_results_store_reexport(self):
        from repro.simulation import results_store

        assert results_store.ResultsStoreError is ResultsStoreError

    def test_numeric_layers_raise_validation_error(self):
        with pytest.raises(ValidationError):
            sum_uniform_cdf(1, [-1])
        with pytest.raises(ValidationError):
            irwin_hall_cdf(1, -1)
        with pytest.raises(ValidationError):
            oblivious_winning_probability(1, [Fraction(3, 2)])
        with pytest.raises(ValidationError):
            intersection_volume([1], [1, 1])


class TestContractMachinery:
    def test_disabled_by_default(self):
        assert not contracts_enabled()
        assert not contracts_strict()
        # Checks are no-ops while disabled: nothing raised, nothing
        # counted, the value passes straight through.
        assert check_probability("x", Fraction(7)) == Fraction(7)
        check_symmetry("x", 1, 2)

    def test_enable_disable(self):
        enable_contracts()
        try:
            assert contracts_enabled()
            assert not contracts_strict()
        finally:
            disable_contracts()
        assert not contracts_enabled()

    def test_non_strict_counts_without_raising(self):
        with use_contracts(strict=False):
            check_probability("bad_prob", Fraction(3, 2))
            check_symmetry("bad_sym", 1, 2)
            assert violation_count() == 2

    def test_strict_raises(self):
        with use_contracts(strict=True):
            with pytest.raises(ContractViolation) as info:
                check_probability("bad_prob", Fraction(-1))
            assert info.value.contract == "bad_prob"

    def test_use_contracts_restores_state(self):
        with use_contracts(strict=True):
            assert contracts_strict()
            with use_contracts(strict=False):
                assert contracts_enabled() and not contracts_strict()
            assert contracts_strict()
        assert not contracts_enabled()

    def test_violations_land_in_metrics(self):
        with use_instrumentation() as instr:
            with use_contracts(strict=False):
                check_probability("bad_prob", Fraction(2))
        assert instr.metrics.counter_value("contracts.violations") == 1
        assert (
            instr.metrics.counter_value("contracts.violations.bad_prob")
            == 1
        )

    def test_clean_checks_count_nothing(self):
        with use_contracts(strict=True):
            check_probability("ok", Fraction(1, 2))
            check_symmetry("ok", Fraction(1, 3), Fraction(1, 3))
            assert violation_count() == 0

    def test_check_cdf_profile_catches_bad_boundary(self):
        with use_contracts(strict=True):
            with pytest.raises(ContractViolation):
                check_cdf_profile(
                    "bad_cdf",
                    lambda t: Fraction(1, 2),
                    [Fraction(0), Fraction(1)],
                    lower_boundary=Fraction(0),
                )


class TestCdfShapeProperties:
    """Randomized: every Lemma 2.4 CDF is monotone, in [0, 1], with
    pinned boundary values -- checked through the contract machinery in
    strict mode, so a violation fails loudly."""

    def test_random_grids(self):
        rng = random.Random(1234)
        with use_contracts(strict=True):
            for _ in range(25):
                m = rng.randint(1, 4)
                uppers = [
                    random_fraction(rng, Fraction(1, 4), 2)
                    for _ in range(m)
                ]
                uppers = [u for u in uppers if u > 0] or [Fraction(1)]
                span = sum(uppers)
                grid = sorted(
                    random_fraction(rng, -1, span + 1, denominator=128)
                    for _ in range(12)
                )
                grid = [-Fraction(1)] + grid + [span + 1]
                check_cdf_profile(
                    "lemma_2_4_shape",
                    lambda t, u=uppers: sum_uniform_cdf(t, u),
                    grid,
                    lower_boundary=Fraction(0),
                    upper_boundary=Fraction(1),
                )
            assert violation_count() == 0

    def test_irwin_hall_grid(self):
        with use_contracts(strict=True):
            for m in (1, 2, 3, 5, 8):
                grid = [Fraction(k, 4) for k in range(-4, 4 * m + 5)]
                check_cdf_profile(
                    "irwin_hall_shape",
                    lambda t, mm=m: irwin_hall_cdf(t, mm),
                    grid,
                    lower_boundary=Fraction(0),
                    upper_boundary=Fraction(1),
                )
            assert violation_count() == 0


class TestPdfCdfConsistency:
    """The Lemma 2.5 density is the derivative of the Lemma 2.4 CDF:
    exact central differences converge at O(h^2) away from knots."""

    H = Fraction(1, 10**4)
    TOL = Fraction(1, 10**6)

    def _check(self, t, cdf, pdf):
        h = self.H
        quotient = (cdf(t + h) - cdf(t - h)) / (2 * h)
        assert abs(quotient - pdf(t)) <= self.TOL

    def test_irwin_hall(self):
        rng = random.Random(99)
        for _ in range(10):
            m = rng.randint(3, 6)
            # Stay 2h away from the integer knots, where the cdf is
            # only C^(m-1).
            t = rng.randint(0, m - 1) + random_fraction(
                rng, Fraction(1, 10), Fraction(9, 10)
            )
            self._check(
                t,
                lambda x, mm=m: irwin_hall_cdf(x, mm),
                lambda x, mm=m: irwin_hall_pdf(x, mm),
            )

    def test_general_uppers(self):
        rng = random.Random(7)
        for _ in range(10):
            m = rng.randint(3, 5)
            uppers = [
                random_fraction(rng, Fraction(1, 2), 2)
                for _ in range(m)
            ]
            knots = set()
            for size in range(m + 1):
                import itertools

                for subset in itertools.combinations(uppers, size):
                    knots.add(sum(subset, Fraction(0)))
            span = sum(uppers)
            t = random_fraction(
                rng, Fraction(1, 10), span - Fraction(1, 10),
                denominator=997,
            )
            if any(abs(t - knot) <= 2 * self.H for knot in knots):
                continue
            self._check(
                t,
                lambda x, u=uppers: sum_uniform_cdf(x, u),
                lambda x, u=uppers: sum_uniform_pdf(x, u),
            )


class TestObliviousSymmetry:
    """Relabelling the bins maps alpha -> 1 - alpha and leaves the
    winning probability unchanged (both bins have capacity delta)."""

    def test_random_profiles(self):
        rng = random.Random(4321)
        with use_contracts(strict=True):
            for _ in range(15):
                n = rng.randint(1, 5)
                t = random_fraction(rng, Fraction(1, 4), n)
                alphas = [random_fraction(rng) for _ in range(n)]
                mirrored = [1 - a for a in alphas]
                assert oblivious_winning_probability(
                    t, alphas
                ) == oblivious_winning_probability(t, mirrored)
            assert violation_count() == 0


class TestVolumeRouteAgreement:
    """Proposition 2.2 against the recursive-integration witness, and
    the subadditivity contract on randomized simplex/box pairs."""

    def test_random_cases(self):
        rng = random.Random(2718)
        with use_contracts(strict=True):
            for _ in range(10):
                m = rng.randint(1, 3)
                sigma = [
                    random_fraction(rng, Fraction(1, 4), 2)
                    for _ in range(m)
                ]
                pi = [
                    random_fraction(rng, Fraction(1, 4), Fraction(3, 2))
                    for _ in range(m)
                ]
                assert intersection_volume(
                    sigma, pi
                ) == intersection_volume_by_integration(sigma, pi)
            assert violation_count() == 0


class TestFastPathCertificate:
    def test_neumaier_sum_matches_fsum(self):
        rng = random.Random(5)
        values = [rng.uniform(-1, 1) * 10 ** rng.randint(-8, 8)
                  for _ in range(200)]
        total, abs_sum = neumaier_sum(values)
        assert total == pytest.approx(math.fsum(values), abs=1e-12)
        assert abs_sum == pytest.approx(sum(abs(v) for v in values))

    def test_certified_matches_exact_when_it_claims_to(self):
        rng = random.Random(31)
        for _ in range(30):
            m = rng.randint(1, 6)
            uppers = [
                random_fraction(rng, Fraction(1, 4), 2)
                for _ in range(m)
            ]
            t = random_fraction(
                rng, Fraction(1, 8), sum(uppers), denominator=256
            )
            exact = float(sum_uniform_cdf(t, uppers))
            try:
                fast = sum_uniform_cdf_fast(
                    t, uppers, fallback="raise"
                )
            except NumericalInstabilityError:
                continue  # honest refusal: the exact path takes over
            assert abs(fast - exact) <= max(1e-9, 1e-9 * exact) + 1e-12

    def test_irwin_hall_fast_small_m(self):
        for m in (1, 2, 3, 5, 10):
            for num in range(1, 4 * m, 3):
                t = Fraction(num, 4)
                exact = float(irwin_hall_cdf(t, m))
                fast = irwin_hall_cdf_fast(t, m, fallback="raise")
                assert fast == pytest.approx(exact, rel=1e-9, abs=1e-12)

    def test_irwin_hall_cancellation_forces_fallback(self):
        # At central t and large m the alternating terms dwarf the
        # result; the bound must refuse to certify rather than return
        # garbage.
        with pytest.raises(NumericalInstabilityError):
            irwin_hall_cdf_fast(25, 50, fallback="raise")

    def test_transparent_fallback_matches_exact(self):
        exact = float(irwin_hall_cdf(25, 50))
        assert irwin_hall_cdf_fast(25, 50) == pytest.approx(
            exact, abs=1e-12
        )

    def test_fallbacks_visible_in_metrics(self):
        with use_instrumentation() as instr:
            irwin_hall_cdf_fast(Fraction(3, 2), 3)  # certifies
            irwin_hall_cdf_fast(25, 50)  # falls back
        assert instr.metrics.counter_value("fastpath.calls") == 2
        assert instr.metrics.counter_value("fastpath.certified") == 1
        assert instr.metrics.counter_value("fastpath.fallbacks") == 1
        assert (
            instr.metrics.counter_value(
                "fastpath.fallbacks.irwin_hall_cdf"
            )
            == 1
        )

    def test_volume_fast_matches_exact(self):
        rng = random.Random(17)
        for _ in range(10):
            m = rng.randint(1, 4)
            sigma = [
                random_fraction(rng, Fraction(1, 2), 2)
                for _ in range(m)
            ]
            pi = [
                random_fraction(rng, Fraction(1, 4), 1)
                for _ in range(m)
            ]
            exact = float(intersection_volume(sigma, pi))
            fast = intersection_volume_fast(sigma, pi)
            assert fast == pytest.approx(exact, rel=1e-9, abs=1e-12)

    def test_certifier_input_validation(self):
        with pytest.raises(ValueError):
            certified_alternating_sum([], 0, 1.0)
        with pytest.raises(ValueError):
            certified_alternating_sum([], 1, 0.0)
        with pytest.raises(ValueError):
            sum_uniform_cdf_fast(1, [1, 1], fallback="sometimes")


class TestBoundaryConventions:
    """The documented behaviour at the edges of every CDF's support."""

    def test_sum_uniform_cdf_edges(self):
        assert sum_uniform_cdf(0, [1, 2]) == 0
        assert sum_uniform_cdf(-5, [1, 2]) == 0
        assert sum_uniform_cdf(3, [1, 2]) == 1
        assert sum_uniform_cdf(100, [1, 2]) == 1
        # Empty sum: the constant 0.
        assert sum_uniform_cdf(0, []) == 1
        assert sum_uniform_cdf(Fraction(-1, 10**9), []) == 0

    def test_irwin_hall_edges(self):
        assert irwin_hall_cdf(0, 3) == 0
        assert irwin_hall_cdf(3, 3) == 1
        assert irwin_hall_cdf(0, 0) == 1
        assert irwin_hall_cdf(-1, 0) == 0
        assert irwin_hall_cdf_fast(0, 3) == 0.0
        assert irwin_hall_cdf_fast(3, 3) == 1.0
        assert irwin_hall_cdf_fast(1, 0) == 1.0

    def test_zero_width_intervals(self):
        # Zero-width entries are the constant 0 and drop out.
        assert sum_uniform_cdf(Fraction(1, 2), [1, 0, 0]) == Fraction(1, 2)
        assert sum_uniform_cdf_fast(0.5, [1, 0]) == pytest.approx(0.5)
        assert sum_uniform_pdf(Fraction(1, 2), [1, 0]) == 1
        # An all-zero-width list is a point mass: CDF jumps at 0, and
        # there is no density to return.
        assert sum_uniform_cdf(0, [0, 0]) == 1
        assert sum_uniform_cdf(Fraction(-1, 100), [0, 0]) == 0
        with pytest.raises(ValidationError):
            sum_uniform_pdf(1, [0, 0])

    def test_tail_cdf_edges(self):
        lowers = [Fraction(1, 4), Fraction(1, 2)]
        floor = sum(lowers)
        assert sum_uniform_tail_cdf(floor, lowers) == 0
        assert sum_uniform_tail_cdf(2, lowers) == 1
        assert sum_uniform_tail_cdf(5, lowers) == 1
        assert sum_uniform_tail_cdf(1, []) == 1
        # lowers[i] = 1 is an atom at the boundary -- rejected, not
        # silently resolved by a convention.
        with pytest.raises(ValidationError):
            sum_uniform_tail_cdf(1, [1])

    def test_tail_cdf_matches_reflection(self):
        rng = random.Random(55)
        for _ in range(10):
            m = rng.randint(1, 3)
            lowers = [
                random_fraction(rng, 0, Fraction(3, 4)) for _ in range(m)
            ]
            t = random_fraction(rng, 0, m, denominator=128)
            direct = sum_uniform_tail_cdf(t, lowers)
            reflected = 1 - sum_uniform_cdf(
                m - t, [1 - v for v in lowers]
            )
            assert direct == reflected


# ---------------------------------------------------------------------------
# One containment suite over every answer tier
# ---------------------------------------------------------------------------

FORCED_ASYMPTOTIC = RegimePolicy(
    exact_max_n=0, exact_max_m=0, certified_max_m=0
)
HUGE = Fraction(10**400)  # beyond float range
TINY = Fraction(1, 10**400)  # rounds to 0.0


def label(x):
    """A printable form of a Fraction that may lie beyond float range."""
    if abs(x) > 10**300:
        return "-1e400" if x < 0 else "1e400"
    if 0 < abs(x) < Fraction(1, 10**300):
        return "1e-400"
    return repr(float(x))


def near(point):
    """*point* and the floats one ulp either side of it."""
    x = float(point)
    return [
        Fraction(math.nextafter(x, -math.inf)),
        Fraction(x),
        Fraction(math.nextafter(x, math.inf)),
    ]


def irwin_hall_cases(rng, ms, policy=DEFAULT_POLICY):
    """Irwin-Hall CDFs through the regime dispatcher, each paired with
    its exact value, at random points, within an ulp of an integer
    breakpoint, and beyond float range."""
    for m in ms:
        points = [
            random_fraction(rng, 0, m, denominator=97) for _ in range(4)
        ]
        points += near(rng.randint(1, max(m, 1))) + [TINY, HUGE, -HUGE]
        for t in points:
            yield (
                f"irwin-hall t={label(t)} m={m}",
                lambda: irwin_hall_cdf_regime(t, m, policy),
                lambda: irwin_hall_cdf(t, m),
            )


def capacities(rng, n):
    return [
        random_fraction(rng, 0, n, denominator=12),
        *near(1),
        TINY,
        HUGE,
        Fraction(n),
    ]


def symmetric_cases(rng, ns, policy=DEFAULT_POLICY):
    """Threshold and oblivious winning probabilities, each paired with
    its exact value, at random and adversarial points."""
    for n in ns:
        for delta in capacities(rng, n):
            points = [random_fraction(rng), Fraction(0)]
            if delta < n:
                points += near(delta / n)
            for point in points:
                yield (
                    f"threshold n={n} delta={label(delta)} beta={label(point)}",
                    lambda: symmetric_threshold_winning_regime(
                        point, n, delta, policy
                    ),
                    lambda: symmetric_threshold_winning_probability(
                        point, n, delta
                    ),
                )
                yield (
                    f"oblivious n={n} delta={label(delta)} alpha={label(point)}",
                    lambda: symmetric_oblivious_winning_regime(
                        point, n, delta, policy
                    ),
                    lambda: symmetric_oblivious_winning_probability(
                        delta, n, point
                    ),
                )


def exact_tier_cases(rng):
    yield from irwin_hall_cases(rng, [0, 1, 2, rng.randint(3, 23), 24])
    yield from symmetric_cases(rng, [2, 3, rng.randint(4, 8)])


def certified_tier_cases(rng):
    for _ in range(3):
        yield from irwin_hall_cases(rng, [25, rng.randint(26, 159), 160])


def asymptotic_tier_cases(rng):
    yield from irwin_hall_cases(
        rng, [1, 2, rng.randint(3, 40)], FORCED_ASYMPTOTIC
    )
    width_sets = [
        [1e300, 1e300],
        [1e-300, 2e-300, 0.0],
        [0.0, 0.0],
        [rng.random(), 0.0, rng.random() * 10, 1.0],
    ]
    for widths in width_sets:
        exact_widths = [Fraction(u) for u in widths]
        for t in [widths[0] / 4, sum(widths) / 2, 5e-324, 0.0]:
            yield (
                f"sum-uniform t={t!r} widths={widths}",
                lambda: sum_uniform_cdf_asymptotic(t, widths),
                lambda: sum_uniform_cdf(Fraction(t), exact_widths),
            )
    yield from symmetric_cases(rng, [2, rng.randint(3, 10)], FORCED_ASYMPTOTIC)
    for n in [100, 10**6]:
        # delta >= n: every bin load is at most n, so the game is won.
        yield (
            f"threshold n={n} delta=1e400",
            lambda: symmetric_threshold_winning_regime(
                Fraction(1, 2), n, HUGE
            ),
            lambda: Fraction(1),
        )
    # Beyond exact reach: only well-formedness is checkable.
    for t in [Fraction(1, 3), Fraction(499_999), Fraction(10**6 - 1)]:
        yield (
            f"irwin-hall t={label(t)} m=1e6",
            lambda: irwin_hall_cdf_regime(t, 10**6),
            lambda: None,
        )


def batch_cases(rng):
    """One case per compiled curve; the answer is a whole BatchResult."""
    for n in [2, rng.randint(3, 4)]:
        for delta in [Fraction(1, 2), Fraction(4, 3), TINY, HUGE]:
            for kind, compiled, exact in [
                (
                    "threshold",
                    compiled_threshold_curve(n, delta),
                    lambda x: symmetric_threshold_winning_probability(
                        x, n, delta
                    ),
                ),
                (
                    "oblivious",
                    compiled_oblivious_curve(delta, n),
                    lambda x: symmetric_oblivious_winning_probability(
                        delta, n, x
                    ),
                ),
            ]:
                xs = [rng.random() for _ in range(8)]
                for edge in compiled.edges:
                    xs += [float(x) for x in near(edge) if 0 <= x <= 1]
                yield (
                    f"{kind} n={n} delta={label(delta)}",
                    lambda: (xs, compiled.evaluate_certified(xs)),
                    exact,
                )


def grid_cases(rng):
    for n in [2, 3, rng.randint(2, 4)]:
        for delta in [Fraction(1, 2), Fraction(1), random_fraction(
            rng, Fraction(1, 4), n, denominator=8
        ), TINY, HUGE]:
            yield (
                f"grid n={n} delta={label(delta)}",
                lambda: certified_grid_optimum(
                    compiled_threshold_curve(n, delta)
                ),
                lambda: optimal_symmetric_threshold(n, delta).probability,
            )


def assert_encloses(value, bound, floor, ceiling, truth, context):
    """``|value - truth| <= bound`` in exact arithmetic, and the float
    ``[floor, ceiling]`` -- the rounded image of ``value -+ bound`` --
    holds the correctly rounded truth."""
    assert not math.isnan(value) and bound >= 0.0, context
    assert 0.0 <= floor <= ceiling <= 1.0, context
    if truth is None:
        return
    if bound != math.inf:
        assert abs(Fraction(value) - truth) <= Fraction(bound), context
    assert floor <= float(truth) <= ceiling, context


def check_batch(case, truth):
    xs, result = case
    for i, x in enumerate(xs):
        exact = truth(Fraction(x))
        if not result.certified[i]:
            # Exact fallback: the attached Fraction is the answer.
            assert result.exact_fallbacks[i] == exact, x
            continue
        value, bound = float(result.values[i]), float(result.error_bounds[i])
        assert_encloses(
            value,
            bound,
            max(0.0, value - bound),
            min(1.0, value + bound),
            exact,
            x,
        )


TIER_CASES = {
    "exact": exact_tier_cases,
    "certified": certified_tier_cases,
    "asymptotic": asymptotic_tier_cases,
    "batch": batch_cases,
    "grid": grid_cases,
}


class TestEveryTierEnclosesTheTruth:
    """The certification contract, checked the same way in every tier:
    the reported bound holds the exact ``Fraction`` wherever exact
    arithmetic is feasible, and the only exceptions that escape are
    typed :class:`ReproError` subclasses."""

    @pytest.mark.parametrize("tier", sorted(TIER_CASES))
    def test_encloses_exact_value(self, tier):
        rng = random.Random(131)
        checked = 0
        for context, answer, truth in TIER_CASES[tier](rng):
            try:
                result = answer()
            except ReproError:
                continue
            checked += 1
            if tier == "batch":
                check_batch(result, truth)
            elif tier == "grid":
                exact = truth()
                assert result.floor <= result.ceiling <= 1.0, context
                assert (
                    Fraction(result.floor) <= exact <= Fraction(result.ceiling)
                ), context
            else:
                assert_encloses(
                    result.value,
                    result.error_bound,
                    *result.bracket,
                    truth(),
                    context,
                )
        assert checked >= 10
