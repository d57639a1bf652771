"""Tests for repro.symbolic.rational."""

import random
from fractions import Fraction

import pytest

from repro.errors import ValidationError
from repro.symbolic.rational import (
    alternating_power_sum,
    alternating_power_sums,
    as_fraction,
    binomial,
    factorial,
    falling_factorial,
    integer_power,
    is_rational_like,
    rational_range,
    sign,
)


class TestAsFraction:
    def test_int(self):
        assert as_fraction(3) == Fraction(3)

    def test_fraction_passthrough(self):
        f = Fraction(4, 3)
        assert as_fraction(f) is f

    def test_string_ratio(self):
        assert as_fraction("4/3") == Fraction(4, 3)

    def test_string_decimal(self):
        assert as_fraction("0.25") == Fraction(1, 4)

    def test_float_exact_binary(self):
        assert as_fraction(0.5) == Fraction(1, 2)

    def test_float_binary_representation_is_exact(self):
        # 0.1 is NOT 1/10 in binary; the conversion must be exact, not
        # "helpfully" rounded.
        assert as_fraction(0.1) != Fraction(1, 10)
        assert as_fraction(0.1) == Fraction(*(0.1).as_integer_ratio())

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            as_fraction(float("nan"))

    def test_inf_rejected(self):
        with pytest.raises(ValueError):
            as_fraction(float("inf"))

    def test_other_types_rejected(self):
        with pytest.raises(TypeError):
            as_fraction([1, 2])  # type: ignore[arg-type]

    def test_negative(self):
        assert as_fraction("-7/2") == Fraction(-7, 2)


class TestIsRationalLike:
    def test_accepts_int_fraction_float_str(self):
        assert is_rational_like(5)
        assert is_rational_like(Fraction(1, 3))
        assert is_rational_like(2.5)
        assert is_rational_like("3/4")

    def test_rejects_bad_string(self):
        assert not is_rational_like("not a number")

    def test_rejects_nan(self):
        assert not is_rational_like(float("nan"))

    def test_rejects_division_by_zero_string(self):
        assert not is_rational_like("1/0")

    def test_rejects_other_objects(self):
        assert not is_rational_like(object())


class TestFactorial:
    def test_small_values(self):
        assert factorial(0) == 1
        assert factorial(1) == 1
        assert factorial(5) == 120

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            factorial(-1)

    def test_non_int_rejected(self):
        with pytest.raises(TypeError):
            factorial(2.0)  # type: ignore[arg-type]


class TestBinomial:
    def test_pascal_row(self):
        assert [binomial(4, k) for k in range(5)] == [1, 4, 6, 4, 1]

    def test_out_of_range_is_zero(self):
        assert binomial(4, 5) == 0
        assert binomial(4, -1) == 0
        assert binomial(-1, 0) == 0

    def test_symmetry(self):
        for n in range(8):
            for k in range(n + 1):
                assert binomial(n, k) == binomial(n, n - k)

    def test_non_int_rejected(self):
        with pytest.raises(TypeError):
            binomial(4.0, 2)  # type: ignore[arg-type]


class TestFallingFactorial:
    def test_values(self):
        assert falling_factorial(5, 0) == 1
        assert falling_factorial(5, 2) == 20
        assert falling_factorial(5, 5) == 120

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            falling_factorial(5, -1)

    def test_relation_to_factorial(self):
        assert falling_factorial(7, 7) == factorial(7)


class TestIntegerPower:
    def test_zero_exponent_is_one(self):
        assert integer_power(Fraction(0), 0) == 1
        assert integer_power(Fraction(5, 3), 0) == 1

    def test_positive(self):
        assert integer_power(Fraction(2, 3), 3) == Fraction(8, 27)

    def test_negative_exponent(self):
        assert integer_power(Fraction(2), -2) == Fraction(1, 4)

    def test_zero_to_negative_rejected(self):
        with pytest.raises(ZeroDivisionError):
            integer_power(Fraction(0), -1)


class TestSign:
    def test_all_cases(self):
        assert sign(Fraction(3, 7)) == 1
        assert sign(Fraction(-1, 9)) == -1
        assert sign(Fraction(0)) == 0


class TestRationalRange:
    def test_endpoints_included(self):
        grid = rational_range(0, 1, 5)
        assert grid[0] == 0
        assert grid[-1] == 1
        assert len(grid) == 5

    def test_even_spacing(self):
        grid = rational_range(0, 1, 5)
        steps = {b - a for a, b in zip(grid, grid[1:])}
        assert steps == {Fraction(1, 4)}

    def test_exact_rational_grid(self):
        grid = rational_range("1/3", "2/3", 3)
        assert grid == [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]

    def test_count_validation(self):
        with pytest.raises(ValueError):
            rational_range(0, 1, 1)


def _orders(rng, lo, hi):
    """Ascending orders in ``[lo, hi]``: a consecutive run or a gapped set."""
    if rng.random() < 0.5:
        start = rng.randint(lo, hi)
        return list(range(start, rng.randint(start, hi) + 1))
    return sorted(set(rng.randint(lo, hi) for _ in range(rng.randint(1, 8))))


class TestAlternatingPowerSums:
    """The column form equals the one-order sum at every order."""

    @staticmethod
    def _check(top, step, orders):
        assert alternating_power_sums(top, step, orders) == [
            alternating_power_sum(top, step, m, m) for m in orders
        ]

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_float_points(self, seed):
        # A float t is top / 2**e; the orders reach past t, as the
        # mixture's columns do, and stay below it.
        rng = random.Random(seed)
        for _ in range(20):
            t = rng.uniform(0.0, 120.0)
            top, step = t.as_integer_ratio()
            self._check(top, step, _orders(rng, 0, 160))

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_rational_points(self, seed):
        rng = random.Random(100 + seed)
        for _ in range(40):
            step = rng.randint(1, 10**6)
            top = rng.randint(-step, 60 * step)
            self._check(top, step, _orders(rng, 0, 70))

    @pytest.mark.parametrize("t", [1, 2, 7, 40])
    def test_integer_points(self, t):
        # i*step == top is excluded: the strict cut-off on the knot.
        for step in (1, 3, 2**40):
            self._check(t * step, step, list(range(0, 60)))
            self._check(t * step, step, [t - 1, t, t + 1, 2 * t, 3 * t + 5])

    def test_points_below_one(self):
        rng = random.Random(7)
        for _ in range(30):
            step = rng.randint(2, 10**9)
            top = rng.randint(1, step - 1)
            self._check(top, step, _orders(rng, 0, 90))

    def test_orders_at_or_below_t(self):
        # m <= t: every i <= m has a positive base, the full difference.
        for m in range(0, 12):
            assert alternating_power_sums(50, 1, [m]) == [
                alternating_power_sum(50, 1, m, m)
            ]
        self._check(50, 1, list(range(0, 80)))

    def test_degenerate_points(self):
        for top in (-5, 0):
            assert alternating_power_sums(top, 3, [0, 1, 4]) == [0, 0, 0]
        self._check(5, 0, [0, 1, 2, 6])
        assert alternating_power_sums(5, 1, []) == []

    def test_repeated_order(self):
        self._check(17, 4, [3, 3, 5, 5])

    def test_descending_orders_are_rejected(self):
        with pytest.raises(ValidationError):
            alternating_power_sums(5, 1, [4, 3])
