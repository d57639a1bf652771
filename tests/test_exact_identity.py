"""Every exact inclusion-exclusion kernel against the term-by-term formula.

The kernels scale each alternating series to one common denominator,
sum it over the integers and build one ``Fraction`` at the end.  Each
is held here to the *identical* ``Fraction`` that the paper's formula
gives when summed term by term in ``Fraction`` arithmetic: through
:func:`alternating_subset_sum` over explicit subsets, or its symmetric
collapse :func:`_symmetric`.  The inputs cover random rationals, integer
``t`` (the strict ``i < t`` edge), ``t`` exactly on a subset-sum knot,
zero-width entries, ``m = 0``, ``t <= 0`` and ``t >= span``, and
float-derived ``t`` with large power-of-two denominators (what the
large-``n`` mixture passes to the Irwin-Hall kernel).
"""

from fractions import Fraction
from itertools import combinations
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nonoblivious import (
    _a_factor,
    _b_factor,
    symmetric_threshold_winning_polynomial,
    symmetric_threshold_winning_probability,
)
from repro.geometry.volume import intersection_volume
from repro.probability.uniform_sums import (
    irwin_hall_cdf,
    irwin_hall_pdf,
    joint_sum_below_and_inside_high,
    joint_sum_below_and_inside_low,
    sum_uniform_cdf,
    sum_uniform_pdf,
    sum_uniform_tail_cdf,
)
from repro.symbolic.rational import binomial, factorial

ZERO = Fraction(0)


# ----------------------------------------------------------------------
# The term-by-term formulas
# ----------------------------------------------------------------------
def alternating_subset_sum(elements, term, condition):
    """``sum_{I subseteq elements, condition(I)} (-1)^|I| term(I)``.

    *term* and *condition* receive the subset (a tuple) and its size.
    Subsets failing the paper's strict condition contribute nothing:
    their polytope corner is empty (Lemma 2.3).
    """
    total = ZERO
    for size in range(len(elements) + 1):
        for subset in combinations(elements, size):
            if condition(subset, size):
                total += (-1) ** size * term(subset, size)
    return total


def _symmetric(count, term, condition):
    """``sum_i (-1)^i C(count, i) term(i)`` over the ``i`` satisfying
    *condition*, one ``Fraction`` term at a time."""
    total = ZERO
    for i in range(count + 1):
        if condition(i):
            total += (-1) ** i * binomial(count, i) * term(i)
    return total


def _below(t, widths, power):
    """``sum_{I : sum_I w < t} (-1)^|I| (t - sum_I w)^power``."""
    return alternating_subset_sum(
        widths,
        term=lambda subset, size: (t - sum(subset, ZERO)) ** power,
        condition=lambda subset, size: sum(subset, ZERO) < t,
    )


def ref_irwin_hall_cdf(t, m):
    if m == 0:
        return Fraction(int(t >= 0))
    if t <= 0:
        return ZERO
    if t >= m:
        return Fraction(1)
    total = _symmetric(m, lambda i: (t - i) ** m, lambda i: i < t)
    return total / factorial(m)


def ref_irwin_hall_pdf(t, m):
    if t <= 0 or t >= m:
        return ZERO
    total = _symmetric(m, lambda i: (t - i) ** (m - 1), lambda i: i < t)
    return total / factorial(m - 1)


def ref_sum_uniform_cdf(t, uppers):
    pi = [v for v in uppers if v != 0]
    m = len(pi)
    if m == 0:
        return Fraction(int(t >= 0))
    if t <= 0:
        return ZERO
    if t >= sum(pi, ZERO):
        return Fraction(1)
    return _below(t, pi, m) / (factorial(m) * prod(pi))


def ref_sum_uniform_pdf(t, uppers):
    pi = [v for v in uppers if v != 0]
    m = len(pi)
    if t <= 0 or t >= sum(pi, ZERO):
        return ZERO
    return _below(t, pi, m - 1) / (factorial(m - 1) * prod(pi))


def ref_joint_low(t, alphas):
    m = len(alphas)
    if m == 0:
        return Fraction(int(t >= 0))
    if 0 in alphas or t <= 0:
        return ZERO
    return _below(t, alphas, m) / factorial(m)


def ref_joint_high(t, alphas):
    m = len(alphas)
    if m == 0:
        return Fraction(int(t >= 0))
    survival = prod(1 - v for v in alphas)
    if survival == 0 or t <= sum(alphas, ZERO):
        return ZERO
    if t >= m:
        return survival
    total = alternating_subset_sum(
        alphas,
        term=lambda subset, size: (m - t - size + sum(subset, ZERO)) ** m,
        condition=lambda subset, size: size < m - t + sum(subset, ZERO),
    )
    return survival - total / factorial(m)


def ref_volume(sigma, pi):
    m = len(sigma)
    ratios = [p / s for s, p in zip(sigma, pi)]
    return prod(sigma) / factorial(m) * _below(Fraction(1), ratios, m)


def ref_a_factor(beta, n, k, delta):
    m = n - k
    if m == 0:
        return Fraction(1)
    total = _symmetric(
        m, lambda i: (delta - i * beta) ** m, lambda i: delta - i * beta > 0
    )
    return total / factorial(m)


def ref_b_factor(beta, k, delta):
    if k == 0:
        return Fraction(1)
    total = _symmetric(
        k,
        lambda i: (k - delta - i * (1 - beta)) ** k,
        lambda i: k - delta - i * (1 - beta) > 0,
    )
    return (1 - beta) ** k - total / factorial(k)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
rationals = st.fractions(min_value=0, max_value=2, max_denominator=12)
widths = st.lists(rationals, min_size=0, max_size=5)
units = st.lists(
    st.fractions(min_value=0, max_value=1, max_denominator=12),
    min_size=0,
    max_size=5,
)


def _float_fraction(lo, hi):
    """A float in ``[lo, hi]`` as its exact binary rational."""
    return st.floats(
        min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False
    ).map(Fraction)


@st.composite
def points(draw, values):
    """``t`` for a kernel over *values*: random, integer, a subset-sum
    knot, float-derived, or outside ``[0, sum(values)]``."""
    span = sum(values, ZERO)
    kind = draw(st.sampled_from(
        ["random", "integer", "knot", "float", "outside"]
    ))
    if kind == "random":
        return draw(st.fractions(
            min_value=-1, max_value=int(span) + 2, max_denominator=60
        ))
    if kind == "integer":
        return Fraction(draw(st.integers(-1, int(span) + 1)))
    if kind == "knot":
        chosen = draw(st.lists(st.booleans(), min_size=len(values),
                               max_size=len(values)))
        return sum((v for v, c in zip(values, chosen) if c), ZERO)
    if kind == "float":
        return draw(_float_fraction(0.0, float(span) + 1.0))
    return draw(st.sampled_from([ZERO, -span - 1, span, span + 1]))


def high_knots(alphas):
    """``t`` where a Lemma 2.7 condition flips: ``sum_{l in I} alpha_l``
    plus one for every ``l`` outside ``I``."""
    return st.lists(
        st.booleans(), min_size=len(alphas), max_size=len(alphas)
    ).map(lambda chosen: sum(
        (a if c else Fraction(1) for a, c in zip(alphas, chosen)), ZERO
    ))


# ----------------------------------------------------------------------
# Corollary 2.6 and its density
# ----------------------------------------------------------------------
class TestReferenceSums:
    """The term-by-term references themselves, on hand-checkable sums."""

    def test_binomial_identity(self):
        # sum over subsets of (-1)^|I| = (1 - 1)^m = 0 for m >= 1
        assert alternating_subset_sum(
            [1, 2, 3], lambda subset, size: 1, lambda subset, size: True
        ) == 0

    def test_empty_ground_set(self):
        # only the empty subset
        assert alternating_subset_sum(
            [], lambda subset, size: 7, lambda subset, size: True
        ) == 7

    def test_condition_filters_subsets(self):
        # {}: +1, {1}: -1, {2}: -1, {1, 2}: excluded (sum 3 not < 3)
        assert alternating_subset_sum(
            [1, 2],
            lambda subset, size: 1,
            lambda subset, size: sum(subset) < 3,
        ) == -1

    def test_term_receives_subset_and_size(self):
        records = []

        def term(subset, size):
            records.append((subset, size))
            return ZERO

        alternating_subset_sum([10, 20], term, lambda subset, size: True)
        assert records == [((), 0), ((10,), 1), ((20,), 1), ((10, 20), 2)]

    def test_symmetric_collapse_matches_subsets(self):
        # a term that depends only on the size collapses to _symmetric
        generic = alternating_subset_sum(
            ["a", "b", "c", "d"],
            lambda subset, size: Fraction(size + 1, 3),
            lambda subset, size: size != 2,
        )
        assert generic == _symmetric(
            4, lambda i: Fraction(i + 1, 3), lambda i: i != 2
        )


class TestIrwinHall:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 40), st.data())
    def test_cdf(self, m, data):
        t = data.draw(points([Fraction(1)] * m))
        assert irwin_hall_cdf(t, m) == ref_irwin_hall_cdf(t, m)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40), st.data())
    def test_pdf(self, m, data):
        t = data.draw(points([Fraction(1)] * m))
        assert irwin_hall_pdf(t, m) == ref_irwin_hall_pdf(t, m)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([25, 60, 100, 160]), st.data())
    def test_cdf_large_m_float_t(self, m, data):
        # the orders the binomial mixture sends to the exact tier
        t = data.draw(_float_fraction(m / 2 - 4.0, m / 2 + 4.0))
        assert irwin_hall_cdf(t, m) == ref_irwin_hall_cdf(t, m)

    def test_every_integer_t(self):
        for m in range(1, 9):
            for i in range(m + 1):
                assert irwin_hall_cdf(i, m) == ref_irwin_hall_cdf(
                    Fraction(i), m
                )
                if 0 < i < m:
                    assert irwin_hall_pdf(i, m) == ref_irwin_hall_pdf(
                        Fraction(i), m
                    )


# ----------------------------------------------------------------------
# Lemmas 2.4, 2.5 and 2.7
# ----------------------------------------------------------------------
class TestSubsetKernels:
    @settings(max_examples=200, deadline=None)
    @given(widths, st.data())
    def test_sum_uniform_cdf(self, uppers, data):
        t = data.draw(points(uppers))
        assert sum_uniform_cdf(t, uppers) == ref_sum_uniform_cdf(t, uppers)

    @settings(max_examples=200, deadline=None)
    @given(widths.filter(any), st.data())
    def test_sum_uniform_pdf(self, uppers, data):
        t = data.draw(points(uppers))
        assert sum_uniform_pdf(t, uppers) == ref_sum_uniform_pdf(t, uppers)

    @settings(max_examples=150, deadline=None)
    @given(units, st.data())
    def test_tail_cdf(self, lowers, data):
        lowers = [v for v in lowers if v < 1]
        m = len(lowers)
        t = data.draw(st.one_of(points([Fraction(1)] * m), high_knots(lowers)))
        if m == 0:
            expected = Fraction(int(t >= 0))
        elif t <= sum(lowers, ZERO):
            expected = ZERO
        elif t >= m:
            expected = Fraction(1)
        else:
            expected = 1 - ref_sum_uniform_cdf(m - t, [1 - v for v in lowers])
        assert sum_uniform_tail_cdf(t, lowers) == expected

    @settings(max_examples=200, deadline=None)
    @given(units, st.data())
    def test_joint_low(self, alphas, data):
        t = data.draw(points(alphas))
        assert joint_sum_below_and_inside_low(t, alphas) == ref_joint_low(
            t, alphas
        )

    @settings(max_examples=200, deadline=None)
    @given(units, st.data())
    def test_joint_high(self, alphas, data):
        t = data.draw(
            st.one_of(points([Fraction(1)] * len(alphas)), high_knots(alphas))
        )
        assert joint_sum_below_and_inside_high(
            t, alphas
        ) == ref_joint_high(t, alphas)


# ----------------------------------------------------------------------
# Proposition 2.2
# ----------------------------------------------------------------------
class TestIntersectionVolume:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_volume(self, data):
        m = data.draw(st.integers(1, 5))
        sides = st.fractions(min_value="1/12", max_value=2, max_denominator=12)
        sigma = data.draw(st.lists(sides, min_size=m, max_size=m))
        pi = data.draw(st.lists(sides, min_size=m, max_size=m))
        assert intersection_volume(sigma, pi) == ref_volume(sigma, pi)

    def test_ratio_sums_on_the_knot(self):
        sigma = [Fraction(2), Fraction(4), Fraction(3)]
        pi = [Fraction(1), Fraction(2), Fraction(3, 2)]  # ratios 1/2 each
        assert intersection_volume(sigma, pi) == ref_volume(sigma, pi)


# ----------------------------------------------------------------------
# Theorem 5.1, symmetric thresholds
# ----------------------------------------------------------------------
deltas = st.one_of(
    st.fractions(min_value="1/12", max_value=6, max_denominator=12),
    st.integers(1, 6).map(Fraction),
    _float_fraction(0.01, 6.0),
)
betas = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=24),
    st.sampled_from([ZERO, Fraction(1)]),
    _float_fraction(0.0, 1.0),
)


class TestTheorem51Factors:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 9), st.data(), betas, deltas)
    def test_factors(self, n, data, beta, delta):
        k = data.draw(st.integers(0, n))
        assert _a_factor(beta, n, k, delta) == ref_a_factor(
            beta, n, k, delta
        )
        assert _b_factor(beta, k, delta) == ref_b_factor(beta, k, delta)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 7), st.data())
    def test_factors_on_their_knots(self, n, data):
        # beta where a strict condition flips: delta / i, or
        # 1 - (k - delta) / i
        delta = data.draw(
            st.fractions(min_value="1/6", max_value=n, max_denominator=6)
        )
        k = data.draw(st.integers(1, n))
        i = data.draw(st.integers(1, k))
        for beta in (delta / i, 1 - (k - delta) / i):
            if 0 <= beta <= 1:
                assert _a_factor(beta, n, n - k, delta) == ref_a_factor(
                    beta, n, n - k, delta
                )
                assert _b_factor(beta, k, delta) == ref_b_factor(
                    beta, k, delta
                )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6), deltas)
    def test_polynomial_pieces(self, n, delta):
        # each piece pinned at n + 1 interior points by the
        # term-by-term formula
        curve = symmetric_threshold_winning_polynomial(n, delta)
        for piece in curve.pieces:
            width = piece.upper - piece.lower
            for j in range(1, n + 2):
                beta = piece.lower + width * Fraction(j, n + 2)
                expected = sum(
                    binomial(n, k)
                    * ref_a_factor(beta, n, k, delta)
                    * ref_b_factor(beta, k, delta)
                    for k in range(n + 1)
                )
                assert piece.polynomial(beta) == expected
                assert symmetric_threshold_winning_probability(
                    beta, n, delta
                ) == expected
