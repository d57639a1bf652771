"""Tests for repro.probability.inclusion_exclusion."""

from fractions import Fraction

from repro.probability.inclusion_exclusion import (
    alternating_subset_sum,
    subsets_satisfying,
)
from repro.symbolic.rational import binomial


class TestAlternatingSubsetSum:
    def test_binomial_identity(self):
        # sum over subsets of (-1)^|I| = (1 - 1)^m = 0 for m >= 1
        total = alternating_subset_sum(
            [1, 2, 3], term=lambda subset, size: Fraction(1)
        )
        assert total == 0

    def test_empty_ground_set(self):
        total = alternating_subset_sum(
            [], term=lambda subset, size: Fraction(7)
        )
        assert total == 7  # only the empty subset

    def test_condition_filters_subsets(self):
        # keep only subsets with sum < 3 from {1, 2}
        total = alternating_subset_sum(
            [1, 2],
            term=lambda subset, size: Fraction(1),
            condition=lambda subset, size: sum(subset) < 3,
        )
        # {}: +1, {1}: -1, {2}: -1, {1,2}: excluded => -1
        assert total == -1

    def test_term_receives_subset_and_size(self):
        records = []

        def term(subset, size):
            records.append((subset, size))
            return Fraction(0)

        alternating_subset_sum([10, 20], term=term)
        assert ((), 0) in records
        assert ((10,), 1) in records
        assert ((10, 20), 2) in records
        assert all(len(s) == k for s, k in records)

    def test_matches_symmetric_collapse(self):
        # when term depends only on size, the symmetric form agrees
        elements = ["a", "b", "c", "d"]
        generic = alternating_subset_sum(
            elements, term=lambda subset, size: Fraction(size + 1, 3)
        )
        symmetric = sum(
            (-1) ** i * binomial(4, i) * Fraction(i + 1, 3) for i in range(5)
        )
        assert generic == symmetric


class TestSubsetsSatisfying:
    def test_enumeration_order_by_size(self):
        subs = list(
            subsets_satisfying([1, 2, 3], lambda subset, size: True)
        )
        sizes = [len(s) for s in subs]
        assert sizes == sorted(sizes)
        assert len(subs) == 8

    def test_filtering(self):
        subs = list(
            subsets_satisfying(
                [1, 2, 3], lambda subset, size: sum(subset) <= 3
            )
        )
        assert (1, 2) in subs
        assert (2, 3) not in subs
        assert (1, 2, 3) not in subs
