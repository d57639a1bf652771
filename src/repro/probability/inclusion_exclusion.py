"""Generic inclusion-exclusion sums with the paper's strict-condition rule.

Every formula in the paper has the shape

``sum_{I subseteq S, condition(I)} (-1)^|I| * term(I)``

where ``condition`` is a strict inequality (subsets violating it
contribute nothing because the corresponding polytope corner is empty,
Lemma 2.3).  This module implements that shape once over ``Fraction``
terms, as the brute-force reference the tests hold the kernels to.
The kernels themselves scale each series to one common denominator
and sum it over the integers
(:func:`~repro.symbolic.rational.alternating_subset_power_sum` and its
symmetric collapse
:func:`~repro.symbolic.rational.alternating_power_sum`), building one
``Fraction`` at the end.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Sequence, Tuple

__all__ = [
    "alternating_subset_sum",
    "subsets_satisfying",
]


def alternating_subset_sum(
    elements: Sequence,
    term: Callable[[Tuple, int], Fraction],
    condition: Callable[[Tuple, int], bool] = lambda subset, size: True,
) -> Fraction:
    """Compute ``sum over subsets I with condition(I): (-1)^|I| term(I)``.

    *term* and *condition* receive the subset (as a tuple of elements)
    and its size.  Subsets are enumerated by size so callers paying
    attention to the paper's derivations can map layers one-to-one.

    This is exponential in ``len(elements)`` by nature; the paper's
    instances have ``len(elements) <= n`` (the player count), which is
    small.
    """
    total = Fraction(0)
    sign = 1
    for size in range(len(elements) + 1):
        for subset in combinations(elements, size):
            if condition(subset, size):
                total += sign * term(subset, size)
        sign = -sign
    return total


def subsets_satisfying(
    elements: Sequence,
    condition: Callable[[Tuple, int], bool],
) -> Iterable[Tuple]:
    """Yield the subsets (as tuples) that satisfy *condition*, by size.

    Exposed for tests and for the exact (non-symmetric) Theorem 5.1
    evaluation, where per-player thresholds differ and the condition
    pattern itself is informative.
    """
    for size in range(len(elements) + 1):
        for subset in combinations(elements, size):
            if condition(subset, size):
                yield subset
