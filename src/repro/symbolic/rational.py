"""Exact rational utilities.

All exact computation in this package is carried out over
:class:`fractions.Fraction`.  This module centralises coercion from the
numeric types a caller may reasonably pass (``int``, ``Fraction``,
``str`` such as ``"4/3"``, and ``float``) together with a handful of
combinatorial helpers used throughout the paper's formulas.

Floats are converted via :meth:`float.as_integer_ratio`, i.e. to the
*exact* binary rational the float represents.  Callers that want the
"intended" decimal value (for instance ``0.1`` meaning ``1/10``) should
pass a string or a :class:`fractions.Fraction` instead; the docstrings
on :func:`as_fraction` spell this out because silently "fixing up"
floats would make exact results depend on a heuristic.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

from repro.errors import ValidationError

#: Types accepted wherever an exact rational is required.
RationalLike = Union[int, Fraction, str, float]

__all__ = [
    "RationalLike",
    "alternating_power_sum",
    "alternating_power_sums",
    "alternating_subset_power_sum",
    "as_fraction",
    "binomial",
    "common_denominator",
    "factorial",
    "falling_factorial",
    "integer_power",
    "is_rational_like",
    "rational_range",
    "sign",
]


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce *value* to an exact :class:`fractions.Fraction`.

    ``int`` and ``Fraction`` are taken as-is.  ``str`` is parsed by the
    ``Fraction`` constructor (so ``"4/3"`` and ``"0.25"`` both work and
    are exact).  ``float`` is converted to the exact binary rational it
    stores -- *not* rounded to a nearby decimal.

    >>> as_fraction("4/3")
    Fraction(4, 3)
    >>> as_fraction(2)
    Fraction(2, 1)
    >>> as_fraction(0.5)
    Fraction(1, 2)
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise ValueError(f"cannot convert non-finite float {value!r} to Fraction")
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def is_rational_like(value: object) -> bool:
    """Return ``True`` when :func:`as_fraction` would accept *value*."""
    if isinstance(value, (int, Fraction)):
        return True
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, str):
        try:
            Fraction(value)
        except (ValueError, ZeroDivisionError):
            return False
        return True
    return False


def factorial(n: int) -> int:
    """Exact ``n!`` with validation (``n`` must be a non-negative int)."""
    if not isinstance(n, int):
        raise TypeError(f"factorial expects an int, got {type(n).__name__}")
    if n < 0:
        raise ValueError(f"factorial is undefined for negative n = {n}")
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient ``C(n, k)``; zero outside ``0 <= k <= n``."""
    if not isinstance(n, int) or not isinstance(k, int):
        raise TypeError("binomial expects integer arguments")
    if k < 0 or k > n or n < 0:
        return 0
    return math.comb(n, k)


def falling_factorial(n: int, k: int) -> int:
    """Exact falling factorial ``n * (n-1) * ... * (n-k+1)``."""
    if k < 0:
        raise ValueError(f"falling_factorial is undefined for negative k = {k}")
    result = 1
    for j in range(k):
        result *= n - j
    return result


def common_denominator(values: Sequence[Fraction]) -> Tuple[int, List[int]]:
    """``(D, [v * D for v in values])`` with ``D`` the least common
    denominator of *values*, so every scaled value is an ``int``."""
    scale = math.lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def alternating_power_sum(top: int, step: int, count: int, power: int) -> int:
    """``sum_{i <= count, i*step < top} (-1)^i C(count, i) (top - i*step)^power``.

    The symmetric inclusion-exclusion collapse (Corollary 2.6, the
    Theorem 5.1 factors) over the integers, for a series scaled to one
    common denominator.  *step* must be ``>= 0``, so the strict
    condition holds for a prefix of the ``i``.
    """
    total = 0
    for i in range(count + 1):
        base = top - i * step
        if base <= 0:
            break
        term = math.comb(count, i) * base**power
        total += -term if i & 1 else term
    return total


def alternating_power_sums(
    top: int, step: int, orders: Sequence[int]
) -> List[int]:
    """``[alternating_power_sum(top, step, m, m) for m in orders]``.

    The Irwin-Hall column at one point ``top/step``: *orders* must
    ascend.  The powers ``(top - i*step)^m`` and binomials ``C(m, i)``
    carry over from one order to the next, so the next consecutive
    order costs one small multiply per term (and a Pascal addition per
    binomial) instead of a fresh ``pow``; a gap of ``g`` orders
    multiplies by ``(top - i*step)^g`` and recomputes the binomials.
    """
    sums = []
    bases: List[int] = []  # top - i*step > 0 for the terms in use
    powers: List[int] = []  # bases[i]**m
    row: List[int] = []  # C(m, i)
    m = 0
    for order in orders:
        gap = order - m
        if gap < 0:
            raise ValidationError(
                f"orders must ascend, got {order} after {m}"
            )
        if gap == 1:
            powers = list(map(operator.mul, powers, bases))
            row = row[:1] + list(map(operator.add, row[1:], row))
        elif gap:
            powers = [p * b**gap for p, b in zip(powers, bases)]
            row = [math.comb(order, i) for i in range(len(row))]
        m = order
        # Terms join while i <= m and the base stays positive.
        for i in range(len(bases), m + 1):
            base = top - i * step
            if base <= 0:
                break
            bases.append(base)
            powers.append(base**m)
            row.append(math.comb(m, i))
        sums.append(
            sum(map(operator.mul, row[::2], powers[::2]))
            - sum(map(operator.mul, row[1::2], powers[1::2]))
        )
    return sums


def alternating_subset_power_sum(
    top: int, weights: Sequence[int], power: int
) -> int:
    """``sum_{I : sum_I w < top} (-1)^|I| (top - sum_I w)^power``.

    The subset form of :func:`alternating_power_sum` (Lemmas 2.4-2.7,
    Proposition 2.2) over non-negative integer *weights*.  No superset
    of a subset whose sum reaches *top* is enumerated.
    """
    corners = [(0, 1)] if top > 0 else []
    for w in weights:
        corners += [(s + w, -sign) for s, sign in corners if s + w < top]
    return sum(sign * (top - s) ** power for s, sign in corners)


def integer_power(base: Fraction, exponent: int) -> Fraction:
    """``base ** exponent`` with the convention ``x**0 == 1`` (incl. 0**0).

    The paper's inclusion-exclusion sums use the convention that empty
    products and zeroth powers are 1; spelling it out here keeps the
    call sites honest about relying on it.
    """
    if exponent == 0:
        return Fraction(1)
    if exponent < 0:
        if base == 0:
            raise ZeroDivisionError("0 cannot be raised to a negative power")
        return Fraction(1) / integer_power(base, -exponent)
    return base**exponent


def sign(value: Fraction) -> int:
    """Return -1, 0 or +1 according to the sign of *value*."""
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


def rational_range(start: RationalLike, stop: RationalLike, count: int) -> list:
    """Return *count* evenly spaced exact rationals from *start* to *stop*.

    Both endpoints are included; *count* must be at least 2.  Useful for
    exact evaluation grids when regenerating the paper's figures.
    """
    if count < 2:
        raise ValidationError(
            f"rational_range needs count >= 2, got {count}"
        )
    lo = as_fraction(start)
    hi = as_fraction(stop)
    step = (hi - lo) / (count - 1)
    return [lo + step * i for i in range(count)]
