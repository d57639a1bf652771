"""Primitive integer coefficient rows: the exact core of gcd and Sturm chains.

A *row* is a ``list`` of ``int`` coefficients in increasing-degree
order with a non-zero last entry (``[]`` is the zero polynomial).  Rows
are only ever rescaled by *positive* integers, so a row has the sign of
the rational polynomial it stands for at every point, and Euclid runs
without the gcd reduction every ``Fraction`` operation pays.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Sequence

from repro.symbolic.rational import common_denominator

__all__ = [
    "Row",
    "integer_row",
    "primitive",
    "pseudo_remainder",
    "remainder_sequence",
    "sign_at",
]

#: Integer coefficients in increasing-degree order, no trailing zero.
Row = List[int]


def integer_row(coefficients: Sequence[Fraction]) -> Row:
    """The primitive integer row that is a positive multiple of *coefficients*."""
    coeffs = list(coefficients)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return primitive(common_denominator(coeffs)[1]) if coeffs else []


def primitive(row: Row) -> Row:
    """*row* divided by its content, the positive gcd of its entries."""
    content = gcd(*row)
    return [c // content for c in row] if content > 1 else row


def pseudo_remainder(dividend: Row, divisor: Row) -> Row:
    """A positive integer multiple of ``dividend mod divisor`` (non-zero *divisor*).

    Each elimination step scales the running remainder by
    ``|lc(divisor)| / g``, ``g`` its gcd with the term being cancelled,
    so the total multiplier divides ``|lc|^e`` and is never negative.
    """
    rem = list(dividend)
    lead = divisor[-1]
    shift = len(rem) - len(divisor)
    while rem and shift >= 0:
        top = rem.pop()
        g = gcd(lead, top)
        scale = abs(lead) // g
        factor = top // g if lead > 0 else -top // g
        if scale != 1:
            rem = [scale * c for c in rem]
        for j, c in enumerate(divisor[:-1]):
            rem[shift + j] -= factor * c
        while rem and rem[-1] == 0:
            rem.pop()
        shift = len(rem) - len(divisor)
    return rem


def remainder_sequence(first: Row, second: Row) -> List[Row]:
    """``first, second, -rem(first, second), ...`` as primitive rows.

    Euclid over the integers, down to the last non-zero element (a gcd
    of the two rows).  Each element is a positive multiple of its
    counterpart in the rational sequence, so with ``second = first'``
    this is the Sturm chain of *first*.  *second* must be non-zero.
    """
    chain = [primitive(first), primitive(second)]
    while True:
        remainder = pseudo_remainder(chain[-2], chain[-1])
        if not remainder:
            return chain
        chain.append(primitive([-c for c in remainder]))


def sign_at(row: Row, point: Fraction) -> int:
    """Sign of *row* at ``point = a/b`` (``b > 0``), from one homogeneous
    Horner sum ``sum c_i a^i b^(d-i)``: the value times ``b^d``."""
    if not row:
        return 0
    a, b = point.numerator, point.denominator
    acc = row[-1]
    power = 1
    for c in reversed(row[:-1]):
        power *= b
        acc = acc * a + c * power
    return (acc > 0) - (acc < 0)
