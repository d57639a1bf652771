"""Exact real-root isolation and refinement for rational polynomials.

The optimality conditions of the paper (Corollary 4.2, Theorem 5.2) zero
polynomials with rational coefficients, and the optimal thresholds are
their real roots inside ``[0, 1]``.  This module isolates those roots
exactly with Sturm sequences and refines them by rational bisection to
any requested precision, so the reproduced paper numbers (e.g.
``beta* = 1 - sqrt(1/7)``) carry no floating-point uncertainty.

The chains are built from integer pseudo-remainders on primitive rows
(:mod:`repro.symbolic.intpoly`), and each sign test is one homogeneous
integer Horner sum; the bisection points are ``Fraction`` midpoints, so
every interval and root is the rational a ``Fraction`` chain gives.

* :func:`sturm_sequence` builds the canonical Sturm chain.
* :func:`count_real_roots` counts distinct real roots on a half-open
  interval ``(a, b]`` via sign-variation differences.
* :func:`isolate_real_roots` splits a bounding interval until each piece
  holds exactly one root.
* :func:`refine_root` / :func:`real_roots` bisect to a width tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from repro.symbolic.intpoly import Row, integer_row, remainder_sequence, sign_at
from repro.symbolic.polynomial import Polynomial
from repro.symbolic.rational import RationalLike, as_fraction

__all__ = [
    "cauchy_root_bound",
    "count_real_roots",
    "isolate_real_roots",
    "real_roots",
    "refine_root",
    "sign_variations",
    "sturm_sequence",
]


def _sturm_rows(row: Row) -> List[Row]:
    """The Sturm chain ``p, p', -rem(p, p'), ...`` of a primitive *row*."""
    if not row:
        raise ValueError("Sturm sequence of the zero polynomial is undefined")
    slope = [i * c for i, c in enumerate(row)][1:]
    return remainder_sequence(row, slope) if slope else [row]


def _radical_chain(poly: Polynomial) -> List[Row]:
    """The Sturm chain of the square-free part of *poly* (``[]`` for a
    constant).  The chain of ``p`` ends in ``gcd(p, p')``, so it is
    already the answer unless that gcd has a root."""
    row = integer_row(poly.coefficients)
    if len(row) <= 1:
        return []
    chain = _sturm_rows(row)
    if len(chain[-1]) > 1:
        chain = _sturm_rows(integer_row(poly.squarefree_part().coefficients))
    return chain


def sturm_sequence(poly: Polynomial) -> List[Polynomial]:
    """Return the Sturm chain ``p, p', -rem(p, p'), ...`` of *poly*.

    The chain ends when the remainder vanishes.  Each element is reduced
    to its integer primitive part by a positive factor -- this does not
    change sign patterns but keeps coefficient growth under control.
    """
    return [Polynomial(row) for row in _sturm_rows(integer_row(poly.coefficients))]


def _variations(chain: Sequence[Row], point: Fraction) -> Tuple[int, int]:
    """``(sign changes of chain at point, sign of chain[0] there)``."""
    signs = [sign_at(row, point) for row in chain]
    nonzero = [s for s in signs if s]
    changes = sum(a != b for a, b in zip(nonzero, nonzero[1:]))
    return changes, signs[0] if signs else 0


def sign_variations(chain: Sequence[Polynomial], point: RationalLike) -> int:
    """Number of sign changes of the chain evaluated at *point* (zeros skipped)."""
    rows = [integer_row(p.coefficients) for p in chain]
    return _variations(rows, as_fraction(point))[0]


def count_real_roots(
    poly: Polynomial,
    lower: RationalLike,
    upper: RationalLike,
    chain: Optional[Sequence[Polynomial]] = None,
) -> int:
    """Count distinct real roots of *poly* in the half-open interval ``(lower, upper]``.

    Multiple roots are counted once (the Sturm chain works on the
    squarefree structure implicitly).  Raises if ``lower > upper``.
    """
    lo = as_fraction(lower)
    hi = as_fraction(upper)
    if lo > hi:
        raise ValueError(f"empty interval: lower={lo} > upper={hi}")
    if lo == hi:
        return 0
    if chain is None:
        # A constant has no roots; the zero polynomial raises in _sturm_rows.
        rows = _radical_chain(poly) or _sturm_rows(integer_row(poly.coefficients))
    else:
        rows = [integer_row(p.coefficients) for p in chain]
    return _variations(rows, lo)[0] - _variations(rows, hi)[0]


def cauchy_root_bound(poly: Polynomial) -> Fraction:
    """A bound ``M`` such that all real roots lie in ``[-M, M]`` (Cauchy)."""
    if poly.is_zero() or poly.is_constant():
        return Fraction(1)
    lead = abs(poly.leading_coefficient)
    peak = max(abs(c) for c in poly.coefficients[:-1])
    return Fraction(1) + peak / lead


def isolate_real_roots(
    poly: Polynomial,
    lower: Optional[RationalLike] = None,
    upper: Optional[RationalLike] = None,
) -> List[Tuple[Fraction, Fraction]]:
    """Return disjoint intervals ``(a, b]`` each containing exactly one real root.

    Roots that happen to fall exactly on a candidate bisection point are
    returned as the degenerate interval ``(r, r]``.  When *lower* /
    *upper* are omitted, the Cauchy bound is used.  The search interval
    is half-open at the left: a root exactly at *lower* is not reported
    (callers that care evaluate the endpoint themselves; the paper's use
    always does, via piecewise interval endpoints).
    """
    return _isolate(_radical_chain(poly), lower, upper)


def _isolate(
    chain: List[Row],
    lower: Optional[RationalLike],
    upper: Optional[RationalLike],
) -> List[Tuple[Fraction, Fraction]]:
    """:func:`isolate_real_roots` given the Sturm chain of a square-free
    polynomial (``chain[0]``)."""
    if not chain:
        return []
    if lower is None or upper is None:
        bound = cauchy_root_bound(Polynomial(chain[0]))
    lo = as_fraction(lower) if lower is not None else -bound
    hi = as_fraction(upper) if upper is not None else bound

    intervals: List[Tuple[Fraction, Fraction]] = []

    def recurse(a: Fraction, va: int, b: Fraction, vb: int) -> None:
        n = va - vb
        if n == 0:
            return
        if n == 1:
            intervals.append((a, b))
            return
        mid = (a + b) / 2
        vm, at_mid = _variations(chain, mid)
        if at_mid == 0:
            recurse(a, va, mid, vm)
            # The recursion into (a, mid] re-finds the root at mid as a
            # degenerate-or-regular interval ending at mid; drop it and
            # keep the explicit exact hit instead.
            while intervals and intervals[-1][1] == mid and intervals[-1][0] != mid:
                intervals.pop()
            intervals.append((mid, mid))
            recurse(mid, vm, b, vb)
        else:
            recurse(a, va, mid, vm)
            recurse(mid, vm, b, vb)

    if lo < hi:
        recurse(lo, _variations(chain, lo)[0], hi, _variations(chain, hi)[0])
    intervals.sort()
    return intervals


def refine_root(
    poly: Polynomial,
    lower: RationalLike,
    upper: RationalLike,
    tolerance: RationalLike = Fraction(1, 10**12),
) -> Fraction:
    """Bisect a root known to lie in ``(lower, upper]`` down to *tolerance* width.

    Requires a sign change across the interval (after replacing the open
    left endpoint by a point just inside when ``poly(lower) == 0`` would
    be ambiguous).  Returns the interval midpoint as a ``Fraction``.
    """
    bounds = (as_fraction(lower), as_fraction(upper), as_fraction(tolerance))
    return _refine(integer_row(poly.coefficients), *bounds)


def _refine(row: Row, a: Fraction, b: Fraction, tol: Fraction) -> Fraction:
    """:func:`refine_root` on an integer row."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    sb = sign_at(row, b)
    if sb == 0:
        return b
    if a == b:
        return a
    sa = sign_at(row, a)
    if sa == 0:
        # Root at the open endpoint belongs to a neighbouring interval;
        # nudge inward so the bisection below sees a strict sign change.
        step = (b - a) / 2
        while True:
            probe = a + step
            sp = sign_at(row, probe)
            if sp == 0:
                return probe
            if sp != sb:
                a, sa = probe, sp
                break
            step /= 2
            if step < tol:
                return b
    if sa == sb:
        raise ValueError(
            f"no sign change on [{a}, {b}]: f(a) and f(b) have sign {sa}; "
            "interval does not bracket a simple root"
        )
    while b - a > tol:
        mid = (a + b) / 2
        sm = sign_at(row, mid)
        if sm == 0:
            return mid
        if sm == sa:
            a = mid
        else:
            b = mid
    return (a + b) / 2


def real_roots(
    poly: Polynomial,
    lower: Optional[RationalLike] = None,
    upper: Optional[RationalLike] = None,
    tolerance: RationalLike = Fraction(1, 10**12),
) -> List[Fraction]:
    """All distinct real roots of *poly* in ``(lower, upper]``, refined to *tolerance*.

    Roots are returned in increasing order as exact rationals within
    *tolerance* of the true algebraic root (exact when the root is
    rational and hit by bisection).
    """
    chain = _radical_chain(poly)
    tol = as_fraction(tolerance)
    return [
        a if a == b else _refine(chain[0], a, b, tol)
        for a, b in _isolate(chain, lower, upper)
    ]
