"""Exact real-root isolation and refinement for rational polynomials.

The optimality conditions of the paper (Corollary 4.2, Theorem 5.2) zero
polynomials with rational coefficients, and the optimal thresholds are
their real roots inside ``[0, 1]``.  This module isolates those roots
exactly with Sturm sequences and refines them by rational bisection to
any requested precision, so the reproduced paper numbers (e.g.
``beta* = 1 - sqrt(1/7)``) carry no floating-point uncertainty.

The algorithms are textbook:

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


def sturm_sequence(poly: Polynomial) -> List[Polynomial]:
    """Return the Sturm chain ``p, p', -rem(p, p'), ...`` of *poly*.

    The chain ends when the remainder vanishes.  Each element is reduced
    to its integer primitive part -- this does not change sign patterns
    but keeps coefficient growth under control.
    """
    if poly.is_zero():
        raise ValueError("Sturm sequence of the zero polynomial is undefined")
    chain = [poly.primitive_part(keep_sign=True)]
    derivative = poly.derivative()
    if derivative.is_zero():
        return chain
    chain.append(derivative.primitive_part(keep_sign=True))
    while True:
        remainder = chain[-2] % chain[-1]
        if remainder.is_zero():
            break
        chain.append((-remainder).primitive_part(keep_sign=True))
    return chain


def sign_variations(chain: Sequence[Polynomial], point: RationalLike) -> int:
    """Number of sign changes of the chain evaluated at *point* (zeros skipped)."""
    x = as_fraction(point)
    signs = []
    for p in chain:
        v = p(x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


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
        chain = sturm_sequence(poly.squarefree_part())
    return sign_variations(chain, lo) - sign_variations(chain, hi)


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
    return _isolate_radical(poly.squarefree_part(), lower, upper)


def _isolate_radical(
    square_free: Polynomial,
    lower: Optional[RationalLike],
    upper: Optional[RationalLike],
) -> List[Tuple[Fraction, Fraction]]:
    """:func:`isolate_real_roots` of an already squarefree polynomial."""
    if square_free.is_constant():
        return []
    chain = sturm_sequence(square_free)
    bound = cauchy_root_bound(square_free)
    lo = as_fraction(lower) if lower is not None else -bound
    hi = as_fraction(upper) if upper is not None else bound

    intervals: List[Tuple[Fraction, Fraction]] = []

    def recurse(a: Fraction, b: Fraction) -> None:
        n = sign_variations(chain, a) - sign_variations(chain, b)
        if n == 0:
            return
        if n == 1:
            intervals.append((a, b))
            return
        mid = (a + b) / 2
        if square_free(mid) == 0:
            intervals_here = [(mid, mid)]
            recurse(a, mid)
            # The recursion into (a, mid] re-finds the root at mid as a
            # degenerate-or-regular interval ending at mid; drop it and
            # keep the explicit exact hit instead.
            while intervals and intervals[-1][1] == mid and intervals[-1][0] != mid:
                intervals.pop()
            intervals.extend(intervals_here)
            recurse(mid, b)
        else:
            recurse(a, mid)
            recurse(mid, b)

    if lo < hi:
        recurse(lo, hi)
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
    a = as_fraction(lower)
    b = as_fraction(upper)
    tol = as_fraction(tolerance)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    fb = poly(b)
    if fb == 0:
        return b
    if a == b:
        return a
    fa = poly(a)
    if fa == 0:
        # Root at the open endpoint belongs to a neighbouring interval;
        # nudge inward so the bisection below sees a strict sign change.
        step = (b - a) / 2
        while True:
            probe = a + step
            fp = poly(probe)
            if fp == 0:
                return probe
            if (fp > 0) != (fb > 0):
                a, fa = probe, fp
                break
            step /= 2
            if step < tol:
                return b
    if (fa > 0) == (fb > 0):
        raise ValueError(
            f"no sign change on [{a}, {b}]: f(a)={fa}, f(b)={fb}; "
            "interval does not bracket a simple root"
        )
    while b - a > tol:
        mid = (a + b) / 2
        fm = poly(mid)
        if fm == 0:
            return mid
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
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
    square_free = poly.squarefree_part()
    roots = []
    for a, b in _isolate_radical(square_free, lower, upper):
        if a == b:
            roots.append(a)
        else:
            roots.append(refine_root(square_free, a, b, tolerance))
    return roots
