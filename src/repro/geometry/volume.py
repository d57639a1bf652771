"""Exact volumes by inclusion-exclusion (Proposition 2.2 and Lemma 2.3).

The cornerstone of the paper is the polytope

``SigmaPi^(m)(sigma, pi) = Sigma^(m)(sigma)  intersect  Pi^(m)(pi)``,

the portion of the orthogonal simplex lying inside the box.  Its volume
has the closed form (Proposition 2.2)

``Vol = (1/m!) prod_l sigma_l * sum_{I : sum_{l in I} pi_l/sigma_l < 1}
        (-1)^|I| (1 - sum_{l in I} pi_l / sigma_l)^m``

where ``I`` ranges over subsets of ``{1..m}`` satisfying the strict
condition.  The proof subtracts, for each subset ``I``, the corner of
the simplex cut off by pushing every coordinate in ``I`` beyond its box
bound; Lemma 2.3 identifies each corner as a similar simplex with
similarity ratio ``1 - sum_{l in I} pi_l / sigma_l``.

Both the raw formula and an object-oriented wrapper are provided, plus a
direct recursive integration routine used as an independent witness in
the test-suite.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Tuple

from repro.cache import memoized_kernel
from repro.errors import ValidationError
from repro.geometry.box import Box
from repro.geometry.polytope import Polytope
from repro.geometry.simplex import OrthogonalSimplex
from repro.symbolic.rational import (
    RationalLike,
    alternating_subset_power_sum,
    as_fraction,
    common_denominator,
    factorial,
)
from repro.validation.contracts import (
    check_volume_subadditive,
    contracts_enabled,
)

__all__ = [
    "SimplexBoxIntersection",
    "corner_simplex_volume",
    "intersection_volume",
    "intersection_volume_by_integration",
]


def _validated_sides(
    sigma: Sequence[RationalLike], pi: Sequence[RationalLike]
) -> Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]:
    s = tuple(as_fraction(v) for v in sigma)
    p = tuple(as_fraction(v) for v in pi)
    if len(s) != len(p):
        raise ValidationError(
            f"dimension mismatch: {len(s)} simplex sides, {len(p)} box sides"
        )
    if not s:
        raise ValidationError("need at least one dimension")
    for i, v in enumerate(s):
        if v <= 0:
            raise ValidationError(f"sigma[{i}] must be positive, got {v}")
    for i, v in enumerate(p):
        if v <= 0:
            raise ValidationError(f"pi[{i}] must be positive, got {v}")
    return s, p


def corner_simplex_volume(
    sigma: Sequence[RationalLike],
    pi: Sequence[RationalLike],
    subset: Sequence[int],
) -> Fraction:
    """Lemma 2.3: volume of the simplex corner beyond ``x_l >= pi_l, l in subset``.

    Returns ``(1/m!) prod sigma_l * (1 - sum_{l in subset} pi_l/sigma_l)^m``
    when the ratio sum is below 1, and 0 otherwise (the corner is empty).
    """
    s, p = _validated_sides(sigma, pi)
    m = len(s)
    ratio_sum = sum((p[l] / s[l] for l in subset), Fraction(0))
    if ratio_sum >= 1:
        return Fraction(0)
    base = OrthogonalSimplex(s).volume()
    return base * (1 - ratio_sum) ** m


@memoized_kernel
def intersection_volume(
    sigma: Sequence[RationalLike], pi: Sequence[RationalLike]
) -> Fraction:
    """Proposition 2.2: exact volume of ``Sigma^(m)(sigma) ∩ Pi^(m)(pi)``.

    Sums over the subsets in integers, with the ratios ``pi_l / sigma_l``
    scaled to one common denominator, and builds one ``Fraction`` at the
    end.  A subset whose ratio sum reaches 1 is never grown, so once
    every singleton ratio reaches 1 the sum collapses to the simplex
    volume.
    """
    s, p = _validated_sides(sigma, pi)
    m = len(s)
    scale, ratios = common_denominator([p[l] / s[l] for l in range(m)])
    total = alternating_subset_power_sum(scale, ratios, m)
    volume = Fraction(
        math.prod(v.numerator for v in s) * total,
        math.prod(v.denominator for v in s) * factorial(m) * scale**m,
    )
    if contracts_enabled():
        check_volume_subadditive(
            "intersection_volume",
            volume,
            [OrthogonalSimplex(s).volume(), math.prod(p)],
        )
    return volume


def intersection_volume_by_integration(
    sigma: Sequence[RationalLike], pi: Sequence[RationalLike]
) -> Fraction:
    """Independent witness: compute the same volume by recursive integration.

    Integrates out one coordinate at a time:

    ``Vol_m(theta) = integral_0^{min(pi_m, theta*sigma_m)}
                     Vol_{m-1}(theta - x/sigma_m) dx``

    implemented by tracking the volume as an exact piecewise polynomial
    in the remaining simplex budget ``theta``.  Exponentially slower to
    write down than Proposition 2.2 but derived by a completely
    different route, which is what makes it a useful cross-check.
    """
    from repro.symbolic.piecewise import Piece, PiecewisePolynomial
    from repro.symbolic.polynomial import Polynomial

    s, p = _validated_sides(sigma, pi)

    # volume(theta) for the first k coordinates, as a piecewise
    # polynomial in theta on [0, 1]; theta is the remaining fraction of
    # the simplex budget sum x_l / sigma_l <= theta.
    current = PiecewisePolynomial(
        [Piece(Fraction(0), Fraction(1), Polynomial.one())]
    )
    for k in range(len(s)):
        cap = min(p[k] / s[k], Fraction(1))  # x_k / sigma_k <= cap
        current = _integrate_budget(current, cap, s[k])
    return current(Fraction(1))


def _integrate_budget(volume, cap: Fraction, side: Fraction):
    """One integration step for :func:`intersection_volume_by_integration`.

    Given ``V_{k-1}(theta)`` piecewise on [0, 1], returns

    ``V_k(theta) = side * integral_0^{min(cap, theta)} V_{k-1}(theta - u) du``

    (the substitution ``u = x_k / sigma_k`` contributes the factor
    ``side = sigma_k``).
    """
    from repro.symbolic.piecewise import Piece, PiecewisePolynomial
    from repro.symbolic.polynomial import Polynomial

    # Antiderivative W of V (piecewise, continuous, W(0) = 0).
    anti_pieces = []
    running = Fraction(0)
    for piece in volume.pieces:
        anti = piece.polynomial.antiderivative()
        # adjust constant so W is continuous: W(piece.lower) == running
        anti = anti + Polynomial.constant(running - anti(piece.lower))
        anti_pieces.append(Piece(piece.lower, piece.upper, anti))
        running = anti(piece.upper)
    anti_fn = PiecewisePolynomial(anti_pieces)

    # V_k(theta) = side * (W(theta) - W(theta - min(cap, theta)))
    #            = side * (W(theta) - W(max(theta - cap, 0)))
    breakpoints = sorted(
        {Fraction(0), Fraction(1), cap}
        | {bp for bp in anti_fn.breakpoints}
        | {bp + cap for bp in anti_fn.breakpoints if 0 <= bp + cap <= 1}
    )
    breakpoints = [b for b in breakpoints if 0 <= b <= 1]

    def build(mid: Fraction) -> Polynomial:
        # Polynomial expression of W(theta) near mid.
        w_hi = anti_fn.piece_at(mid).polynomial
        lower_arg = mid - cap
        if lower_arg <= 0:
            w_lo = Polynomial.constant(anti_fn(Fraction(0)))
        else:
            w_lo = anti_fn.piece_at(lower_arg).polynomial.compose(
                Polynomial.linear(-cap, 1)
            )
        return (w_hi - w_lo) * side

    return PiecewisePolynomial.from_sampler(build, breakpoints)


class SimplexBoxIntersection:
    """The polytope ``SigmaPi^(m)(sigma, pi)`` with volume and membership.

    Wraps :class:`OrthogonalSimplex` and :class:`Box` so callers can
    treat the intersection as a first-class object.
    """

    def __init__(
        self, sigma: Sequence[RationalLike], pi: Sequence[RationalLike]
    ):
        s, p = _validated_sides(sigma, pi)
        self._simplex = OrthogonalSimplex(s)
        self._box = Box.from_sides(p)

    @property
    def simplex(self) -> OrthogonalSimplex:
        return self._simplex

    @property
    def box(self) -> Box:
        return self._box

    @property
    def dimension(self) -> int:
        return self._simplex.dimension

    def volume(self) -> Fraction:
        """Exact volume via Proposition 2.2."""
        return intersection_volume(self._simplex.sides, self._box.sides)

    def contains(self, point: Sequence[RationalLike]) -> bool:
        """Membership in both the simplex and the box."""
        return self._simplex.contains(point) and self._box.contains(point)

    def as_polytope(self) -> Polytope:
        """H-representation of the intersection."""
        return self._simplex.as_polytope().intersect(self._box.as_polytope())

    def __repr__(self) -> str:
        return (
            f"SimplexBoxIntersection(sigma={[str(v) for v in self._simplex.sides]}, "
            f"pi={[str(v) for v in self._box.sides]})"
        )
