"""Exact maximisation of the symmetric threshold winning probability.

Section 5.2 of the paper maximises, over the common threshold ``beta``,
the piecewise polynomial of Theorem 5.1.  This module does exactly
that, mechanically, for any ``(n, delta)``:

1. build the exact piecewise polynomial (``symmetric_threshold_winning_polynomial``);
2. differentiate it piece by piece (the Theorem 5.2 stationarity object);
3. isolate the real roots of each piece's derivative with Sturm
   sequences, refine them to rational enclosures;
4. compare the winning probability at all stationary points,
   breakpoints and endpoints.

The result records the optimal threshold, the optimal probability, and
the polynomial piece the optimum lies on -- which for ``n = 3,
delta = 1`` is the paper's cubic ``-11/6 + 9b - 21/2 b^2 + 7/2 b^3``
with the optimum at ``beta* = 1 - sqrt(1/7)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from repro.cache import memoized_kernel
from repro.core.nonoblivious import symmetric_threshold_winning_polynomial
from repro.errors import ValidationError
from repro.observability import get_instrumentation
from repro.validation.contracts import check_probability
from repro.symbolic.piecewise import Piece, PiecewisePolynomial
from repro.symbolic.polynomial import Polynomial
from repro.symbolic.rational import RationalLike, as_fraction

__all__ = [
    "ThresholdOptimum",
    "optimal_symmetric_threshold",
]


@dataclass(frozen=True)
class ThresholdOptimum:
    """The exact optimum of the symmetric threshold problem."""

    n: int
    delta: Fraction
    beta: Fraction
    probability: Fraction
    piece: Piece
    curve: PiecewisePolynomial

    @property
    def stationarity_polynomial(self) -> Polynomial:
        """The derivative of the piece the optimum lies on.

        Zeroing this polynomial is the paper's optimality condition on
        that interval (e.g. a positive multiple of
        ``beta^2 - 2 beta + 6/7`` for ``n = 3, delta = 1``).
        """
        return self.piece.polynomial.derivative()

    def is_interior(self) -> bool:
        """Whether the optimum is strictly inside its piece (a true
        stationary point rather than a breakpoint/endpoint)."""
        return self.piece.lower < self.beta < self.piece.upper

    def __str__(self) -> str:
        return (
            f"n={self.n}, delta={self.delta}: beta*={float(self.beta):.6f}, "
            f"P*={float(self.probability):.6f} on piece "
            f"[{self.piece.lower}, {self.piece.upper}]"
        )


@memoized_kernel(persist=False)
def optimal_symmetric_threshold(
    n: int,
    delta: RationalLike,
    tolerance: RationalLike = Fraction(1, 10**12),
) -> ThresholdOptimum:
    """Maximise ``beta -> P(beta)`` exactly over ``[0, 1]``.

    *tolerance* bounds the width of the rational enclosure of any
    irrational stationary point (the probability value inherits an
    error of the same order through the polynomial's Lipschitz bound;
    at the default 1e-12 this is far below anything the paper reports).
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    d = as_fraction(delta)
    if d <= 0:
        raise ValidationError(f"delta must be positive, got {d}")
    instr = get_instrumentation()
    with instr.span(
        "optimize.symmetric_threshold", n=n, delta=str(d)
    ), instr.metrics.timer("optimize.threshold_seconds"):
        curve = symmetric_threshold_winning_polynomial(n, d)
        beta, probability = curve.maximize(tolerance)
        piece = curve.piece_at(beta)
        instr.increment("optimize.threshold_searches")
        instr.increment("optimize.pieces_searched", len(curve.pieces))
    check_probability("optimal_symmetric_threshold", probability)
    return ThresholdOptimum(
        n=n,
        delta=d,
        beta=beta,
        probability=probability,
        piece=piece,
        curve=curve,
    )


def local_maxima(
    n: int,
    delta: RationalLike,
    tolerance: RationalLike = Fraction(1, 10**12),
) -> List[Tuple[Fraction, Fraction]]:
    """All local maxima of the threshold curve (for landscape studies).

    A candidate point is a local maximum when the curve is no larger at
    points ``tolerance``-close on either side (one-sided at the domain
    boundary).  Used by the ablation benchmarks to show the landscape
    is not unimodal in general.
    """
    instr = get_instrumentation()
    with instr.span("optimize.local_maxima", n=n, delta=str(delta)):
        curve = symmetric_threshold_winning_polynomial(n, as_fraction(delta))
        tol = as_fraction(tolerance)
        probe = max(tol * 1000, Fraction(1, 10**6))
        maxima = []
        for x in curve.critical_points(tol):
            value = curve(x)
            left = max(curve.lower, x - probe)
            right = min(curve.upper, x + probe)
            if curve(left) <= value and curve(right) <= value:
                maxima.append((x, value))
            instr.increment("optimize.candidates_probed")
    return maxima
