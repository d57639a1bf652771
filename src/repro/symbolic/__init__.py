"""Exact-arithmetic symbolic substrate.

The paper's analysis is carried out entirely with exact rational
arithmetic: every winning probability is a piecewise polynomial in the
algorithm's parameters with rational coefficients, and every optimum is
an algebraic number.  This subpackage provides the machinery that
replaces the paper's hand algebra (and the ``sympy`` dependency that is
unavailable in this environment):

* :mod:`repro.symbolic.rational` -- coercion helpers and exact rational
  utilities built on :class:`fractions.Fraction`.
* :mod:`repro.symbolic.polynomial` -- dense univariate polynomials over
  exact rationals.
* :mod:`repro.symbolic.roots` -- Sturm-sequence real-root isolation and
  bisection refinement to arbitrary precision.
* :mod:`repro.symbolic.piecewise` -- piecewise polynomial functions with
  exact rational breakpoints, supporting differentiation and exact
  global maximisation on an interval.
"""

from repro.symbolic.bernstein import (
    bernstein_coefficients,
    bernstein_range_bound,
    certify_nonnegative,
)
from repro.symbolic.piecewise import PiecewisePolynomial, Piece
from repro.symbolic.polynomial import Polynomial
from repro.symbolic.rational import as_fraction, binomial, factorial
from repro.symbolic.roots import (
    count_real_roots,
    isolate_real_roots,
    real_roots,
    refine_root,
    sturm_sequence,
)

__all__ = [
    "Piece",
    "PiecewisePolynomial",
    "Polynomial",
    "as_fraction",
    "bernstein_coefficients",
    "bernstein_range_bound",
    "binomial",
    "certify_nonnegative",
    "count_real_roots",
    "factorial",
    "isolate_real_roots",
    "real_roots",
    "refine_root",
    "sturm_sequence",
]
