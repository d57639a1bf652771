"""Compile-once / evaluate-many lowering of piecewise polynomials.

The winning probabilities of the paper are piecewise polynomials with
exact rational breakpoints and coefficients (Theorem 5.1).  Sweeps and
optimizer inner loops evaluate them on large grids; doing so through
the exact ``Fraction`` kernel costs big-integer arithmetic per point.
:class:`CompiledPiecewise` lowers one exact
:class:`~repro.symbolic.piecewise.PiecewisePolynomial` to flat float64
coefficient tables once, then evaluates whole NumPy grids with
vectorised Horner:

* **dispatch** -- ``np.searchsorted(edges, xs, side="right")`` maps
  every point to the piece that owns it under the half-open
  ``[lower, upper)`` convention (last piece closed), exactly the
  convention of the scalar :meth:`PiecewisePolynomial.piece_at` and
  :meth:`evaluate_float`;
* **evaluate** -- per-piece Horner on the whole array, identical
  float64 operations in identical order to the scalar float path, so
  scalar and batch values are bit-for-bit equal on every point;
* **certify** -- alongside every value a running a-posteriori error
  bound is accumulated (the magnitude recurrence
  ``b <- b*|x| + |c|``, scaled by the standard Horner rounding factor,
  in the spirit of :mod:`repro.validation.fastpath`), so each point is
  either *certified* to the requested tolerance or explicitly not;
* **fall back** -- uncertified points are recomputed by the exact
  ``Fraction`` kernel (the compiled object keeps its source
  polynomial), and the exact values are reported alongside so callers
  can keep full precision on exactly the points that needed it.

Points within a few ulp of a breakpoint whose exact rational value is
*not* float64-representable are never certified: there float dispatch
and exact dispatch may legitimately pick different pieces, so those
points are always served by the exact kernel.

Every certified/fallback decision is counted on the active
:class:`~repro.observability.metrics.MetricsRegistry` under
``batch.points`` / ``batch.certified`` / ``batch.fallbacks``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import PiecewiseDomainError
from repro.observability import get_instrumentation
from repro.symbolic.piecewise import PiecewisePolynomial
from repro.symbolic.polynomial import Polynomial
from repro.validation.fastpath import EPS, certifies

__all__ = ["BatchResult", "CompiledPiecewise"]

#: How many ulps around a non-representable breakpoint are refused
#: certification (float and exact dispatch may disagree inside).
_EDGE_GUARD_ULPS = 4.0


@dataclass(frozen=True)
class BatchResult:
    """One batched evaluation: values, bounds, and the fallback record.

    ``values[i]`` is the certified float64 result, or the float image
    of the exact fallback value when ``certified[i]`` is False.
    ``error_bounds[i]`` bounds ``|values[i] - f(Fraction(x_i))|``; it
    is 0.0 on fallback points (they are exact up to one final float
    rounding).  ``exact_fallbacks`` maps the index of every fallback
    point to the true :class:`~fractions.Fraction` value, so callers
    that need full precision on those points do not re-evaluate.
    """

    values: np.ndarray
    error_bounds: np.ndarray
    certified: np.ndarray
    exact_fallbacks: Dict[int, Fraction] = field(default_factory=dict)

    @property
    def points(self) -> int:
        return int(self.values.shape[0])

    @property
    def fallback_count(self) -> int:
        return len(self.exact_fallbacks)

    @property
    def fallback_rate(self) -> float:
        if self.points == 0:
            return 0.0
        return self.fallback_count / self.points


class CompiledPiecewise:
    """Float64 coefficient tables compiled from one exact piecewise
    polynomial, evaluating whole grids at once.

    Construction converts every breakpoint and coefficient to float64
    exactly once (correctly rounded); the source polynomial is kept for
    exact fallback.  The scalar float path
    (:meth:`PiecewisePolynomial.evaluate_float`) performs the same
    conversions and the same Horner recurrence, so the two agree
    bit-for-bit -- a property the test-suite pins at and around every
    breakpoint.
    """

    def __init__(self, exact: PiecewisePolynomial):
        self._exact = exact
        pieces = exact.pieces
        self._edges = np.array(
            [float(p.lower) for p in pieces] + [float(exact.upper)],
            dtype=np.float64,
        )
        degree = max(len(p.polynomial.coefficients) for p in pieces) - 1
        self._degree = max(degree, 0)
        coeffs = np.zeros((len(pieces), self._degree + 1), dtype=np.float64)
        underflow = False
        for i, p in enumerate(pieces):
            for j, c in enumerate(p.polynomial.coefficients):
                coeffs[i, j] = float(c)
                underflow |= c != 0 and abs(coeffs[i, j]) < sys.float_info.min
        self._coeffs = coeffs
        # A coefficient converted below the normal float range carries an
        # absolute error the relative Horner bound misses; an absolute
        # slack covers it and the subnormal roundings that follow.
        reach = max(abs(self._edges[0]), abs(self._edges[-1]), 1.0)
        self._slack = (
            (2.0 * self._degree + 4.0) * math.ulp(0.0) * reach**self._degree
            if underflow
            else 0.0
        )
        # Interior/terminal edges whose exact breakpoint is not exactly
        # float64-representable: points nearby are never certified.
        guarded = [
            self._edges[k]
            for k, b in enumerate(exact.breakpoints)
            if Fraction(float(b)) != b
        ]
        self._guarded_edges = np.array(guarded, dtype=np.float64)

    @classmethod
    def from_polynomial(
        cls, polynomial: Polynomial, lower: Fraction, upper: Fraction
    ) -> "CompiledPiecewise":
        """Compile a plain polynomial as a single piece on
        ``[lower, upper]``."""
        return cls(
            PiecewisePolynomial.from_breakpoints(
                [lower, upper], [polynomial]
            )
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def exact(self) -> PiecewisePolynomial:
        """The exact source polynomial (the fallback kernel)."""
        return self._exact

    @property
    def edges(self) -> np.ndarray:
        """Float64 images of the breakpoints (read-only view)."""
        view = self._edges.view()
        view.flags.writeable = False
        return view

    @property
    def piece_count(self) -> int:
        return self._coeffs.shape[0]

    @property
    def degree(self) -> int:
        """Maximum piece degree (the Horner chain length)."""
        return self._degree

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _as_array(self, xs) -> np.ndarray:
        arr = np.asarray(xs, dtype=np.float64)
        if arr.ndim != 1:
            arr = arr.reshape(-1)
        if arr.size and (
            arr.min() < self._edges[0] or arr.max() > self._edges[-1]
        ):
            raise PiecewiseDomainError(
                f"batch points outside float domain "
                f"[{self._edges[0]}, {self._edges[-1]}]"
            )
        return arr

    def piece_indices(self, xs) -> np.ndarray:
        """The owning piece of every point, half-open convention.

        ``searchsorted(..., side='right') - 1`` dispatches a point on a
        shared breakpoint to the piece that *starts* there; clipping
        keeps the domain's right endpoint with the last piece --
        exactly :meth:`PiecewisePolynomial.piece_index_at`.
        """
        arr = self._as_array(xs)
        idx = np.searchsorted(self._edges, arr, side="right") - 1
        return np.clip(idx, 0, self.piece_count - 1)

    def evaluate(self, xs) -> np.ndarray:
        """Vectorised Horner, bit-identical to the scalar
        :meth:`PiecewisePolynomial.evaluate_float` at every point."""
        values, _ = self.evaluate_with_bound(xs)
        return values

    def evaluate_with_bound(
        self, xs
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Values plus per-point a-posteriori error bounds.

        The bound covers the Horner rounding (``~2*degree`` roundings
        per point), the correctly-rounded float conversion of every
        exact coefficient, and a slack factor for the bound's own float
        accumulation; points within ``_EDGE_GUARD_ULPS`` ulp of a
        non-representable breakpoint get an infinite bound because
        float dispatch may not match exact dispatch there.
        """
        arr = self._as_array(xs)
        idx = np.searchsorted(self._edges, arr, side="right") - 1
        np.clip(idx, 0, self.piece_count - 1, out=idx)
        coeffs = self._coeffs[idx]  # (N, degree + 1)
        values = np.zeros_like(arr)
        magnitude = np.zeros_like(arr)
        abs_x = np.abs(arr)
        for k in range(self._degree, -1, -1):
            c = coeffs[:, k]
            values = values * arr + c
            magnitude = magnitude * abs_x + np.abs(c)
        bounds = (2.0 * self._degree + 4.0) * EPS * magnitude
        if self._slack:
            bounds = bounds + self._slack
        if self._guarded_edges.size:
            near = np.zeros(arr.shape, dtype=bool)
            for edge in self._guarded_edges:
                near |= np.abs(arr - edge) <= _EDGE_GUARD_ULPS * np.spacing(
                    abs(edge) if edge != 0.0 else 1.0
                )
            bounds = np.where(near, np.inf, bounds)
        return values, bounds

    def evaluate_certified(
        self,
        xs,
        rel_tol: float = 1e-9,
        abs_tol: float = 1e-15,
    ) -> BatchResult:
        """Batched evaluation with per-point certification and exact
        fallback.

        Every point is either *certified* (its bound passes
        :func:`~repro.validation.fastpath.certifies`) or recomputed by
        the exact ``Fraction`` kernel at ``Fraction(x)`` -- the same
        fallback policy as the scalar fast paths of
        :mod:`repro.probability.uniform_sums`.  Counts
        ``batch.points`` / ``batch.certified`` / ``batch.fallbacks``.
        """
        values, bounds = self.evaluate_with_bound(xs)
        certified = certifies(values, bounds, rel_tol, abs_tol)
        exact_fallbacks: Dict[int, Fraction] = {}
        if not bool(certified.all()):
            values = values.copy()
            bounds = bounds.copy()
            arr = self._as_array(xs)
            for i in np.nonzero(~certified)[0]:
                exact_value = self._exact(Fraction(float(arr[i])))
                exact_fallbacks[int(i)] = exact_value
                values[i] = float(exact_value)
                bounds[i] = 0.0
        instr = get_instrumentation()
        if instr.enabled:
            total = int(values.shape[0])
            instr.increment("batch.points", total)
            instr.increment(
                "batch.certified", total - len(exact_fallbacks)
            )
            if exact_fallbacks:
                instr.increment("batch.fallbacks", len(exact_fallbacks))
        return BatchResult(
            values=values,
            error_bounds=bounds,
            certified=certified,
            exact_fallbacks=exact_fallbacks,
        )

    def __repr__(self) -> str:
        return (
            f"CompiledPiecewise({self.piece_count} pieces, degree "
            f"{self._degree}, on [{self._edges[0]}, {self._edges[-1]}])"
        )
