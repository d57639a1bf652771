"""Batch-vs-exact agreement: the integrity check for the batch layer.

For a grid of ``(n, delta)`` cases this runner compiles the Theorem
5.1 threshold curve, evaluates a beta grid **that deliberately
includes every float breakpoint and its immediate float neighbours**
(the points where dispatch bugs live), and checks three properties per
point:

1. **scalar/batch bit-identity** -- the vectorised value equals the
   scalar :meth:`PiecewisePolynomial.evaluate_float` value bit-for-bit
   (same dispatch, same Horner);
2. **certified bound honesty** -- a certified value differs from the
   exact ``Fraction`` kernel at ``Fraction(x)`` by at most its
   reported error bound (plus one final rounding);
3. **fallback exactness** -- an uncertified point's recorded exact
   fallback equals an independent exact kernel evaluation.

``repro check --batch-grid N`` runs this and maps disagreement to the
integrity exit code (6), the same code the cross-validation oracle
uses; CI runs it on every push.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Sequence

import numpy as np

from repro.batch.tables import compiled_threshold_curve
from repro.observability import get_instrumentation
from repro.symbolic.rational import RationalLike, as_fraction
from repro.validation.enclosure import EPS

__all__ = ["AgreementReport", "agreement_grid", "run_batch_agreement"]


@dataclass
class AgreementReport:
    """Outcome of one batch-vs-exact agreement run."""

    cases: int = 0
    points: int = 0
    certified: int = 0
    fallbacks: int = 0
    max_certified_error: float = 0.0
    disagreements: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.cases > 0 and not self.disagreements

    @property
    def fallback_rate(self) -> float:
        return self.fallbacks / self.points if self.points else 0.0

    def render(self) -> str:
        lines = [
            "batch agreement: "
            f"{self.cases} cases, {self.points} points, "
            f"{self.certified} certified, {self.fallbacks} fallbacks "
            f"(rate {self.fallback_rate:.2%}), "
            f"max certified error {self.max_certified_error:.3e}",
        ]
        for text in self.disagreements[:20]:
            lines.append(f"  DISAGREEMENT: {text}")
        if len(self.disagreements) > 20:
            lines.append(
                f"  ... and {len(self.disagreements) - 20} more"
            )
        lines.append(
            "batch agreement PASSED"
            if self.passed
            else "batch agreement FAILED"
        )
        return "\n".join(lines)


def agreement_grid(
    compiled, grid_size: int
) -> np.ndarray:
    """A beta grid stressing dispatch: uniform points over the domain
    plus every float breakpoint and its adjacent float64 values."""
    lo = compiled.edges[0]
    hi = compiled.edges[-1]
    points = list(np.linspace(lo, hi, max(grid_size, 2)))
    for edge in compiled.edges:
        points.append(edge)
        before = np.nextafter(edge, -np.inf)
        after = np.nextafter(edge, np.inf)
        if before >= lo:
            points.append(before)
        if after <= hi:
            points.append(after)
    return np.unique(np.array(points, dtype=np.float64))


def run_batch_agreement(
    ns: Sequence[int],
    deltas: Sequence[RationalLike],
    grid_size: int = 256,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-15,
) -> AgreementReport:
    """Check batch results against the scalar exact kernel everywhere
    (breakpoints included) for every ``(n, delta)`` case."""
    report = AgreementReport()
    instr = get_instrumentation()
    for n in ns:
        for delta in deltas:
            d = as_fraction(delta)
            with instr.span(
                "batch.agreement", n=n, delta=str(d)
            ):
                compiled = compiled_threshold_curve(n, d)
                curve = compiled.exact
                xs = agreement_grid(compiled, grid_size)
                result = compiled.evaluate_certified(
                    xs, rel_tol=rel_tol, abs_tol=abs_tol
                )
                raw = compiled.evaluate(xs)
                report.cases += 1
                report.points += result.points
                report.fallbacks += result.fallback_count
                report.certified += result.points - result.fallback_count
                for i, x in enumerate(xs):
                    scalar = curve.evaluate_float(float(x))
                    if scalar != raw[i]:
                        report.disagreements.append(
                            f"n={n} delta={d} beta={x!r}: scalar float "
                            f"{scalar!r} != batch {raw[i]!r}"
                        )
                        continue
                    exact = curve(Fraction(float(x)))
                    if result.certified[i]:
                        error = abs(result.values[i] - float(exact))
                        report.max_certified_error = max(
                            report.max_certified_error, error
                        )
                        allowance = result.error_bounds[i] + 4.0 * EPS * max(
                            1.0, abs(float(exact))
                        )
                        if error > allowance:
                            report.disagreements.append(
                                f"n={n} delta={d} beta={x!r}: certified "
                                f"value {result.values[i]!r} off exact "
                                f"{float(exact)!r} by {error:.3e} "
                                f"> bound {allowance:.3e}"
                            )
                    else:
                        recorded = result.exact_fallbacks.get(i)
                        if recorded != exact:
                            report.disagreements.append(
                                f"n={n} delta={d} beta={x!r}: fallback "
                                f"{recorded} != exact {exact}"
                            )
    return report
