"""The analytic <-> Monte Carlo cross-validation oracle.

``repro check`` (and CI's ``integrity`` job) runs every case of a
``(n, delta, algorithm)`` grid through **three independent routes** and
demands they agree:

1. **analytic** -- the paper's closed form, evaluated exactly
   (Theorem 4.1 / Theorem 5.1), with runtime contracts active;
2. **an independent analytic witness** -- a second exact route derived
   differently (the enumerated ``2^n`` sum against the collapsed
   Poisson-binomial form for oblivious algorithms; the ``O(4^n)``
   per-player Theorem 5.1 sum against the collapsed symmetric form for
   thresholds) which must agree *exactly*;
3. **Monte Carlo** -- the simulation engine, reusing the sharded
   executor and (optionally) the fault-tolerance machinery of the
   earlier PRs; the estimate must sit within ``z_threshold`` standard
   errors of the analytic value and its Wilson interval must cover it.

On top of the route comparison each case checks, where applicable:

* the **centralized upper bound** (``n <= 3``): no distributed
  protocol can beat full-information packing, so
  ``analytic <= centralized_feasibility_exact(n, delta)``;
* the **geometry witness** (``n <= 4``): Proposition 2.2's
  inclusion-exclusion volume against the recursive-integration route,
  exactly;
* a clean **contract tally**: the analytic evaluations above run with
  contracts enabled and must record zero violations.

``run_cross_validation`` returns a machine-readable
:class:`AgreementReport`; the CLI serialises it to JSON and maps
``passed=False`` to its own exit code so CI can tell an integrity
regression apart from every other failure.

The *perturbation* knob injects a deliberate error into the analytic
value right before the Monte Carlo comparison.  It exists so the
acceptance test (and a paranoid operator) can confirm the oracle
actually fails when the analytic side is wrong -- a validator that
cannot fail validates nothing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ValidationError
from repro.validation.contracts import use_contracts, violation_count

__all__ = [
    "AgreementReport",
    "CaseReport",
    "OracleCase",
    "default_case_grid",
    "run_cross_validation",
]

#: Largest ``n`` for which the geometry witness (recursive integration)
#: runs; the integration route is exact but exponentially slow to
#: expand, so the oracle caps it.
GEOMETRY_WITNESS_MAX_N = 4


@dataclass(frozen=True)
class OracleCase:
    """One cross-validation case: an algorithm family at ``(n, delta)``.

    *parameter* is the family's free parameter -- ``alpha`` for
    oblivious coins, ``beta`` for single-threshold rules.
    """

    n: int
    delta: Fraction
    algorithm: str  # "oblivious" | "threshold"
    parameter: Fraction

    @property
    def name(self) -> str:
        return (
            f"{self.algorithm}(n={self.n}, delta={self.delta}, "
            f"param={self.parameter})"
        )


@dataclass
class CaseReport:
    """Everything the oracle measured for one case."""

    case: OracleCase
    analytic: Fraction = Fraction(0)
    witness: Fraction = Fraction(0)
    routes_agree: bool = False
    mc_estimate: float = 0.0
    mc_interval: Tuple[float, float] = (0.0, 0.0)
    mc_trials: int = 0
    z_score: float = 0.0
    mc_covered: bool = False
    centralized_bound: Optional[Fraction] = None
    centralized_ok: Optional[bool] = None
    geometry_agree: Optional[bool] = None
    contracts_clean: bool = False
    failures: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict:
        return {
            "case": {
                "n": self.case.n,
                "delta": str(self.case.delta),
                "algorithm": self.case.algorithm,
                "parameter": str(self.case.parameter),
            },
            "analytic": str(self.analytic),
            "analytic_float": float(self.analytic),
            "witness": str(self.witness),
            "routes_agree": self.routes_agree,
            "mc_estimate": self.mc_estimate,
            "mc_interval": list(self.mc_interval),
            "mc_trials": self.mc_trials,
            "z_score": self.z_score,
            "mc_covered": self.mc_covered,
            "centralized_bound": (
                None
                if self.centralized_bound is None
                else str(self.centralized_bound)
            ),
            "centralized_ok": self.centralized_ok,
            "geometry_agree": self.geometry_agree,
            "contracts_clean": self.contracts_clean,
            "passed": self.passed,
            "failures": list(self.failures),
        }


@dataclass
class AgreementReport:
    """The oracle's verdict over a whole case grid."""

    cases: List[CaseReport]
    trials: int
    seed: int
    z_threshold: float
    perturbation: float = 0.0

    @property
    def passed(self) -> bool:
        return all(case.passed for case in self.cases)

    @property
    def failed_cases(self) -> List[CaseReport]:
        return [case for case in self.cases if not case.passed]

    def to_dict(self) -> Dict:
        return {
            "schema_version": 1,
            "passed": self.passed,
            "trials": self.trials,
            "seed": self.seed,
            "z_threshold": self.z_threshold,
            "perturbation": self.perturbation,
            "cases": [case.to_dict() for case in self.cases],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def render(self) -> str:
        """Human-readable one-line-per-case summary."""
        lines = []
        for report in self.cases:
            status = "ok  " if report.passed else "FAIL"
            lines.append(
                f"{status} {report.case.name}: "
                f"analytic={float(report.analytic):.6f} "
                f"mc={report.mc_estimate:.6f} z={report.z_score:+.2f}"
                + (
                    ""
                    if report.passed
                    else " [" + "; ".join(report.failures) + "]"
                )
            )
        verdict = "PASSED" if self.passed else "FAILED"
        lines.append(
            f"{verdict}: {len(self.cases) - len(self.failed_cases)}"
            f"/{len(self.cases)} cases agree "
            f"(trials={self.trials}, z_threshold={self.z_threshold})"
        )
        return "\n".join(lines)


def default_case_grid(
    ns: Sequence[int],
    deltas: Sequence[Fraction],
    algorithms: Sequence[str] = ("oblivious", "threshold"),
) -> List[OracleCase]:
    """The standard grid: fair coin plus optimal symmetric threshold.

    The oblivious parameter is the paper's optimal ``alpha = 1/2``
    (Theorem 4.3); the threshold parameter is the exact optimum of
    Section 5.2, so the oracle exercises the optimiser too.
    """
    from repro.optimize.threshold_opt import optimal_symmetric_threshold

    cases: List[OracleCase] = []
    for n in ns:
        if n < 1:
            raise ValidationError(f"n must be >= 1, got {n}")
        for delta in deltas:
            d = Fraction(delta)
            if d <= 0:
                raise ValidationError(
                    f"delta must be positive, got {d}"
                )
            for algorithm in algorithms:
                if algorithm == "oblivious":
                    parameter = Fraction(1, 2)
                elif algorithm == "threshold":
                    parameter = optimal_symmetric_threshold(n, d).beta
                else:
                    raise ValidationError(
                        f"unknown algorithm {algorithm!r}; expected "
                        "'oblivious' or 'threshold'"
                    )
                cases.append(
                    OracleCase(
                        n=n,
                        delta=d,
                        algorithm=algorithm,
                        parameter=parameter,
                    )
                )
    return cases


def _analytic_routes(case: OracleCase) -> Tuple[Fraction, Fraction]:
    """The closed form and its independent witness, both exact."""
    from repro.core.nonoblivious import (
        symmetric_threshold_winning_probability,
        threshold_winning_probability,
    )
    from repro.core.oblivious import (
        oblivious_winning_probability,
        oblivious_winning_probability_enumerated,
    )

    if case.algorithm == "oblivious":
        alphas = [case.parameter] * case.n
        return (
            oblivious_winning_probability(case.delta, alphas),
            oblivious_winning_probability_enumerated(case.delta, alphas),
        )
    if case.algorithm == "threshold":
        return (
            symmetric_threshold_winning_probability(
                case.parameter, case.n, case.delta
            ),
            threshold_winning_probability(
                case.delta, [case.parameter] * case.n
            ),
        )
    raise ValidationError(
        f"unknown algorithm {case.algorithm!r}; expected "
        "'oblivious' or 'threshold'"
    )


def _build_system(case: OracleCase):
    from repro.model.algorithms import ObliviousCoin, SingleThresholdRule
    from repro.model.system import DistributedSystem

    if case.algorithm == "oblivious":
        algs = [ObliviousCoin(case.parameter) for _ in range(case.n)]
    else:
        algs = [
            SingleThresholdRule(case.parameter) for _ in range(case.n)
        ]
    return DistributedSystem(algs, case.delta)


def _geometry_agrees(case: OracleCase) -> bool:
    """Whether Proposition 2.2 and the integration witness agree on the
    simplex/box pair underlying ``P(sum x_i <= delta)`` with unit
    boxes: ``sigma = (delta, ..., delta)``, ``pi = (1, ..., 1)``.
    """
    from repro.geometry.volume import (
        intersection_volume,
        intersection_volume_by_integration,
    )

    sigma = [case.delta] * case.n
    pi = [Fraction(1)] * case.n
    return intersection_volume(
        sigma, pi
    ) == intersection_volume_by_integration(sigma, pi)


def _case_z_score(
    estimate: float, analytic: float, trials: int
) -> float:
    """Standardised deviation of the MC estimate from the analytic value.

    ``z = (p_hat - p) / sqrt(p (1 - p) / trials)`` with the analytic
    *p* as the null; degenerate ``p in {0, 1}`` has zero variance, so
    any deviation at all is infinitely significant.
    """
    variance = analytic * (1.0 - analytic) / trials
    deviation = estimate - analytic
    if variance <= 0.0:
        return 0.0 if deviation == 0.0 else math.inf
    return deviation / math.sqrt(variance)


def run_cross_validation(
    cases: Sequence[OracleCase],
    trials: int = 20_000,
    seed: int = 0,
    workers: Optional[int] = None,
    z_threshold: float = 3.89,
    perturbation: float = 0.0,
    fault_tolerance=None,
) -> AgreementReport:
    """Run every case through the three routes and compare.

    *z_threshold* matches the repo-wide Wilson default (3.89, the
    ~=99.99% two-sided point): at 20 000 trials and a handful of cases,
    a false alarm is a once-in-many-thousands-of-runs event while a
    perturbation of a few percent is tens of standard errors away.

    *perturbation* is added to the analytic value before the Monte
    Carlo comparison -- the deliberate-bug injection used to prove the
    oracle can fail (see module docstring).  *workers* and
    *fault_tolerance* pass straight to
    :meth:`~repro.simulation.engine.MonteCarloEngine.estimate_winning_probability`.
    """
    from repro.baselines.exact_centralized import (
        centralized_feasibility_exact,
    )
    from repro.simulation.engine import MonteCarloEngine

    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if not cases:
        raise ValidationError("need at least one oracle case")

    engine = MonteCarloEngine(seed=seed)
    reports: List[CaseReport] = []
    for index, case in enumerate(cases):
        report = CaseReport(case=case)

        with use_contracts(strict=False):
            analytic, witness = _analytic_routes(case)
            report.analytic = analytic
            report.witness = witness
            report.routes_agree = analytic == witness
            if not report.routes_agree:
                report.failures.append(
                    f"analytic routes disagree: {analytic} != {witness}"
                )

            if case.n <= 3:
                bound = centralized_feasibility_exact(case.n, case.delta)
                report.centralized_bound = bound
                report.centralized_ok = analytic <= bound
                if not report.centralized_ok:
                    report.failures.append(
                        f"analytic value {analytic} exceeds the "
                        f"centralized bound {bound}"
                    )

            if case.n <= GEOMETRY_WITNESS_MAX_N:
                report.geometry_agree = _geometry_agrees(case)
                if not report.geometry_agree:
                    report.failures.append(
                        "Proposition 2.2 volume disagrees with the "
                        "integration witness"
                    )

            report.contracts_clean = violation_count() == 0
            if not report.contracts_clean:
                report.failures.append(
                    f"{violation_count()} contract violation(s) during "
                    "analytic evaluation"
                )

        compare_to = float(analytic) + perturbation
        summary = engine.estimate_winning_probability(
            _build_system(case),
            trials=trials,
            stream=f"oracle-case-{index}",
            z_score=z_threshold,
            workers=workers,
            fault_tolerance=fault_tolerance,
        )
        report.mc_estimate = summary.estimate
        report.mc_interval = summary.interval
        report.mc_trials = trials
        report.z_score = _case_z_score(
            summary.estimate, compare_to, trials
        )
        report.mc_covered = summary.covers(compare_to)
        if abs(report.z_score) > z_threshold:
            report.failures.append(
                f"Monte Carlo estimate {summary.estimate:.6f} is "
                f"{report.z_score:+.2f} standard errors from the "
                f"analytic value (threshold {z_threshold})"
            )
        elif not report.mc_covered:
            report.failures.append(
                f"Wilson interval {summary.interval} does not cover "
                f"the analytic value {compare_to:.6f}"
            )
        reports.append(report)

    return AgreementReport(
        cases=reports,
        trials=trials,
        seed=seed,
        z_threshold=z_threshold,
        perturbation=perturbation,
    )
