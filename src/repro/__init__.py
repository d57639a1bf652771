"""repro -- Optimal, Distributed Decision-Making: The Case of No Communication.

A complete, exact-arithmetic reproduction of Georgiades, Mavronicolas &
Spirakis (FCT 1999): ``n`` players each receive a private uniform input
and, with no communication, choose one of two bins of capacity
``delta``; the goal is to maximise the probability that neither bin
overflows.

Top-level convenience re-exports cover the quickstart path; the
subpackages hold the full API:

* :mod:`repro.symbolic` -- exact polynomials, root isolation, piecewise
  functions;
* :mod:`repro.geometry` -- the simplex/box polytopes and the
  inclusion-exclusion volume of Proposition 2.2;
* :mod:`repro.probability` -- exact CDFs/PDFs for sums of uniforms
  (Lemmas 2.4-2.7, Irwin-Hall);
* :mod:`repro.model` -- players, decision rules, communication
  patterns, the distributed system;
* :mod:`repro.core` -- the winning-probability theorems (4.1, 5.1) and
  optimality conditions;
* :mod:`repro.optimize` -- exact and numeric optimisers;
* :mod:`repro.simulation` -- the Monte Carlo validation testbed;
* :mod:`repro.validation` -- runtime contracts, the analytic/MC
  cross-validation oracle, and the ``Enclosure`` every tier answers
  with;
* :mod:`repro.baselines` -- comparison protocols;
* :mod:`repro.experiments` -- regeneration of every figure and table.
"""

from repro.core.nonoblivious import (
    symmetric_threshold_winning_polynomial,
    symmetric_threshold_winning_probability,
    threshold_winning_probability,
)
from repro.core.oblivious import (
    oblivious_winning_probability,
    optimal_oblivious_winning_probability,
)
from repro.core.winning import exact_winning_probability
from repro.errors import (
    ContractViolation,
    ReproError,
    ValidationError,
)
from repro.model.algorithms import ObliviousCoin, SingleThresholdRule
from repro.model.system import DistributedSystem, Outcome
from repro.optimize.oblivious_opt import solve_oblivious_optimum
from repro.optimize.threshold_opt import optimal_symmetric_threshold
from repro.simulation.engine import MonteCarloEngine

__version__ = "1.0.0"

__all__ = [
    "ContractViolation",
    "DistributedSystem",
    "MonteCarloEngine",
    "ObliviousCoin",
    "Outcome",
    "ReproError",
    "SingleThresholdRule",
    "ValidationError",
    "__version__",
    "exact_winning_probability",
    "oblivious_winning_probability",
    "optimal_oblivious_winning_probability",
    "optimal_symmetric_threshold",
    "solve_oblivious_optimum",
    "symmetric_threshold_winning_polynomial",
    "symmetric_threshold_winning_probability",
    "threshold_winning_probability",
]
