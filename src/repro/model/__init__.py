"""The distributed decision-making model of Section 3.

* :mod:`repro.model.agents` -- players and the decision-algorithm
  interface (deterministic or randomized, oblivious or not).
* :mod:`repro.model.algorithms` -- the concrete algorithm families the
  paper studies: oblivious coins, single-threshold rules, plus the
  general interval and callable rules the framework allows.
* :mod:`repro.model.communication` -- communication patterns.  The paper
  settles the *no communication* case; the pattern abstraction exists
  so the framework matches the paper's general model (Section 3.1) and
  its discussion of extensions.
* :mod:`repro.model.system` -- the distributed system: inputs to
  decisions to bin loads to the win/overflow verdict.
"""

from repro.model.agents import DecisionAlgorithm, Player
from repro.model.algorithms import (
    CallableRule,
    IntervalRule,
    ObliviousCoin,
    SingleThresholdRule,
)
from repro.model.inputs import (
    BetaInputs,
    InputDistribution,
    MixtureInputs,
    ScaledUniformInputs,
    UniformInputs,
)
from repro.model.communication import (
    CommunicationPattern,
    FullInformation,
    GraphPattern,
    NoCommunication,
)
from repro.model.system import DistributedSystem, Outcome

__all__ = [
    "BetaInputs",
    "CallableRule",
    "InputDistribution",
    "MixtureInputs",
    "ScaledUniformInputs",
    "UniformInputs",
    "CommunicationPattern",
    "DecisionAlgorithm",
    "DistributedSystem",
    "FullInformation",
    "GraphPattern",
    "IntervalRule",
    "NoCommunication",
    "ObliviousCoin",
    "Outcome",
    "Player",
    "SingleThresholdRule",
]
