"""Baseline protocols for comparison experiments.

The paper's headline comparisons are between the optimal oblivious and
optimal non-oblivious algorithms (:mod:`repro.core.oblivious`,
:mod:`repro.optimize.threshold_opt`); the baselines here bound what
communication could add on top of them:

* :mod:`repro.baselines.centralized` -- the full-information upper
  bound: with all inputs visible, win whenever *any* bin assignment
  avoids overflow.  No distributed no-communication protocol can beat
  it, which makes it the yardstick for the value of communication.
* :mod:`repro.baselines.exact_centralized` -- the same bound in closed
  form for ``n <= 3``, the exact witness of the ``repro check`` oracle.
"""

from repro.baselines.centralized import (
    best_possible_win,
    centralized_winning_probability,
    OmniscientPacker,
)

__all__ = [
    "OmniscientPacker",
    "best_possible_win",
    "centralized_winning_probability",
]
