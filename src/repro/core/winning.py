"""A single front-end for exact winning probabilities.

Given the list of per-player decision algorithms and the bin capacity,
dispatch to the exact formula that covers them:

* all :class:`~repro.model.algorithms.ObliviousCoin` -- Theorem 4.1;
* all :class:`~repro.model.algorithms.SingleThresholdRule` --
  Theorem 5.1;
* a mixture of the two -- a conditioning argument reduces to
  Theorem 5.1 evaluations (an oblivious coin with parameter ``alpha``
  behaves, for the purposes of the two bin sums, like averaging over
  the player being *forced* to 0 or 1; forcing to a bin with a full
  U[0, 1] input is the threshold rule with ``a = 1`` resp. ``a = 0``).

Two extension families added by this reproduction also dispatch to
exact evaluators:

* :class:`~repro.model.algorithms.IntervalRule` -- the step-function
  generalisation (``repro.core.interval_rules``);
* :class:`~repro.core.randomized.RandomizedThresholdRule` -- the
  coin/threshold mixtures (``repro.core.randomized``).

Mixing across *all four* families is supported by conditioning the
random components down to deterministic interval rules.  Only
:class:`~repro.model.algorithms.CallableRule` and communicating
algorithms fall outside the exact surface; use the Monte Carlo engine
in :mod:`repro.simulation` for those.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import List, Sequence

from repro.core.nonoblivious import threshold_winning_probability
from repro.core.oblivious import oblivious_winning_probability
from repro.errors import ValidationError
from repro.model.agents import DecisionAlgorithm
from repro.model.algorithms import (
    IntervalRule,
    ObliviousCoin,
    SingleThresholdRule,
)
from repro.symbolic.rational import RationalLike, as_fraction
from repro.validation.contracts import check_probability

__all__ = ["exact_winning_probability", "winning_probability"]


def exact_winning_probability(
    algorithms: Sequence[DecisionAlgorithm], capacity: RationalLike
) -> Fraction:
    """Exact winning probability for a supported algorithm profile.

    Raises :class:`NotImplementedError` for profiles outside the
    exactly-solvable families (use Monte Carlo for those).
    """
    from repro.core.randomized import RandomizedThresholdRule

    algs = list(algorithms)
    if not algs:
        raise ValidationError("need at least one player")
    delta = as_fraction(capacity)

    if all(isinstance(a, ObliviousCoin) for a in algs):
        return oblivious_winning_probability(
            delta, [a.alpha for a in algs]
        )
    if all(isinstance(a, SingleThresholdRule) for a in algs):
        return threshold_winning_probability(
            delta, [a.threshold for a in algs]
        )
    if all(isinstance(a, (ObliviousCoin, SingleThresholdRule)) for a in algs):
        return _mixed_profile(algs, delta)
    supported = (
        ObliviousCoin,
        SingleThresholdRule,
        IntervalRule,
        RandomizedThresholdRule,
    )
    if all(isinstance(a, supported) for a in algs):
        return _general_profile(algs, delta)
    unsupported = sorted(
        {
            type(a).__name__
            for a in algs
            if not isinstance(a, supported)
        }
    )
    raise NotImplementedError(
        f"no closed form for algorithm types {unsupported}; "
        "use repro.simulation.MonteCarloEngine"
    )


def _general_profile(
    algs: Sequence[DecisionAlgorithm], delta: Fraction
) -> Fraction:
    """Profiles mixing all four exact families.

    Each random component (coin, or the coin branch of a randomized
    threshold) is conditioned on its outcome, leaving a purely
    deterministic profile of interval rules evaluated by the
    interval-rule formula.  The expansion is a product over the random
    players of at most three branches each.
    """
    from repro.core.interval_rules import (
        interval_rule_winning_probability,
        single_threshold_as_interval_rule,
    )
    from repro.core.randomized import RandomizedThresholdRule

    # Per player: list of (probability, deterministic IntervalRule).
    branch_sets: List[List] = []
    for a in algs:
        if isinstance(a, IntervalRule):
            branch_sets.append([(Fraction(1), a)])
        elif isinstance(a, SingleThresholdRule):
            branch_sets.append(
                [(Fraction(1), single_threshold_as_interval_rule(a.threshold))]
            )
        elif isinstance(a, RandomizedThresholdRule):
            branches = []
            if a.p > 0:
                branches.append(
                    (a.p, single_threshold_as_interval_rule(a.threshold))
                )
            forced0 = (1 - a.p) * a.alpha
            if forced0 > 0:
                branches.append(
                    (forced0, single_threshold_as_interval_rule(1))
                )
            forced1 = (1 - a.p) * (1 - a.alpha)
            if forced1 > 0:
                branches.append(
                    (forced1, single_threshold_as_interval_rule(0))
                )
            branch_sets.append(branches)
        elif isinstance(a, ObliviousCoin):
            branches = []
            if a.alpha > 0:
                branches.append(
                    (a.alpha, single_threshold_as_interval_rule(1))
                )
            if a.alpha < 1:
                branches.append(
                    (1 - a.alpha, single_threshold_as_interval_rule(0))
                )
            branch_sets.append(branches)
        else:  # pragma: no cover - guarded by the caller
            raise NotImplementedError(type(a).__name__)

    total = Fraction(0)
    for assignment in product(*branch_sets):
        weight = Fraction(1)
        rules = []
        for probability, rule in assignment:
            weight *= probability
            rules.append(rule)
        if weight == 0:
            continue
        total += weight * interval_rule_winning_probability(delta, rules)
    return check_probability("exact_winning_probability.general", total)


def _mixed_profile(
    algs: Sequence[DecisionAlgorithm], delta: Fraction
) -> Fraction:
    """Profiles mixing coins and thresholds, by conditioning on the coins.

    For each assignment of the coin players' output bits ``c``, the
    winning probability is a pure threshold profile: a coin player
    forced to output 0 contributes its full U[0, 1] input to bin 0,
    i.e. behaves as ``SingleThresholdRule(1)``; forced to 1 it behaves
    as ``SingleThresholdRule(0)``.  Weight by the coin probabilities.
    """
    coin_positions = [
        i for i, a in enumerate(algs) if isinstance(a, ObliviousCoin)
    ]
    base_thresholds = [
        a.threshold if isinstance(a, SingleThresholdRule) else None
        for a in algs
    ]
    total = Fraction(0)
    for bits in product((0, 1), repeat=len(coin_positions)):
        weight = Fraction(1)
        thresholds = list(base_thresholds)
        for pos, bit in zip(coin_positions, bits):
            coin = algs[pos]
            assert isinstance(coin, ObliviousCoin)
            weight *= coin.alpha if bit == 0 else 1 - coin.alpha
            thresholds[pos] = Fraction(1) if bit == 0 else Fraction(0)
        if weight == 0:
            continue
        total += weight * threshold_winning_probability(delta, thresholds)
    return check_probability("exact_winning_probability.mixed", total)


def winning_probability(
    algorithms: Sequence[DecisionAlgorithm],
    capacity: RationalLike,
    policy=None,
):
    """Regime-dispatched winning probability: exact when affordable,
    certified-asymptotic when not.

    Returns a :class:`~repro.validation.enclosure.Enclosure`.  For
    ``n <= policy.exact_max_n`` this is :func:`exact_winning_probability`
    wrapped with its (float-conversion-only) error bound and the exact
    ``Fraction`` attached.  Beyond that, the two symmetric families --
    every player the same :class:`SingleThresholdRule`, or every player
    the same :class:`ObliviousCoin` -- dispatch to the large-``n``
    binomial-mixture engine of :mod:`repro.core.asymptotic`, which
    scales to ``n = 10**6`` and past it.  Asymmetric large-``n``
    profiles have no asymptotic evaluator and raise
    :class:`NotImplementedError` (use Monte Carlo).
    """
    from repro.core.asymptotic import (
        symmetric_oblivious_winning_regime,
        symmetric_threshold_winning_regime,
    )
    from repro.probability.regimes import DEFAULT_POLICY
    from repro.validation.enclosure import Enclosure

    if policy is None:
        policy = DEFAULT_POLICY
    algs = list(algorithms)
    if not algs:
        raise ValidationError("need at least one player")
    n = len(algs)
    delta = as_fraction(capacity)
    if n <= policy.exact_max_n:
        return Enclosure.of_fraction(
            exact_winning_probability(algs, delta), "inclusion-exclusion"
        )
    if all(isinstance(a, SingleThresholdRule) for a in algs):
        thresholds = {as_fraction(a.threshold) for a in algs}
        if len(thresholds) == 1:
            return symmetric_threshold_winning_regime(
                thresholds.pop(), n, delta, policy
            )
    elif all(isinstance(a, ObliviousCoin) for a in algs):
        alphas = {as_fraction(a.alpha) for a in algs}
        if len(alphas) == 1:
            return symmetric_oblivious_winning_regime(
                alphas.pop(), n, delta, policy
            )
    raise NotImplementedError(
        f"n={n} exceeds the exact tier (policy.exact_max_n="
        f"{policy.exact_max_n}) and the asymptotic tier only covers "
        "symmetric threshold/oblivious profiles; use "
        "repro.simulation.MonteCarloEngine"
    )
