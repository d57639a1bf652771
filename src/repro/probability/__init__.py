"""Probability substrate: Section 2.2 of the paper.

Exact distribution functions for sums of independent uniform random
variables, derived from the geometric volume formula of Proposition 2.2:

* :mod:`repro.probability.inclusion_exclusion` -- generic alternating
  subset-sum machinery with the paper's strict-condition convention.
* :mod:`repro.probability.uniform_sums` -- Lemma 2.4 (CDF of a sum of
  uniforms on ``[0, pi_i]``), Lemma 2.5 (its density, answering Rota's
  research problem), Corollary 2.6 (Irwin-Hall), Lemma 2.7 (uniforms on
  ``[pi_i, 1]``), and the joint "sum below t AND every input inside its
  threshold interval" probabilities consumed by Theorem 5.1.
* :mod:`repro.probability.distributions` -- object wrappers for uniform
  random variables and their sums, with sampling for validation.
* :mod:`repro.probability.asymptotics` -- normal / Edgeworth
  approximations with rigorous Berry-Esseen-style error bounds, for
  the large-``m`` regime the exact kernels cannot reach.
* :mod:`repro.probability.regimes` -- per-query dispatch among the
  exact, certified-float and asymptotic tiers, returning values
  tagged with their regime and guaranteed error.
"""

from repro.probability.asymptotics import (
    AsymptoticQuantile,
    irwin_hall_cdf_asymptotic,
    irwin_hall_quantile_asymptotic,
    sum_uniform_cdf_asymptotic,
)
from repro.probability.distributions import SumOfUniforms, Uniform
from repro.probability.regimes import (
    DEFAULT_POLICY,
    RegimePolicy,
    irwin_hall_cdf_regime,
)
from repro.probability.moments import (
    chebyshev_overflow_bound,
    expected_overflow_single_bin,
    hoeffding_overflow_bound,
    irwin_hall_moment,
    sum_uniform_central_moment,
    sum_uniform_moment,
    uniform_moment,
)
from repro.probability.inclusion_exclusion import (
    alternating_subset_sum,
    alternating_symmetric_sum,
)
from repro.probability.uniform_sums import (
    irwin_hall_cdf,
    joint_sum_below_and_inside_boxes,
    irwin_hall_pdf,
    joint_sum_below_and_inside_low,
    joint_sum_below_and_inside_high,
    sum_uniform_cdf,
    sum_uniform_pdf,
    sum_uniform_tail_cdf,
)

__all__ = [
    "AsymptoticQuantile",
    "DEFAULT_POLICY",
    "RegimePolicy",
    "SumOfUniforms",
    "Uniform",
    "alternating_subset_sum",
    "irwin_hall_cdf_asymptotic",
    "irwin_hall_cdf_regime",
    "irwin_hall_quantile_asymptotic",
    "sum_uniform_cdf_asymptotic",
    "chebyshev_overflow_bound",
    "expected_overflow_single_bin",
    "hoeffding_overflow_bound",
    "irwin_hall_moment",
    "sum_uniform_central_moment",
    "sum_uniform_moment",
    "uniform_moment",
    "alternating_symmetric_sum",
    "irwin_hall_cdf",
    "joint_sum_below_and_inside_boxes",
    "irwin_hall_pdf",
    "joint_sum_below_and_inside_high",
    "joint_sum_below_and_inside_low",
    "sum_uniform_cdf",
    "sum_uniform_pdf",
    "sum_uniform_tail_cdf",
]
