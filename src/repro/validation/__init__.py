"""Result-integrity subsystem: contracts, cross-validation, fast paths.

Three layers of defence against silently wrong numbers:

* :mod:`~repro.validation.contracts` -- cheap runtime invariant checks
  (probabilities in ``[0, 1]``, CDF monotonicity, volume
  subadditivity, ``alpha <-> 1 - alpha`` symmetry) wrapping the public
  entry points of ``probability``, ``geometry``, ``core``,
  ``optimize`` and ``simulation``.  Off by default (a single branch
  per call site, mirroring the observability layer); violations are
  counted through the active :class:`~repro.observability.MetricsRegistry`
  and raise :class:`~repro.errors.ContractViolation` in strict mode.
* :mod:`~repro.validation.fastpath` -- compensated (Neumaier) float
  evaluation of the alternating inclusion-exclusion series with a
  running error bound; a result is returned only when the bound
  certifies it, otherwise callers fall back to the exact ``Fraction``
  path (the fallback is counted in the metrics).
* :mod:`~repro.validation.oracle` -- the analytic <-> Monte Carlo <->
  exact-centralized cross-validation oracle behind ``repro check``:
  for every case it runs two independent analytic routes, the sharded
  Monte Carlo engine, the geometry witness and the guarded fast path
  against each other and produces a machine-readable agreement report
  with per-case z-scores and a pass/fail verdict.

``contracts`` and ``fastpath`` sit *below* the numeric layers (they
import nothing but ``repro.errors`` and ``repro.observability``) so
``probability``/``geometry``/``core`` can call into them; ``oracle``
sits *above* everything and is therefore imported lazily here to keep
``import repro.validation.contracts`` cycle-free from low layers.
"""

from __future__ import annotations

from repro.validation.contracts import (
    check_cdf_profile,
    check_probability,
    check_symmetry,
    check_volume_subadditive,
    contracts_enabled,
    contracts_strict,
    disable_contracts,
    enable_contracts,
    use_contracts,
    violation_count,
)
from repro.validation.fastpath import (
    Enclosure,
    certified_alternating_sum,
    neumaier_sum,
)

__all__ = [
    "AgreementReport",
    "AsymptoticAgreementReport",
    "AsymptoticCaseReport",
    "CaseReport",
    "Enclosure",
    "OracleCase",
    "default_asymptotic_grid",
    "run_asymptotic_agreement",
    "certified_alternating_sum",
    "check_cdf_profile",
    "check_probability",
    "check_symmetry",
    "check_volume_subadditive",
    "contracts_enabled",
    "contracts_strict",
    "default_case_grid",
    "disable_contracts",
    "enable_contracts",
    "neumaier_sum",
    "run_cross_validation",
    "use_contracts",
    "violation_count",
]

_ORACLE_EXPORTS = {
    "AgreementReport",
    "CaseReport",
    "OracleCase",
    "default_case_grid",
    "run_cross_validation",
}

_ASYMPTOTIC_EXPORTS = {
    "AsymptoticAgreementReport",
    "AsymptoticCaseReport",
    "default_asymptotic_grid",
    "run_asymptotic_agreement",
}


def __getattr__(name: str):
    # Lazy: repro.validation.oracle and .asymptotic_grid import
    # core/simulation, which import probability, which imports
    # repro.validation.contracts -- an eager import here would close
    # that cycle.
    if name in _ORACLE_EXPORTS:
        from repro.validation import oracle

        return getattr(oracle, name)
    if name in _ASYMPTOTIC_EXPORTS:
        from repro.validation import asymptotic_grid

        return getattr(asymptotic_grid, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )
