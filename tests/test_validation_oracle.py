"""Tests for the cross-validation oracle and ``repro check``.

The acceptance property: the oracle passes on a healthy grid, and a
seeded, deliberately injected analytic perturbation makes ``repro
check`` exit with the dedicated integrity code (6) -- a validator that
cannot fail validates nothing.
"""

import json
from fractions import Fraction

import pytest

from repro.cli import EXIT_INTEGRITY_MISMATCH, main
from repro.errors import ValidationError
from repro.validation import (
    OracleCase,
    default_case_grid,
    run_cross_validation,
)

TRIALS = 4_000  # s.e. ~ 0.008: cheap, yet a 0.05 perturbation is ~ 6 s.e.


class TestCaseGrid:
    def test_default_grid_shape(self):
        cases = default_case_grid([2, 3], [Fraction(1), Fraction(4, 3)])
        assert len(cases) == 8  # 2 ns x 2 deltas x 2 algorithms
        oblivious = [c for c in cases if c.algorithm == "oblivious"]
        assert all(c.parameter == Fraction(1, 2) for c in oblivious)
        thresholds = [c for c in cases if c.algorithm == "threshold"]
        assert all(0 < c.parameter < 1 for c in thresholds)

    def test_grid_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            default_case_grid([0], [Fraction(1)])
        with pytest.raises(ValidationError):
            default_case_grid([2], [Fraction(0)])
        with pytest.raises(ValidationError):
            default_case_grid([2], [Fraction(1)], algorithms=["magic"])


class TestRunCrossValidation:
    def test_healthy_grid_passes(self):
        cases = default_case_grid([2, 3], [Fraction(1)])
        report = run_cross_validation(cases, trials=TRIALS, seed=0)
        assert report.passed
        for case_report in report.cases:
            assert case_report.routes_agree
            assert case_report.mc_covered
            assert case_report.contracts_clean
            assert abs(case_report.z_score) <= report.z_threshold
            # n <= 3 here, so both optional checks ran.
            assert case_report.centralized_ok is True
            assert case_report.geometry_agree is True

    def test_perturbation_fails(self):
        cases = default_case_grid([2], [Fraction(1)])
        report = run_cross_validation(
            cases, trials=TRIALS, seed=0, perturbation=0.05
        )
        assert not report.passed
        for failed in report.failed_cases:
            assert any(
                "standard errors" in f or "does not cover" in f
                for f in failed.failures
            )

    def test_deterministic_for_fixed_seed(self):
        cases = default_case_grid([2], [Fraction(1)])
        a = run_cross_validation(cases, trials=TRIALS, seed=42)
        b = run_cross_validation(cases, trials=TRIALS, seed=42)
        assert a.to_dict() == b.to_dict()

    def test_sharded_mc_matches_serial(self):
        # The oracle reuses the sharded executor: same seed, same
        # estimate regardless of worker count.
        cases = [
            OracleCase(
                n=3,
                delta=Fraction(1),
                algorithm="oblivious",
                parameter=Fraction(1, 2),
            )
        ]
        sharded = run_cross_validation(
            cases, trials=TRIALS, seed=7, workers=2
        )
        again = run_cross_validation(
            cases, trials=TRIALS, seed=7, workers=1
        )
        assert (
            sharded.cases[0].mc_estimate == again.cases[0].mc_estimate
        )

    def test_report_serialisation(self):
        cases = default_case_grid([2], [Fraction(1)])
        report = run_cross_validation(cases, trials=TRIALS, seed=0)
        payload = json.loads(report.to_json())
        assert payload["schema_version"] == 1
        assert payload["passed"] is True
        assert len(payload["cases"]) == len(cases)
        first = payload["cases"][0]
        assert Fraction(first["analytic"]) == report.cases[0].analytic
        assert first["case"]["algorithm"] in ("oblivious", "threshold")
        assert first["geometry_agree"] is True
        assert "fastpath_ok" not in first
        rendered = report.render()
        assert "PASSED" in rendered

    def test_rejects_empty_and_bad_trials(self):
        with pytest.raises(ValidationError):
            run_cross_validation([], trials=TRIALS)
        cases = default_case_grid([2], [Fraction(1)])
        with pytest.raises(ValidationError):
            run_cross_validation(cases, trials=0)


class TestCheckCommand:
    def test_check_passes(self, capsys):
        code = main(
            [
                "check",
                "--ns", "2", "3",
                "--deltas", "1",
                "--trials", str(TRIALS),
                "--seed", "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PASSED" in out

    def test_injected_error_exits_with_integrity_code(self, capsys):
        code = main(
            [
                "check",
                "--ns", "2",
                "--deltas", "1",
                "--algorithms", "oblivious",
                "--trials", str(TRIALS),
                "--seed", "0",
                "--inject-analytic-error", "0.05",
            ]
        )
        assert code == EXIT_INTEGRITY_MISMATCH
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "INTEGRITY CHECK FAILED" in captured.err

    def test_strict_mode_passes_on_healthy_grid(self, capsys):
        code = main(
            [
                "check",
                "--ns", "2",
                "--deltas", "1",
                "--trials", str(TRIALS),
                "--strict",
            ]
        )
        assert code == 0

    def test_report_out(self, tmp_path, capsys):
        report_path = tmp_path / "agreement.json"
        code = main(
            [
                "check",
                "--ns", "2",
                "--deltas", "1",
                "--trials", str(TRIALS),
                "--report-out", str(report_path),
            ]
        )
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["passed"] is True
        assert payload["trials"] == TRIALS

    def test_bad_argument_exits_2(self, capsys):
        code = main(
            ["check", "--ns", "0", "--deltas", "1", "--trials", "100"]
        )
        assert code == 2
        assert "invalid request" in capsys.readouterr().err

    def test_profile_reports_oracle_metrics(self, capsys):
        code = main(
            [
                "check",
                "--ns", "2",
                "--deltas", "1",
                "--trials", str(TRIALS),
                "--profile",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        # The oracle's Monte Carlo counters surface in the report.
        assert "engine.trials" in err
