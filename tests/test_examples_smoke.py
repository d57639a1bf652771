"""Smoke tests: the example scripts run and print their headlines.

Only the fast examples run in the suite (the slower ones are exercised
manually and by the benchmark harness, which covers the same code
paths); each is executed in-process with its ``main()`` so failures
give real tracebacks.  Every example, fast or slow, is also imported
without running by ``tests/test_docs_consistency.py::TestExamples``.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    """Execute an example's main() and return its stdout."""
    script = EXAMPLES / name
    assert script.exists(), f"missing example {script}"
    namespace = runpy.run_path(str(script), run_name="not_main")
    namespace["main"]()
    return capsys.readouterr().out


class TestQuickstart:
    def test_runs_and_reports_paper_numbers(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "optimal threshold beta* = 0.622036" in out
        assert "0.544631" in out
        assert "0.416667" in out


class TestOptimalThresholds:
    def test_runs_all_three_cases(self, capsys):
        out = run_example("optimal_thresholds.py", capsys)
        assert "Case n=3, delta=1" in out
        assert "Case n=4, delta=4/3" in out
        assert "Case n=5, delta=5/3" in out
        assert "discrepancy D2" in out  # the n=4 note
        assert "Uniformity" in out


class TestMixtureContinuum:
    def test_reports_interior_optimum(self, capsys):
        out = run_example("mixture_continuum.py", capsys)
        assert "interior mixture strictly beats BOTH" in out
        assert "pure threshold is already optimal" in out


class TestRotaDensity:
    @pytest.mark.slow
    def test_runs(self, capsys):
        out = run_example("rota_density.py", capsys)
        assert "Exact densities via Lemma 2.5" in out
        assert "SUSPICIOUS" not in out

