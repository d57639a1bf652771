"""Docs-vs-code consistency: the numbers quoted in the documentation
must match what the library computes.

EXPERIMENTS.md and README.md quote headline values; these tests parse
the claims out of the prose and recompute them, so documentation rot
fails CI instead of misleading readers.
"""

import re
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    path = ROOT / name
    assert path.exists(), f"missing {name}"
    return path.read_text()


class TestExperimentsMd:
    @pytest.fixture(scope="class")
    def text(self):
        return read("EXPERIMENTS.md")

    def test_quotes_the_exact_optimal_threshold(self, text):
        from repro.optimize.threshold_opt import (
            optimal_symmetric_threshold,
        )

        opt = optimal_symmetric_threshold(3, 1)
        quoted = "0.6220355269"
        assert quoted in text
        # compare at the quoted precision (truncation, not rounding)
        assert f"{float(opt.beta):.12f}".startswith(quoted)

    def test_quotes_the_oblivious_fraction(self, text):
        assert "5/12" in text
        from repro.core.oblivious import (
            optimal_oblivious_winning_probability,
        )

        assert optimal_oblivious_winning_probability(1, 3) == Fraction(5, 12)

    def test_d2_values_match(self, text):
        assert "559/1296" in text
        from repro.core.oblivious import (
            optimal_oblivious_winning_probability,
        )

        assert optimal_oblivious_winning_probability(
            Fraction(4, 3), 4
        ) == Fraction(559, 1296)

    def test_e8_mixture_numbers_match(self, text):
        assert "0.549144" in text, "E8 p* not quoted in EXPERIMENTS.md"
        match = re.search(r"(0\.549144)", text)
        from repro.core.randomized import best_symmetric_mixture_exact
        from repro.optimize.threshold_opt import (
            optimal_symmetric_threshold,
        )

        beta = optimal_symmetric_threshold(4, Fraction(4, 3)).beta
        p_star, _ = best_symmetric_mixture_exact(4, Fraction(4, 3), beta)
        assert abs(float(p_star) - float(match.group(1))) < 1e-3

    def test_e10_crossover_matches(self, text):
        assert "1.32312" in text or "1.3231" in text
        from repro.experiments.sensitivity import (
            find_improvement_crossover,
        )

        x = find_improvement_crossover(
            4, 1, Fraction(4, 3), Fraction(1, 10**4)
        )
        assert abs(float(x) - 1.3231) < 1e-3

    def test_uniformity_table_rows_match(self, text):
        from repro.core.oblivious import (
            optimal_oblivious_winning_probability,
        )

        for n, quoted in (
            (4, "0.182292"),
            (5, "0.065625"),
            (6, "0.020052"),
        ):
            assert quoted in text
            value = float(optimal_oblivious_winning_probability(1, n))
            assert f"{value:.6f}" == quoted


class TestReadme:
    @pytest.fixture(scope="class")
    def text(self):
        return read("README.md")

    def test_quickstart_numbers_are_current(self, text):
        from repro.optimize.threshold_opt import (
            optimal_symmetric_threshold,
        )

        opt = optimal_symmetric_threshold(3, 1)
        assert "0.62204" in text
        assert f"{float(opt.beta):.5f}" == "0.62204"
        assert "0.54463" in text
        assert f"{float(opt.probability):.5f}" == "0.54463"

    def test_example_scripts_exist(self, text):
        for match in re.finditer(r"`examples/([a-z_]+\.py)`", text):
            assert (ROOT / "examples" / match.group(1)).exists(), (
                f"README references missing example {match.group(1)}"
            )

    def test_bench_files_exist(self, text):
        for match in re.finditer(
            r"`benchmarks/(test_bench_[a-z0-9_]+\.py)`", text
        ):
            assert (ROOT / "benchmarks" / match.group(1)).exists()


class TestDesignMd:
    def test_module_inventory_is_real(self):
        text = read("DESIGN.md")
        # every module named in the layout block must exist
        for match in re.finditer(r"([a-z_]+\.py)", text):
            name = match.group(1)
            hits = (
                list((ROOT / "src").rglob(name))
                + list((ROOT / "benchmarks").glob(name))
                + list((ROOT / "tests").glob(name))
                + list((ROOT / "examples").glob(name))
                + [ROOT / name]
            )
            assert any(p.exists() for p in hits), (
                f"DESIGN.md names {name} but it does not exist"
            )


class TestVerifySkill:
    def test_command_list_matches_the_command_table(self):
        from repro.cli import _COMMANDS

        text = read(".claude/skills/verify/SKILL.md")
        listed = re.search(r"Commands:(.*?)\. Exit code", text, re.DOTALL)
        assert listed, "SKILL.md has no 'Commands: ... Exit code' list"
        names = re.findall(r"`([a-z0-9]+)`", listed.group(1))
        assert names == [command.name for command in _COMMANDS]
