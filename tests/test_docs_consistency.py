"""Docs-vs-code consistency: the numbers quoted in the documentation
must match what the library computes.

EXPERIMENTS.md and README.md quote headline values; these tests parse
the claims out of the prose and recompute them, so documentation rot
fails CI instead of misleading readers.
"""

import importlib
import importlib.util
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


def load_example(path: Path):
    """Import an example script as a module; its ``__main__`` guard
    keeps ``main()`` from running."""
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    @pytest.mark.parametrize(
        "path", sorted((ROOT / "examples").glob("*.py")), ids=lambda p: p.name
    )
    def test_example_loads(self, path):
        assert callable(load_example(path).main)

    def test_weighted_average_without_observations_is_a_threshold(self, rng):
        module = load_example(ROOT / "examples" / "communication_patterns.py")
        rule = module.WeightedAverageRule(Fraction(3, 10))
        single = rule.as_single_threshold()
        for x in (0.0, 0.29, 0.3, 0.31, 1.0):
            assert rule.decide(x, {}, rng) == single.decide(x, {}, rng)

    def test_weighted_average_uses_observations(self, rng):
        module = load_example(ROOT / "examples" / "communication_patterns.py")
        rule = module.WeightedAverageRule(
            Fraction(1, 2),
            own_weight=Fraction(1, 2),
            observed_weights={1: Fraction(1, 2)},
        )
        # own 0.4: score 0.2 alone -> 0; with x_1 = 0.8 observed,
        # score 0.2 + 0.4 = 0.6 > 1/2 -> 1
        assert rule.decide(0.4, {}, rng) == 0
        assert rule.decide(0.4, {1: 0.8}, rng) == 1

    def test_weighted_average_ignores_unweighted_observations(self, rng):
        module = load_example(ROOT / "examples" / "communication_patterns.py")
        rule = module.WeightedAverageRule(
            Fraction(1, 2), observed_weights={1: Fraction(1)}
        )
        # player 2's input has no weight: ignored
        assert rule.decide(0.4, {2: 0.9}, rng) == 0

    def test_weighted_average_own_weight_validation(self):
        module = load_example(ROOT / "examples" / "communication_patterns.py")
        with pytest.raises(ValueError):
            module.WeightedAverageRule(Fraction(1, 2), own_weight=0)


class TestVerifySkill:
    def test_command_list_matches_the_command_table(self):
        from repro.cli import _COMMANDS

        text = read(".claude/skills/verify/SKILL.md")
        listed = re.search(r"Commands:(.*?)\. Exit code", text, re.DOTALL)
        assert listed, "SKILL.md has no 'Commands: ... Exit code' list"
        names = re.findall(r"`([a-z0-9]+)`", listed.group(1))
        assert names == [command.name for command in _COMMANDS]


#: Documents whose backticked ``repro.…`` paths must resolve.
PATH_DOCS = ("docs/api.md", "docs/architecture.md", "docs/math.md", "README.md")
#: A dotted ``repro.…`` path, optionally ending in a ``.{a, b}`` group.
DOTTED = re.compile(r"(?<![\w./-])(repro(?:\.\w+)+)(?:\.\{([^}]*)\})?")


def documented_paths(text: str):
    """Every dotted ``repro.…`` path inside a backtick span of *text*
    (fenced code blocks excluded), with brace groups expanded."""
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    for span in re.findall(r"`([^`\n]+)`", text):
        for match in DOTTED.finditer(span):
            base, group = match.groups()
            if group is None:
                yield base
            else:
                for name in group.split(","):
                    yield f"{base}.{name.strip()}"


def resolves(path: str) -> bool:
    """True when *path* imports as a module, or as attributes of the
    longest importable module prefix."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


class TestDocumentedPaths:
    @pytest.mark.parametrize("name", PATH_DOCS)
    def test_every_dotted_path_resolves(self, name):
        paths = sorted(set(documented_paths(read(name))))
        assert paths, f"{name} names no repro.… path"
        unresolved = [path for path in paths if not resolves(path)]
        assert not unresolved, f"{name} names stale paths: {unresolved}"
