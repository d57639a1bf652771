"""Edge-path coverage: branches the mainline tests do not reach.

Grouped by module; each class targets specific rarely-hit behaviour
(scalar Monte Carlo path with custom input distributions, renderer
degenerate geometries, sweep metadata, polynomial printing corners).
"""

from fractions import Fraction

from repro.experiments.report import format_table, render_ascii_plot
from repro.model.algorithms import SingleThresholdRule
from repro.model.inputs import BetaInputs, UniformInputs
from repro.model.system import DistributedSystem
from repro.simulation.engine import MonteCarloEngine
from repro.symbolic.polynomial import Polynomial


class TestEngineScalarPathWithInputs:
    def test_nonlocal_system_with_custom_inputs(self):
        """The scalar (per-trial) path must honour custom input
        distributions too."""
        from repro.baselines.centralized import OmniscientPacker
        from repro.model.communication import FullInformation

        system = DistributedSystem(
            [OmniscientPacker(i, 2) for i in range(2)],
            Fraction(1, 2),
            pattern=FullInformation(2),
        )
        engine = MonteCarloEngine(seed=4)
        light = engine.estimate_winning_probability(
            system, trials=2_000, stream="l", inputs=BetaInputs(1, 5)
        )
        heavy = engine.estimate_winning_probability(
            system, trials=2_000, stream="h", inputs=BetaInputs(5, 1)
        )
        # small inputs pack easily; large ones overflow capacity 1/2
        assert light.estimate > heavy.estimate

    def test_uniform_inputs_object_on_scalar_path(self):
        from repro.baselines.centralized import OmniscientPacker
        from repro.model.communication import FullInformation

        system = DistributedSystem(
            [OmniscientPacker(i, 2) for i in range(2)],
            1,
            pattern=FullInformation(2),
        )
        summary = MonteCarloEngine(seed=5).estimate_winning_probability(
            system, trials=500, inputs=UniformInputs()
        )
        assert summary.estimate == 1.0  # n=2, capacity 1: always packable


class TestRendererEdges:
    def test_single_point_plot(self):
        text = render_ascii_plot(
            [("dot", [(0.5, 0.5)])], width=10, height=4
        )
        assert "dot" in text  # degenerate spans handled (no div by 0)

    def test_constant_series(self):
        text = render_ascii_plot(
            [("flat", [(0.0, 1.0), (1.0, 1.0)])], width=10, height=4
        )
        assert "y in [1.0000, 1.0000]" in text

    def test_marker_cycling_beyond_eight_series(self):
        series = [
            (f"s{i}", [(float(i), float(i))]) for i in range(10)
        ]
        text = render_ascii_plot(series, width=20, height=5)
        for i in range(10):
            assert f"s{i}" in text

    def test_empty_table(self):
        text = format_table(["a"], [])
        assert "a" in text


class TestPolynomialPrinting:
    def test_negative_leading_term(self):
        assert Polynomial([0, 0, -2]).pretty() == "-2*x^2"

    def test_unit_negative_coefficient(self):
        assert Polynomial([0, -1]).pretty() == "-x"

    def test_interleaved_signs(self):
        p = Polynomial([Fraction(1, 2), -1, 0, 2])
        text = p.pretty()
        assert text == "2*x^3 - x + 1/2"


class TestSweepMetadata:
    def test_label_contains_parameters(self):
        from repro.simulation.runner import sweep_thresholds

        result = sweep_thresholds(4, Fraction(4, 3), grid_size=3)
        assert "n=4" in result.label
        assert "4/3" in result.label

    def test_consistency_is_none_without_simulation(self):
        from repro.simulation.runner import sweep_thresholds

        result = sweep_thresholds(3, 1, grid_size=3)
        assert all(p.consistent is None for p in result.points)


class TestCertifyExport:
    def test_available_from_package(self):
        from repro.optimize import certify_threshold_optimum

        cert = certify_threshold_optimum(2, 1)
        assert cert.upper_bound > Fraction(5, 6)
