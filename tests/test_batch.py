"""Tests for repro.batch: compiled tables, certified batch evaluation,
scalar/batch agreement, metamorphic properties, and cache behaviour."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import (
    CompiledPiecewise,
    compiled_irwin_hall_cdf,
    compiled_oblivious_curve,
    compiled_threshold_curve,
    irwin_hall_piecewise,
    piecewise_from_table,
    piecewise_table,
    run_batch_agreement,
)
from repro.cache import (
    bypass_cache,
    cache_stats,
    clear_cache,
    configure_cache,
)
from repro.errors import PiecewiseDomainError
from repro.observability import use_instrumentation
from repro.probability.uniform_sums import irwin_hall_cdf
from repro.simulation.runner import sweep_thresholds
from repro.symbolic.piecewise import PiecewisePolynomial
from repro.symbolic.polynomial import Polynomial


def breakpoint_stress_grid(compiled: CompiledPiecewise) -> np.ndarray:
    """Uniform points plus every float edge and its float neighbours."""
    lo, hi = compiled.edges[0], compiled.edges[-1]
    pts = list(np.linspace(lo, hi, 257))
    for edge in compiled.edges:
        pts.append(edge)
        for neighbour in (
            np.nextafter(edge, -np.inf),
            np.nextafter(edge, np.inf),
        ):
            if lo <= neighbour <= hi:
                pts.append(neighbour)
    return np.unique(np.array(pts, dtype=np.float64))


class TestCompile:
    def test_round_trip_table(self):
        curve = compiled_threshold_curve(3, Fraction(1)).exact
        rebuilt = piecewise_from_table(piecewise_table(curve))
        assert rebuilt.breakpoints == curve.breakpoints
        for a, b in zip(rebuilt.pieces, curve.pieces):
            assert a.polynomial == b.polynomial

    def test_piece_dispatch_matches_scalar(self):
        compiled = compiled_threshold_curve(3, Fraction(1))
        curve = compiled.exact
        xs = breakpoint_stress_grid(compiled)
        idx = compiled.piece_indices(xs)
        for i, x in enumerate(xs):
            # Exact dispatch at the float point's rational image must
            # agree whenever the breakpoints are float-representable.
            if all(
                Fraction(float(b)) == b for b in curve.breakpoints
            ):
                assert idx[i] == curve.piece_index_at(Fraction(float(x)))

    def test_outside_domain_rejected(self):
        compiled = compiled_threshold_curve(3, Fraction(1))
        with pytest.raises(PiecewiseDomainError):
            compiled.evaluate(np.array([1.5]))

    def test_single_polynomial_wrapper(self):
        compiled = CompiledPiecewise.from_polynomial(
            Polynomial([1, 2, 3]), Fraction(0), Fraction(2)
        )
        xs = np.array([0.0, 0.5, 1.0, 2.0])
        expected = 1 + 2 * xs + 3 * xs * xs
        assert np.allclose(compiled.evaluate(xs), expected, rtol=1e-14)


class TestScalarBatchAgreement:
    def test_bit_identity_on_breakpoint_grid(self):
        for n, delta in [(2, Fraction(1)), (3, Fraction(1)), (4, Fraction(4, 3))]:
            compiled = compiled_threshold_curve(n, delta)
            curve = compiled.exact
            xs = breakpoint_stress_grid(compiled)
            batch = compiled.evaluate(xs)
            for i, x in enumerate(xs):
                scalar = curve.evaluate_float(float(x))
                assert scalar == batch[i], (n, delta, x)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_bit_identity_property(self, x):
        compiled = compiled_threshold_curve(3, Fraction(1))
        assert compiled.exact.evaluate_float(x) == compiled.evaluate(
            np.array([x])
        )[0]

    def test_certified_values_within_bound_of_exact(self):
        compiled = compiled_threshold_curve(4, Fraction(1))
        xs = breakpoint_stress_grid(compiled)
        result = compiled.evaluate_certified(xs)
        for i, x in enumerate(xs):
            if not result.certified[i]:
                continue
            exact = float(compiled.exact(Fraction(float(x))))
            assert abs(result.values[i] - exact) <= (
                result.error_bounds[i] + 1e-15
            )


class TestCertificationAndFallback:
    def test_zero_tolerance_forces_fallback_with_exact_values(self):
        # With a zero tolerance nothing certifies, so every point must
        # be served by the exact Fraction kernel -- and recorded as
        # exactly equal to an independent exact evaluation.
        compiled = compiled_threshold_curve(3, Fraction(1))
        xs = np.linspace(0.0, 1.0, 33)
        result = compiled.evaluate_certified(xs, rel_tol=0.0, abs_tol=0.0)
        assert result.fallback_count == result.points
        for i, x in enumerate(xs):
            expected = compiled.exact(Fraction(float(x)))
            assert result.exact_fallbacks[i] == expected
            assert result.values[i] == float(expected)
            assert result.error_bounds[i] == 0.0

    def test_default_tolerance_certifies_most_points(self):
        compiled = compiled_threshold_curve(3, Fraction(1))
        result = compiled.evaluate_certified(np.linspace(0, 1, 1001))
        assert result.fallback_rate < 0.05

    def test_counters(self):
        with use_instrumentation() as instr:
            clear_cache()  # force a fresh compile under this instrument
            compiled = compiled_threshold_curve(3, Fraction(1))
            compiled.evaluate_certified(np.linspace(0, 1, 101))
            counters = instr.metrics.snapshot().counters
        assert counters["batch.tables_compiled"] >= 1
        assert counters["batch.points"] == 101
        assert (
            counters.get("batch.certified", 0)
            + counters.get("batch.fallbacks", 0)
            == 101
        )

    def test_nonrepresentable_edge_neighbourhood_falls_back(self):
        # 1/3 is not float64-representable: points within a few ulp of
        # its float image must never be certified (dispatch there may
        # differ between float and exact arithmetic).
        curve = PiecewisePolynomial.from_breakpoints(
            [0, Fraction(1, 3), 1],
            [Polynomial([0, 1]), Polynomial([Fraction(1, 3)])],
        )
        compiled = CompiledPiecewise(curve)
        edge = float(Fraction(1, 3))
        result = compiled.evaluate_certified(
            np.array([edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0)])
        )
        assert result.fallback_count == 3


class TestMetamorphic:
    def test_irwin_hall_grid_monotone(self):
        # A CDF evaluated on an increasing grid must be non-decreasing.
        for m in (2, 3, 5, 8):
            compiled = compiled_irwin_hall_cdf(m)
            result = compiled.evaluate_certified(
                np.linspace(0.0, float(m), 513)
            )
            # Any downward wobble must stay within the sum of the two
            # points' certified error bounds (exact CDF is monotone).
            slack = result.error_bounds[1:] + result.error_bounds[:-1]
            assert np.all(np.diff(result.values) >= -slack - 1e-15), m

    def test_irwin_hall_matches_exact_kernel(self):
        compiled = compiled_irwin_hall_cdf(4)
        for numerator in range(0, 33):
            t = Fraction(numerator, 8)
            batch = compiled.evaluate_certified(np.array([float(t)]))
            assert batch.values[0] == pytest.approx(
                float(irwin_hall_cdf(t, 4)), abs=1e-12
            )

    def test_oblivious_curve_symmetric_in_exchangeable_players(self):
        # Exchangeable players and equal bin capacities make the
        # symmetric oblivious profile invariant under alpha -> 1-alpha.
        for n, t in [(3, Fraction(1)), (4, Fraction(4, 3))]:
            compiled = compiled_oblivious_curve(t, n)
            xs = np.linspace(0.0, 1.0, 129)
            forward = compiled.evaluate_certified(xs).values
            backward = compiled.evaluate_certified(1.0 - xs).values
            assert np.allclose(forward, backward, rtol=0, atol=1e-12)

    def test_irwin_hall_piecewise_continuous_at_integers(self):
        pw = irwin_hall_piecewise(5)
        for i in range(1, 5):
            left = pw.pieces[i - 1].polynomial(Fraction(i))
            right = pw.pieces[i].polynomial(Fraction(i))
            assert left == right == irwin_hall_cdf(Fraction(i), 5)


class TestCachedTables:
    def test_cold_vs_warm_byte_identical(self, tmp_path):
        # Compile cold (populating the disk tier), simulate a restart
        # (drop memory, keep disk), recompile: the evaluated arrays
        # must be byte-for-byte identical and the table must have been
        # served from disk rather than rebuilt.
        configure_cache(directory=tmp_path)
        try:
            clear_cache()
            xs = np.linspace(0.0, 1.0, 2049)
            cold = compiled_threshold_curve(4, Fraction(1)).evaluate(xs)
            assert cache_stats()["disk"]["writes"] > 0
            clear_cache(include_disk=False)
            warm = compiled_threshold_curve(4, Fraction(1)).evaluate(xs)
            assert cold.tobytes() == warm.tobytes()
            assert cache_stats()["disk"]["hits"] > 0
        finally:
            configure_cache(directory=None)
            clear_cache()

    def test_bypass_cache_still_correct(self):
        with bypass_cache():
            compiled = compiled_threshold_curve(3, Fraction(1))
            assert compiled.evaluate(np.array([0.5]))[0] == pytest.approx(
                float(compiled.exact(Fraction(1, 2)))
            )


class TestAgreementRunner:
    def test_agreement_passes(self):
        report = run_batch_agreement(
            [2, 3], [Fraction(1), Fraction(4, 3)], grid_size=64
        )
        assert report.passed, report.render()
        assert report.cases == 4
        assert report.points > 0
        assert "PASSED" in report.render()

    def test_empty_case_list_does_not_pass(self):
        report = run_batch_agreement([], [], grid_size=16)
        assert not report.passed


class TestBatchedSweep:
    def test_batch_sweep_matches_scalar_exact_column(self):
        scalar = sweep_thresholds(3, Fraction(1), grid_size=65)
        batched = sweep_thresholds(3, Fraction(1), grid_size=65, batch=True)
        assert batched.batch is not None
        assert batched.batch.points == 65
        assert scalar.batch is None
        for a, b in zip(scalar.points, batched.points):
            assert a.parameter == b.parameter
            # Certified points are rational images of certified floats;
            # representable betas must agree to the certification tol.
            assert abs(float(a.exact) - float(b.exact)) <= 1e-9

    def test_batch_sweep_best_point_agrees(self):
        scalar = sweep_thresholds(4, Fraction(1), grid_size=129)
        batched = sweep_thresholds(4, Fraction(1), grid_size=129, batch=True)
        assert scalar.best().parameter == batched.best().parameter

    def test_cli_sweep_batch_smoke(self, capsys):
        from repro.cli import main

        assert main(
            ["sweep", "--n", "3", "--grid-size", "101", "--batch"]
        ) == 0
        out = capsys.readouterr().out
        assert "sweep [batch]" in out
        assert "certified" in out

    def test_cli_check_batch_grid_smoke(self, capsys):
        from repro.cli import main

        code = main(
            [
                "check",
                "--ns",
                "2",
                "--deltas",
                "1",
                "--algorithms",
                "oblivious",
                "--trials",
                "2000",
                "--batch-grid",
                "32",
            ]
        )
        assert code == 0
        assert "batch agreement PASSED" in capsys.readouterr().out
