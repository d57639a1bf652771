"""Tests for repro.simulation.results_store."""

import json
from fractions import Fraction

import pytest

from repro.simulation.results_store import (
    load_sweep,
    merge_sweeps,
    save_sweep,
    sweep_from_dict,
    sweep_to_dict,
)
from repro.simulation.runner import SweepPoint, SweepResult, sweep_thresholds


def exact_sweep() -> SweepResult:
    return sweep_thresholds(3, 1, grid_size=5)


def simulated_sweep() -> SweepResult:
    return sweep_thresholds(
        3, 1, grid_size=3, simulate=True, trials=5_000, seed=1
    )


class TestRoundTrip:
    def test_exact_only(self, tmp_path):
        original = exact_sweep()
        path = save_sweep(original, tmp_path / "sweep.json")
        loaded = load_sweep(path)
        assert loaded.label == original.label
        assert loaded.parameters == original.parameters
        assert loaded.exact_values == original.exact_values
        assert all(p.simulated is None for p in loaded.points)

    def test_with_simulation(self, tmp_path):
        original = simulated_sweep()
        loaded = load_sweep(save_sweep(original, tmp_path / "s.json"))
        for a, b in zip(original.points, loaded.points):
            assert a.exact == b.exact  # exactness survives the disk
            assert a.simulated == b.simulated
            assert a.interval == pytest.approx(b.interval)
        assert loaded.all_consistent()

    def test_exact_values_stored_as_fractions(self, tmp_path):
        path = save_sweep(exact_sweep(), tmp_path / "s.json")
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == 1
        assert payload["points"][0]["exact"] == "1/6"

    def test_creates_parent_directories(self, tmp_path):
        path = save_sweep(exact_sweep(), tmp_path / "deep/nested/s.json")
        assert path.exists()


class TestValidation:
    def test_wrong_schema_version(self):
        payload = sweep_to_dict(exact_sweep())
        payload["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            sweep_from_dict(payload)

    def test_missing_fields(self):
        with pytest.raises(ValueError):
            sweep_from_dict({"schema_version": 1})

    def test_malformed_point(self):
        payload = sweep_to_dict(exact_sweep())
        payload["points"][0]["exact"] = "not-a-fraction"
        with pytest.raises(ValueError, match="malformed point 0"):
            sweep_from_dict(payload)

    @pytest.mark.parametrize(
        "interval",
        [
            [0.1],  # too short
            [0.1, 0.2, 0.3],  # too long
            ["lo", "hi"],  # non-numeric
            [0.1, None],  # non-numeric edge
            [True, False],  # bools are not measurements
            0.5,  # not a list at all
        ],
    )
    def test_malformed_interval_rejected(self, interval):
        payload = sweep_to_dict(simulated_sweep())
        payload["points"][1]["interval"] = interval
        with pytest.raises(ValueError, match="malformed point 1"):
            sweep_from_dict(payload)

    def test_inverted_interval_rejected(self):
        payload = sweep_to_dict(simulated_sweep())
        payload["points"][0]["interval"] = [0.9, 0.1]
        with pytest.raises(ValueError, match="malformed point 0"):
            sweep_from_dict(payload)

    def test_degenerate_interval_accepted(self):
        """lo == hi is a legal (zero-width) interval."""
        payload = sweep_to_dict(simulated_sweep())
        payload["points"][0]["interval"] = [0.5, 0.5]
        loaded = sweep_from_dict(payload)
        assert loaded.points[0].interval == (0.5, 0.5)

    @pytest.mark.parametrize("simulated", [-0.01, 1.5, "0.4", True])
    def test_bad_simulated_rejected(self, simulated):
        payload = sweep_to_dict(simulated_sweep())
        payload["points"][2]["simulated"] = simulated
        with pytest.raises(ValueError, match="malformed point 2"):
            sweep_from_dict(payload)

    def test_boundary_simulated_accepted(self):
        payload = sweep_to_dict(simulated_sweep())
        payload["points"][0]["simulated"] = 0.0
        payload["points"][1]["simulated"] = 1.0
        loaded = sweep_from_dict(payload)
        assert loaded.points[0].simulated == 0.0
        assert loaded.points[1].simulated == 1.0


class TestMerge:
    def test_disjoint_grids(self):
        a = sweep_thresholds(3, 1, grid=[Fraction(0), Fraction(1, 2)])
        b = sweep_thresholds(3, 1, grid=[Fraction(1, 4), Fraction(3, 4)])
        merged = merge_sweeps([a, b])
        assert merged.parameters == [
            Fraction(0),
            Fraction(1, 4),
            Fraction(1, 2),
            Fraction(3, 4),
        ]

    def test_duplicates_deduped(self):
        a = sweep_thresholds(3, 1, grid=[Fraction(1, 2)])
        merged = merge_sweeps([a, a])
        assert len(merged.points) == 1

    def test_simulated_point_wins(self):
        exact = sweep_thresholds(3, 1, grid=[Fraction(1, 2)])
        sim = sweep_thresholds(
            3,
            1,
            grid=[Fraction(1, 2)],
            simulate=True,
            trials=2_000,
            seed=2,
        )
        merged = merge_sweeps([exact, sim])
        assert merged.points[0].simulated is not None
        merged_other_order = merge_sweeps([sim, exact])
        assert merged_other_order.points[0].simulated is not None

    def test_conflicting_exact_values_rejected(self):
        a = SweepResult(
            label="x",
            points=[SweepPoint(Fraction(1, 2), Fraction(1, 3))],
        )
        b = SweepResult(
            label="x",
            points=[SweepPoint(Fraction(1, 2), Fraction(1, 4))],
        )
        with pytest.raises(ValueError, match="conflicting"):
            merge_sweeps([a, b])

    def test_label_mismatch_rejected(self):
        a = sweep_thresholds(3, 1, grid=[Fraction(1, 2)])
        b = sweep_thresholds(4, 1, grid=[Fraction(1, 2)])
        with pytest.raises(ValueError, match="labels"):
            merge_sweeps([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_sweeps([])

    def test_resume_workflow(self, tmp_path):
        """The intended use: run half the grid, save, run the rest,
        merge, and get the full sweep back."""
        first = sweep_thresholds(3, 1, grid=[Fraction(i, 10) for i in range(5)])
        save_sweep(first, tmp_path / "part1.json")
        second = sweep_thresholds(
            3, 1, grid=[Fraction(i, 10) for i in range(5, 11)]
        )
        save_sweep(second, tmp_path / "part2.json")
        merged = merge_sweeps(
            [
                load_sweep(tmp_path / "part1.json"),
                load_sweep(tmp_path / "part2.json"),
            ]
        )
        full = sweep_thresholds(3, 1, grid_size=11)
        assert merged.parameters == full.parameters
        assert merged.exact_values == full.exact_values


class TestCrashSafety:
    """save_sweep must be atomic (temp file + fsync + os.replace) and
    load_sweep must turn every corruption mode into a clear
    ResultsStoreError naming the path -- never a bare
    json.JSONDecodeError or KeyError."""

    def test_corrupt_byte_raises_results_store_error(self, tmp_path):
        from repro.simulation.results_store import ResultsStoreError

        path = save_sweep(exact_sweep(), tmp_path / "sweep.json")
        payload = bytearray(path.read_bytes())
        middle = len(payload) // 2
        payload[middle] = 0x00  # flip one byte mid-file
        path.write_bytes(bytes(payload))
        with pytest.raises(ResultsStoreError) as info:
            load_sweep(path)
        assert "sweep.json" in str(info.value)
        assert isinstance(info.value, ValueError)  # compat with old API

    def test_truncated_file_raises_results_store_error(self, tmp_path):
        from repro.simulation.results_store import ResultsStoreError

        path = save_sweep(exact_sweep(), tmp_path / "sweep.json")
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ResultsStoreError):
            load_sweep(path)

    def test_missing_file_raises_results_store_error(self, tmp_path):
        from repro.simulation.results_store import ResultsStoreError

        with pytest.raises(ResultsStoreError) as info:
            load_sweep(tmp_path / "absent.json")
        assert "absent.json" in str(info.value)

    def test_schema_violation_names_the_path(self, tmp_path):
        from repro.simulation.results_store import ResultsStoreError

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 999}))
        with pytest.raises(ResultsStoreError) as info:
            load_sweep(path)
        assert "bad.json" in str(info.value)

    def test_non_object_payload_rejected(self, tmp_path):
        from repro.simulation.results_store import ResultsStoreError

        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ResultsStoreError):
            load_sweep(path)

    def test_save_replaces_atomically(self, tmp_path):
        # overwriting an existing file must leave either the old or the
        # new content -- simulate a writer crash by making the dump fail
        # and check the original survives untouched, with no temp litter
        import repro.simulation.results_store as store

        path = save_sweep(exact_sweep(), tmp_path / "sweep.json")
        before = path.read_text()

        class Explodes:
            pass

        with pytest.raises(TypeError):
            # non-serialisable object raises inside json.dump
            result = exact_sweep()
            result.label = Explodes()  # type: ignore[assignment]
            save_sweep(result, path)
        assert path.read_text() == before
        leftovers = [
            p for p in path.parent.iterdir() if p.name != path.name
        ]
        assert leftovers == []

    @pytest.mark.parametrize("store", ["sweep", "run-store", "disk-cache"])
    def test_every_writer_replaces_atomically(
        self, tmp_path, monkeypatch, store
    ):
        # the same crash for every store that writes through
        # repro.fsutil.atomic_write: the rename fails after the temp
        # file is written, so the original must survive, with no litter
        import os

        from repro.cache.disk import DiskCache
        from repro.observability.runlog import RunStore
        from repro.observability.runmeta import new_run_context

        if store == "sweep":
            path = save_sweep(exact_sweep(), tmp_path / "sweep.json")

            def rewrite():
                save_sweep(simulated_sweep(), path)

        elif store == "run-store":
            runs = RunStore(tmp_path)
            context = new_run_context(command="validate", argv=["validate"])
            path = runs.finalize(context, 0)

            def rewrite():
                runs.finalize(context, 1)

        else:
            cache = DiskCache(tmp_path)
            cache.put("k" * 64, "fingerprint", "kernel", 1)
            (path,) = tmp_path.iterdir()

            def rewrite():
                cache.put("k" * 64, "fingerprint", "kernel", 2)

        before = path.read_text()

        def crash(source, target):
            raise OSError("simulated crash before the rename")

        monkeypatch.setattr(os, "replace", crash)
        if store == "disk-cache":
            rewrite()  # the disk tier treats a failed write as a no-op
        else:
            with pytest.raises(OSError):
                rewrite()
        monkeypatch.undo()
        assert path.read_text() == before
        assert [p.name for p in path.parent.iterdir()] == [path.name]

    def test_save_then_load_still_round_trips(self, tmp_path):
        original = simulated_sweep()
        loaded = load_sweep(save_sweep(original, tmp_path / "s.json"))
        assert [p.simulated for p in loaded.points] == [
            p.simulated for p in original.points
        ]
