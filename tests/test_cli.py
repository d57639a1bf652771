"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCase:
    def test_case_n3(self, capsys):
        assert main(["case", "--n", "3", "--delta", "1"]) == 0
        out = capsys.readouterr().out
        assert "beta* = 0.622" in out
        assert "P*(oblivious, alpha=1/2) = 0.4166" in out

    def test_case_fractional_delta(self, capsys):
        assert main(["case", "--n", "4", "--delta", "4/3"]) == 0
        out = capsys.readouterr().out
        assert "beta* = 0.677997" in out


class TestFigures:
    def test_figure1(self, capsys):
        assert main(["figure1", "--ns", "3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "beta* = 0.622036" in out

    def test_figure2(self, capsys):
        assert main(["figure2", "--ns", "3", "4"]) == 0
        out = capsys.readouterr().out
        assert "delta = n/3" in out
        assert "n=4 (delta=4/3)" in out


class TestUniformity:
    def test_fixed_delta(self, capsys):
        assert main(["uniformity", "--ns", "2", "3"]) == 0
        out = capsys.readouterr().out
        assert "0.416667" in out  # oblivious n=3 value

    def test_scaled(self, capsys):
        assert main(["uniformity", "--ns", "4", "--scaled"]) == 0
        out = capsys.readouterr().out
        assert "4/3" in out


class TestTradeoff:
    def test_runs(self, capsys):
        assert main(
            ["tradeoff", "--ns", "2", "3", "--trials", "5000"]
        ) == 0
        out = capsys.readouterr().out
        assert "centralized" in out


class TestValidate:
    def test_consistent(self, capsys):
        code = main(
            [
                "validate",
                "--n",
                "3",
                "--grid-size",
                "3",
                "--trials",
                "30000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "all 3 grid points consistent" in out


class TestMixture:
    def test_n4_reports_interior_optimum(self, capsys):
        assert main(["mixture", "--n", "4", "--delta", "4/3"]) == 0
        out = capsys.readouterr().out
        assert "p* = 0.549144" in out
        assert "beats BOTH" in out

    def test_n3_prefers_pure_threshold(self, capsys):
        assert main(["mixture", "--n", "3", "--delta", "1"]) == 0
        out = capsys.readouterr().out
        assert "p* = 1.000000" in out
        assert "beats BOTH" not in out


class TestParsing:
    def test_bad_delta_rejected(self):
        with pytest.raises(SystemExit):
            main(["case", "--n", "3", "--delta", "abc"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestValidateFaultTolerance:
    """The fault-tolerance flags on ``repro validate``: chaos mode must
    not change output, interrupted runs must resume, and predictable
    failures must map to distinct exit codes with one-line messages."""

    BASE = ["validate", "--n", "3", "--grid-size", "2", "--trials", "8000"]

    def test_chaos_crash_output_identical_to_clean_run(self, capsys):
        assert main(self.BASE + ["--workers", "2"]) == 0
        clean = capsys.readouterr().out
        code = main(
            self.BASE
            + ["--workers", "2", "--chaos-crash", "1", "--max-retries", "2"]
        )
        chaotic = capsys.readouterr().out
        assert code == 0
        assert chaotic == clean

    def test_retries_exhausted_exit_code(self, capsys):
        # a crash with a zero-retry budget cannot be survived
        code = main(self.BASE + ["--workers", "2", "--chaos-crash", "0"])
        captured = capsys.readouterr()
        assert code == 5
        assert "repro:" in captured.err
        assert "Traceback" not in captured.err

    def test_checkpoint_then_resume(self, capsys, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        assert main(self.BASE + ["--checkpoint", str(path)]) == 0
        clean = capsys.readouterr().out
        assert path.exists()
        code = main(
            self.BASE + ["--checkpoint", str(path), "--resume"]
        )
        resumed = capsys.readouterr().out
        assert code == 0
        assert resumed == clean

    def test_resume_fingerprint_mismatch_exit_code(self, capsys, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        assert main(self.BASE + ["--checkpoint", str(path)]) == 0
        capsys.readouterr()
        code = main(
            self.BASE
            + ["--seed", "99", "--checkpoint", str(path), "--resume"]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "different run" in captured.err
        assert "Traceback" not in captured.err

    def test_unwritable_checkpoint_exit_code(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main(
            self.BASE + ["--checkpoint", str(blocker / "ckpt.jsonl")]
        )
        captured = capsys.readouterr()
        assert code == 4
        assert "checkpoint" in captured.err
        assert "Traceback" not in captured.err

    def test_resume_without_checkpoint_is_usage_error(self, capsys):
        code = main(self.BASE + ["--resume"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--resume requires --checkpoint" in captured.err

    def test_shard_timeout_flag_accepted(self, capsys):
        code = main(
            self.BASE
            + ["--workers", "2", "--shard-timeout", "60", "--max-retries", "1"]
        )
        assert code == 0
        assert "consistent" in capsys.readouterr().out

    def test_profile_report_shows_failure_section(self, capsys):
        code = main(
            self.BASE
            + [
                "--workers",
                "2",
                "--chaos-crash",
                "1",
                "--max-retries",
                "2",
                "--profile",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "failures and recoveries:" in captured.err
        assert "engine.shards_salvaged" in captured.err


class TestOutOfRangeFlags:
    """An out-of-range numeric flag is a typed rejection (exit 2, one
    ``invalid request`` line), never a traceback, whichever library
    range check catches it."""

    SMALL = {
        "tradeoff": ["--ns", "2", "--trials", "100"],
        "validate": ["--grid-size", "2", "--trials", "100"],
        "sweep": [],
        "coordinate": ["--trials", "100"],
        "figure1": [],
    }

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("tradeoff", "--trials", "0"),
            ("tradeoff", "--ns", "0"),
            ("validate", "--trials", "0"),
            ("validate", "--workers", "0"),
            ("validate", "--grid-size", "0"),
            ("sweep", "--grid-size", "0"),
            ("coordinate", "--shards", "0"),
            ("figure1", "--ns", "0"),
            ("figure1", "--delta", "0"),
            ("validate", "--max-retries", "-1"),
            ("validate", "--shard-timeout", "-1"),
        ],
    )
    def test_rejected_with_exit_2(self, capsys, command, flag, value):
        code = main([command, *self.SMALL[command], flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert f"repro {command}: invalid request:" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--grid-size", "2", "--trials", "100"],
            ["sweep"],
            ["sweep", "--batch"],
        ],
        ids=["validate", "sweep", "sweep-batch"],
    )
    def test_non_positive_delta_rejected_with_exit_2(self, capsys, argv):
        # one typed rejection on every sweep path: no traceback from
        # validate, no plain sweep printing P = 0 at every beta
        code = main([*argv, "--delta", "0"])
        captured = capsys.readouterr()
        assert code == 2
        expected = f"repro {argv[0]}: invalid request: delta must be positive"
        assert expected in captured.err
        assert "Traceback" not in captured.err
