"""Tests for the run-telemetry pipeline.

Four contracts, mirroring the subsystem's design:

* **lossless replay** -- an event log reconstructs the run's final
  :class:`MetricsSnapshot` bit-exactly, at any worker count, with the
  dashboard on or off;
* **non-interference** -- telemetry observes; simulated results are
  bit-identical with any combination of bus/dashboard/recording;
* **damage tolerance** -- truncated or corrupted logs, torn ``run.json``
  files and missing artifacts degrade to less detail, never an error;
* **gatekeeping** -- ``repro bench compare`` passes the committed
  lineage and fails (exit 7) on a degraded candidate.
"""

import io
import json
import math

import pytest

from repro.observability import use_instrumentation
from repro.observability.dashboard import (
    Dashboard,
    DashboardState,
    render_dashboard,
)
from repro.observability.events import (
    EVENT_LOG_SCHEMA_VERSION,
    EventBus,
    counter_samples_from_events,
    read_events,
    reconstruct_metrics,
    snapshot_from_payload,
    snapshot_to_payload,
)
from repro.observability.metrics import MetricsRegistry, MetricsSnapshot
from repro.observability.progress import ShardProgress
from repro.observability.regression import (
    compare_bench,
    render_bench_comparison,
)
from repro.observability.runlog import (
    RunStore,
    RunStoreError,
    render_comparison,
    render_run,
)
from repro.observability.runmeta import (
    new_run_context,
    run_header,
    set_current_run,
)
from repro.simulation.parallel import (
    ShardOutcome,
    estimate_winning_probability_sharded,
)
from repro.simulation.rng import SeedSequenceFactory


def system(n: int = 3):
    from fractions import Fraction

    from repro.model.algorithms import SingleThresholdRule
    from repro.model.system import DistributedSystem

    return DistributedSystem(
        [SingleThresholdRule(Fraction(62, 100))] * n, 1
    )


@pytest.fixture(autouse=True)
def _fresh_run_context():
    """Each test gets its own process-default run context."""
    previous = set_current_run(None)
    yield
    set_current_run(previous)


# ---------------------------------------------------------------------------
# Run identity
# ---------------------------------------------------------------------------


class TestRunContext:
    def test_distinct_ids(self):
        a = new_run_context(command="x", argv=["x"])
        b = new_run_context(command="x", argv=["x"])
        assert a.run_id != b.run_id
        assert len(a.run_id) == 16

    def test_header_fields(self):
        context = new_run_context(command="sweep", argv=["sweep", "--n", "3"])
        header = run_header(context)
        assert header["run_id"] == context.run_id
        assert header["command"] == "sweep"
        assert header["argv"] == ["sweep", "--n", "3"]
        assert header["started_utc"].endswith("Z")

    def test_directory_name_sorts_chronologically(self):
        context = new_run_context(command="x")
        name = context.directory_name
        assert name.endswith(context.run_id)
        assert "T" in name and ":" not in name and "-" not in name.split(
            context.run_id
        )[0].rstrip("-")


# ---------------------------------------------------------------------------
# Snapshot codec and event-log replay
# ---------------------------------------------------------------------------


def _busy_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.increment("shard.trials", 12_345)
    registry.increment("cache.hits", 7)
    registry.set_gauge("engine.fraction", 0.1 + 0.2)  # non-representable
    registry.observe("kernel.eval", 0.001234)
    registry.observe("kernel.eval", 5e-7)
    return registry


class TestSnapshotCodec:
    def test_roundtrip_bit_exact(self):
        snapshot = _busy_registry().snapshot()
        payload = json.loads(json.dumps(snapshot_to_payload(snapshot)))
        assert snapshot_from_payload(payload) == snapshot

    def test_empty_roundtrip(self):
        empty = MetricsSnapshot()
        assert snapshot_from_payload(
            snapshot_to_payload(empty)
        ) == empty


class TestEventLogReplay:
    def test_reconstructs_final_snapshot(self, tmp_path):
        path = tmp_path / "events.jsonl"
        context = new_run_context(command="t")
        registry = MetricsRegistry()
        bus = EventBus(path=path, context=context, metrics=registry)
        registry.increment("shard.trials", 100)
        bus.emit("shard", stream="s", index=0, trials=100, wins=40)
        registry.increment("shard.trials", 900)
        bus.close(exit_code=0)
        log = read_events(path)
        assert log.corrupt_lines == 0
        assert log.header["run_id"] == context.run_id
        assert log.header["schema_version"] == EVENT_LOG_SCHEMA_VERSION
        assert reconstruct_metrics(log) == registry.snapshot()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("with_dashboard", [False, True])
    def test_sharded_run_replays_bit_exact(
        self, tmp_path, workers, with_dashboard
    ):
        """The acceptance criterion: replay == final snapshot at any
        worker count, dashboard on or off, results identical."""
        path = tmp_path / f"events-{workers}-{with_dashboard}.jsonl"
        subscribers = []
        if with_dashboard:
            subscribers.append(
                Dashboard(stream=io.StringIO(), interactive=False)
            )
        with use_instrumentation() as instr:
            bus = EventBus(
                path=path,
                context=new_run_context(command="t"),
                subscribers=subscribers,
                metrics=instr.metrics,
            )
            instr.events = bus
            result = estimate_winning_probability_sharded(
                system(),
                trials=8_000,
                shards=8,
                workers=workers,
                factory=SeedSequenceFactory(11),
            )
            bus.close(exit_code=0)
            final = instr.metrics.snapshot()
        replayed = reconstruct_metrics(path)
        assert replayed == final
        assert (
            replayed.counters["shard.trials"] == result.summary.trials
        )
        # the estimate itself is the workers=1, no-telemetry one
        baseline = estimate_winning_probability_sharded(
            system(),
            trials=8_000,
            shards=8,
            workers=1,
            factory=SeedSequenceFactory(11),
        )
        assert result.summary.successes == baseline.summary.successes
        assert result.summary.interval == baseline.summary.interval

    def test_resumed_faulted_run_replays_bit_exact(self, tmp_path):
        """Checkpoint/resume composed with the event log: a run that
        crashed partway, then resumed under a live bus, must (a)
        reproduce the fresh run's summary exactly and (b) leave an
        event log whose replay equals its own final snapshot bit for
        bit -- recovery changes scheduling, never results or
        telemetry integrity."""
        from repro.simulation.faulttolerance import (
            FaultPlan,
            FaultSpec,
            FaultToleranceConfig,
            RetryPolicy,
            ShardRetriesExhaustedError,
        )

        checkpoint = tmp_path / "ckpt.jsonl"
        fresh = estimate_winning_probability_sharded(
            system(),
            trials=8_000,
            shards=8,
            factory=SeedSequenceFactory(11),
        )
        # first attempt: shard 2 crashes with no retry budget; the
        # completed prefix lands in the checkpoint
        with pytest.raises(ShardRetriesExhaustedError):
            estimate_winning_probability_sharded(
                system(),
                trials=8_000,
                shards=8,
                factory=SeedSequenceFactory(11),
                fault_tolerance=FaultToleranceConfig(
                    retry=RetryPolicy(max_retries=0),
                    fault_plan=FaultPlan.single("crash", shard=2),
                    checkpoint_path=checkpoint,
                ),
            )
        # second attempt: resume under a live event bus
        path = tmp_path / "events.jsonl"
        with use_instrumentation() as instr:
            bus = EventBus(
                path=path,
                context=new_run_context(command="t"),
                metrics=instr.metrics,
            )
            instr.events = bus
            resumed = estimate_winning_probability_sharded(
                system(),
                trials=8_000,
                shards=8,
                factory=SeedSequenceFactory(11),
                fault_tolerance=FaultToleranceConfig(
                    checkpoint_path=checkpoint,
                    resume=True,
                ),
            )
            bus.close(exit_code=0)
            final = instr.metrics.snapshot()
        assert resumed.summary == fresh.summary
        assert resumed.shard_outcomes == fresh.shard_outcomes
        assert resumed.resumed_shards == 2  # shards 0 and 1
        assert reconstruct_metrics(path) == final
        # the resumed shards surfaced through the log as recovered
        log = read_events(path)
        recovered = [
            e
            for e in log.events
            if e.get("type") == "shard" and e.get("recovered")
        ]
        assert {e["index"] for e in recovered} >= {0, 1}
        assert final.counters["engine.shards_resumed"] == 2

    def test_truncated_tail_recovers(self, tmp_path):
        path = tmp_path / "events.jsonl"
        registry = MetricsRegistry()
        bus = EventBus(
            path=path,
            context=new_run_context(command="t"),
            metrics=registry,
        )
        registry.increment("shard.trials", 500)
        bus.emit_metrics("periodic")
        registry.increment("shard.trials", 500)
        bus.close(exit_code=0)
        intact = path.read_bytes()
        # tear the final line mid-write
        path.write_bytes(intact[:-20])
        log = read_events(path)
        assert log.corrupt_lines == 1
        replayed = reconstruct_metrics(log)
        # the torn run_end is gone; the last intact metrics event (the
        # final snapshot) still replays
        assert replayed is not None
        assert replayed.counters["shard.trials"] == 1000

    def test_corrupt_middle_line_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        registry = MetricsRegistry()
        bus = EventBus(
            path=path,
            context=new_run_context(command="t"),
            metrics=registry,
        )
        registry.increment("a", 1)
        bus.close(exit_code=0)
        lines = path.read_text().splitlines()
        lines.insert(1, '{"type": "shard"}  not-a-checksum')
        lines.insert(2, "garbage that is not json at all")
        path.write_text("\n".join(lines) + "\n")
        log = read_events(path)
        assert log.corrupt_lines == 2
        assert reconstruct_metrics(log).counters["a"] == 1

    def test_flipped_high_bit_line_skipped(self, tmp_path):
        # one high-bit flip (0x22 -> 0xA2) makes a line invalid UTF-8:
        # it must count as corrupt, not abort the read
        path = tmp_path / "events.jsonl"
        registry = MetricsRegistry()
        bus = EventBus(
            path=path,
            context=new_run_context(command="t"),
            metrics=registry,
        )
        registry.increment("a", 1)
        bus.emit("shard", index=0)
        bus.close(exit_code=0)
        lines = path.read_bytes().splitlines(keepends=True)
        assert b'"shard"' in lines[1]
        lines[1] = lines[1].replace(b'"', b"\xa2", 1)
        path.write_bytes(b"".join(lines))
        log = read_events(path)
        assert log.corrupt_lines == 1
        assert log.of_type("shard") == []
        assert reconstruct_metrics(log).counters["a"] == 1

    def test_counter_samples(self, tmp_path):
        path = tmp_path / "events.jsonl"
        registry = MetricsRegistry()
        bus = EventBus(
            path=path,
            context=new_run_context(command="t"),
            metrics=registry,
        )
        registry.increment("shard.trials", 1000)
        registry.increment("cache.hits", 3)
        registry.increment("cache.misses", 1)
        bus.emit_metrics("periodic")
        registry.increment("shard.trials", 1000)
        registry.increment("batch.points", 10)
        registry.increment("batch.fallbacks", 1)
        bus.close(exit_code=0)
        samples = counter_samples_from_events(read_events(path).events)
        assert len(samples) == 2
        assert samples[0]["cache_hit_rate"] == 0.75
        assert samples[0]["batch_fallback_rate"] is None
        assert samples[1]["batch_fallback_rate"] == 0.1
        assert all(s["t_us"] >= 0 for s in samples)


# ---------------------------------------------------------------------------
# trials_per_second semantics (the progress.py fix)
# ---------------------------------------------------------------------------


class TestTrialsPerSecond:
    def test_unknown_elapsed_is_none(self):
        report = ShardProgress(
            index=0, trials=100, wins=10,
            elapsed_seconds=None, completed_shards=1, total_shards=2,
        )
        assert report.trials_per_second is None

    def test_zero_elapsed_is_inf_not_none(self):
        """A measured 0.0s shard is *instant*, not *untimed* -- the
        old ``if not elapsed_seconds`` conflated the two."""
        report = ShardProgress(
            index=0, trials=100, wins=10,
            elapsed_seconds=0.0, completed_shards=1, total_shards=2,
        )
        assert report.trials_per_second == math.inf

    def test_normal_rate(self):
        report = ShardProgress(
            index=0, trials=100, wins=10,
            elapsed_seconds=0.5, completed_shards=1, total_shards=2,
        )
        assert report.trials_per_second == 200.0

    def test_shard_outcome_mirrors_semantics(self):
        timed = ShardOutcome(
            index=0, stream="s", trials=100, wins=10,
            elapsed_seconds=0.0,
        )
        untimed = ShardOutcome(
            index=0, stream="s", trials=100, wins=10,
            elapsed_seconds=None,
        )
        assert timed.trials_per_second == math.inf
        assert untimed.trials_per_second is None


# ---------------------------------------------------------------------------
# Dashboard
# ---------------------------------------------------------------------------


def _drive(dashboard: Dashboard) -> None:
    for event in [
        {"type": "run_start", "t_ns": 0, "run_id": "deadbeef00000000",
         "command": "validate"},
        {"type": "point", "t_ns": 1_000_000, "label": "beta=1/2",
         "index": 0, "total": 2},
        {"type": "shard", "t_ns": 2_000_000, "stream": "beta=1/2",
         "index": 0, "trials": 500, "wins": 200, "attempt": 0,
         "recovered": False, "completed": 1, "total": 2},
        {"type": "fault", "t_ns": 3_000_000, "kind": "crash",
         "index": 1, "stream": "beta=1/2", "attempt": 0,
         "message": "boom"},
        {"type": "metrics", "t_ns": 4_000_000, "kind": "periodic",
         "snapshot": {"counters": {"shard.trials": 500,
                                   "engine.shard_retries": 1},
                      "gauges": {}, "timings": {}}},
        {"type": "run_end", "t_ns": 5_000_000, "exit_code": 0},
    ]:
        dashboard(event)


class TestDashboard:
    def test_non_tty_fallback_is_plain(self):
        """On a non-TTY the dashboard degrades to log lines: no ANSI
        escapes, one line per notable event."""
        sink = io.StringIO()
        dashboard = Dashboard(stream=sink, interactive=None)
        assert dashboard.interactive is False  # StringIO has no tty
        _drive(dashboard)
        text = sink.getvalue()
        assert "\x1b" not in text
        assert "run deadbeef00000000 (validate) started" in text
        assert "fault: crash on shard 1" in text
        assert "exit=0" in text

    def test_interactive_redraws_in_place(self):
        sink = io.StringIO()
        dashboard = Dashboard(
            stream=sink, interactive=True, min_interval=0.0
        )
        _drive(dashboard)
        text = sink.getvalue()
        assert "\x1b[" in text and "F\x1b[J" in text

    def test_render_is_pure_and_complete(self):
        dashboard = Dashboard(stream=io.StringIO(), interactive=False)
        _drive(dashboard)
        lines = render_dashboard(dashboard.state)
        joined = "\n".join(lines)
        assert "point 1/2 (beta=1/2)" in joined
        assert "1/2 shards" in joined
        assert "retries 1" in joined
        assert "faults 1" in joined
        assert "done  exit=0" in joined

    def test_state_bounds_stream_lines(self):
        state = DashboardState()
        for i in range(50):
            state.apply(
                {"type": "shard", "t_ns": i, "stream": f"s{i}",
                 "index": 0, "trials": 1, "wins": 0, "completed": 1,
                 "total": 1}
            )
        lines = render_dashboard(state, max_streams=6)
        assert sum("shards" in line for line in lines) == 6
        assert any("+44 earlier stream(s)" in line for line in lines)


# ---------------------------------------------------------------------------
# Run store
# ---------------------------------------------------------------------------


def _record_run(store: RunStore, command: str, trials: int):
    context = new_run_context(command=command, argv=[command])
    registry = MetricsRegistry()
    bus = EventBus(
        path=store.events_path(context),
        context=context,
        metrics=registry,
    )
    registry.increment("shard.trials", trials)
    bus.emit("shard", stream="s", index=0, trials=trials, wins=1)
    bus.close(exit_code=0)
    store.finalize(context, 0, registry.snapshot())
    return context


class TestRunStore:
    def test_list_find_compare(self, tmp_path):
        store = RunStore(tmp_path)
        first = _record_run(store, "sweep", 100)
        second = _record_run(store, "sweep", 300)
        runs = store.list_runs()
        assert [r.run_id for r in runs] == [first.run_id, second.run_id]
        assert all(r.complete for r in runs)
        assert store.find("latest").run_id == second.run_id
        assert store.find(first.run_id[:6]).run_id == first.run_id
        text = render_comparison(runs[0], runs[1])
        assert "shard.trials" in text
        assert "+200" in text

    def test_find_errors(self, tmp_path):
        store = RunStore(tmp_path)
        with pytest.raises(RunStoreError):
            store.find("latest")  # empty store
        _record_run(store, "a", 1)
        with pytest.raises(RunStoreError):
            store.find("zzzz-no-such-run")

    def test_corrupt_summary_degrades_to_incomplete(self, tmp_path):
        store = RunStore(tmp_path)
        context = _record_run(store, "sweep", 100)
        run = store.find("latest")
        (run.directory / "run.json").write_text("{torn")
        recovered = store.find("latest")
        assert recovered.complete is False
        assert recovered.run_id == context.run_id  # from the event log
        assert recovered.command == "sweep"
        # and its metrics still replay from events.jsonl
        assert recovered.metrics().counters["shard.trials"] == 100

    def test_render_run_shows_counters(self, tmp_path):
        store = RunStore(tmp_path)
        _record_run(store, "sweep", 42)
        text = render_run(store.find("latest"))
        assert "[complete]" in text
        assert "shard.trials" in text and "42" in text

    def test_prune_keeps_newest(self, tmp_path):
        store = RunStore(tmp_path)
        for i in range(4):
            _record_run(store, f"c{i}", i + 1)
        assert store.prune(keep=2) == 2
        kept = store.list_runs()
        assert [r.command for r in kept] == ["c2", "c3"]

    def test_prune_skips_run_being_finalized(self, tmp_path):
        # a live run has written run.json.tmp but not yet renamed it:
        # prune must not delete the directory out from under it
        store = RunStore(tmp_path)
        for i in range(3):
            _record_run(store, f"c{i}", i + 1)
        oldest = store.list_runs()[0]
        (oldest.directory / "run.json.tmp").write_text("{")
        assert store.prune(keep=1) == 1  # c1 pruned, c0 skipped
        kept = store.list_runs()
        assert [r.command for r in kept] == ["c0", "c2"]
        # once the finalize completes, the directory prunes normally
        (oldest.directory / "run.json.tmp").unlink()
        assert store.prune(keep=1) == 1
        assert [r.command for r in store.list_runs()] == ["c2"]


# ---------------------------------------------------------------------------
# Perf-regression gate
# ---------------------------------------------------------------------------


BASE = {
    "benchmark": "batch_cold_sweep",
    "cold_seconds": 0.14,
    "cold_speedup": 33.0,
    "warm_speedup": 1900.0,
    "fallback_rate": 0.003,
    "floor": 20.0,
}


class TestBenchGate:
    def test_self_check_passes_on_committed_lineage(self):
        for name in ("BENCH_5.json", "BENCH_6.json"):
            payload = json.loads(open(name).read())
            comparison = compare_bench(payload, baseline_name=name)
            assert comparison.passed, render_bench_comparison(comparison)

    def test_identical_candidate_passes(self):
        assert compare_bench(BASE, dict(BASE)).passed

    def test_speedup_erosion_fails(self):
        bad = dict(BASE, cold_speedup=10.0)  # < 0.5 * 33 and < floor
        comparison = compare_bench(BASE, bad)
        assert not comparison.passed
        kinds = {(g.name, g.kind) for g in comparison.failures}
        assert ("cold_speedup", "floor") in kinds
        assert ("cold_speedup", "ratio") in kinds

    def test_seconds_blowup_fails(self):
        comparison = compare_bench(BASE, dict(BASE, cold_seconds=1.0))
        assert [g.name for g in comparison.failures] == ["cold_seconds"]

    def test_fallback_ceiling(self):
        assert not compare_bench(BASE, dict(BASE, fallback_rate=0.5)).passed
        # slack: a tiny baseline must not flag noise-level candidates
        tiny = dict(BASE, fallback_rate=0.0)
        assert compare_bench(tiny, dict(tiny, fallback_rate=0.005)).passed

    def test_benchmark_mismatch_fails(self):
        other = dict(BASE, benchmark="warm_repeated_sweep")
        comparison = compare_bench(BASE, other)
        assert not comparison.passed
        assert comparison.failures[0].kind == "identity"

    def test_rendered_diff_names_failures(self):
        text = render_bench_comparison(
            compare_bench(BASE, dict(BASE, cold_speedup=1.0))
        )
        assert "[FAIL]" in text
        assert "REGRESSION: cold_speedup" in text
        assert "EXIT_PERF_REGRESSION" in text


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------


class TestTelemetryCli:
    VALIDATE = [
        "validate", "--n", "3", "--grid-size", "2",
        "--trials", "1000", "--seed", "0", "--workers", "2",
    ]

    def test_record_and_inspect(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        assert main(self.VALIDATE + ["--record-run"]) == 0
        err = capsys.readouterr().err
        assert "run recorded:" in err

        assert main(["runs", "list"]) == 0
        listing = capsys.readouterr().out
        assert "validate" in listing and "[complete]" in listing

        assert main(["runs", "show", "latest"]) == 0
        shown = capsys.readouterr().out
        assert "shard.trials" in shown

        assert main(self.VALIDATE + ["--record-run"]) == 0
        capsys.readouterr()
        assert main(
            ["runs", "compare", "latest", "latest", "--changed-only"]
        ) == 0
        compared = capsys.readouterr().out
        assert "every counter identical" in compared

        assert main(["runs", "prune", "--keep", "1"]) == 0
        assert "pruned 1 run(s)" in capsys.readouterr().out

    def test_recorded_run_replays_cli_snapshot(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main

        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        metrics_path = tmp_path / "m.jsonl"
        assert main(
            self.VALIDATE
            + ["--record-run", "--metrics-out", str(metrics_path)]
        ) == 0
        capsys.readouterr()
        store = RunStore(tmp_path / "runs")
        run = store.find("latest")
        replayed = run.metrics()
        exported = {
            row["name"]: row["value"]
            for row in map(
                json.loads, metrics_path.read_text().splitlines()
            )
            if row.get("type") == "counter"
        }
        assert replayed.counters == exported

    def test_dashboard_flag_non_tty(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        assert main(self.VALIDATE + ["--dashboard"]) == 0
        captured = capsys.readouterr()
        assert "[dashboard]" in captured.err
        assert "\x1b" not in captured.err

    def test_dashboard_does_not_change_results(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main

        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        assert main(self.VALIDATE) == 0
        plain = capsys.readouterr().out
        assert main(
            self.VALIDATE + ["--dashboard", "--record-run"]
        ) == 0
        assert capsys.readouterr().out == plain

    def test_bench_compare_exit_codes(self, tmp_path, capsys):
        from repro.cli import EXIT_PERF_REGRESSION, main

        assert main(["bench", "compare", "BENCH_5.json"]) == 0
        assert "[PASS]" in capsys.readouterr().out
        degraded = tmp_path / "degraded.json"
        payload = json.loads(open("BENCH_6.json").read())
        payload["cold_speedup"] = 1.0
        degraded.write_text(json.dumps(payload))
        assert (
            main(["bench", "compare", "BENCH_6.json", str(degraded)])
            == EXIT_PERF_REGRESSION
        )
        out = capsys.readouterr().out
        assert "[FAIL]" in out and "REGRESSION" in out

    def test_bench_compare_unreadable_artifact(self, tmp_path, capsys):
        from repro.cli import main

        broken = tmp_path / "broken.json"
        broken.write_text("not json")
        assert main(["bench", "compare", str(broken)]) == 2
        assert "bench compare" in capsys.readouterr().err

    def test_report_html(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        assert main(self.VALIDATE + ["--record-run"]) == 0
        capsys.readouterr()
        target = tmp_path / "report.html"
        assert main(["report", "latest", "--html", str(target)]) == 0
        doc = target.read_text()
        assert doc.startswith("<!DOCTYPE html>")
        assert "shard.trials" in doc
        assert "Bench lineage" in doc  # BENCH_*.json in the repo root
        assert "<svg" in doc
        # self-contained: no external fetches of any kind
        assert "http://" not in doc and "https://" not in doc
        assert "<script src" not in doc and "<link" not in doc


# ---------------------------------------------------------------------------
# HTML report internals
# ---------------------------------------------------------------------------


class TestHtmlReport:
    def test_sparkline_svg_shapes(self):
        from repro.observability.htmlreport import sparkline_svg

        assert sparkline_svg([]) == ""
        single = sparkline_svg([1.0])
        assert "<svg" in single and "circle" in single
        flat = sparkline_svg([2.0, 2.0, 2.0])
        assert "polyline" in flat

    def test_incomplete_run_still_renders(self, tmp_path):
        from repro.observability.htmlreport import render_html_report

        store = RunStore(tmp_path)
        context = _record_run(store, "sweep", 10)
        run = store.find("latest")
        (run.directory / "run.json").unlink()
        incomplete = store.find("latest")
        doc = render_html_report(incomplete)
        assert "INCOMPLETE" in doc
        assert "shard.trials" in doc  # replayed from events alone
        assert context.run_id in doc
