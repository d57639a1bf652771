"""Tests for the repro.observability subsystem.

Covers the subsystem's three contracts:

* **exactness** -- metrics merging is associative and bit-exact, so
  per-shard snapshots can be folded in any grouping;
* **faithfulness** -- span trees mirror the call structure and the
  Chrome-trace export is schema-valid;
* **non-interference** -- enabling instrumentation changes *nothing*
  about simulated results, at any worker count.
"""

import json
import pickle

import pytest

from repro.model.algorithms import SingleThresholdRule
from repro.model.system import DistributedSystem
from repro.observability import (
    NULL_INSTRUMENTATION,
    Instrumentation,
    MetricsRegistry,
    MetricsSnapshot,
    ShardProgress,
    ThroughputTracker,
    TimingStats,
    Tracer,
    format_rate,
    get_instrumentation,
    merge_snapshots,
    render_report,
    render_span_tree,
    set_instrumentation,
    traced,
    use_instrumentation,
    write_chrome_trace,
)
from repro.observability.events import read_events
from repro.simulation.engine import MonteCarloEngine
from repro.simulation.parallel import estimate_winning_probability_sharded
from repro.simulation.rng import SeedSequenceFactory


def system(n: int = 3) -> DistributedSystem:
    from fractions import Fraction

    return DistributedSystem(
        [SingleThresholdRule(Fraction(62, 100))] * n, 1
    )


class TestTimingStats:
    def test_observe_accumulates(self):
        stats = TimingStats().observe_ns(1_500).observe_ns(2_500)
        assert stats.count == 2
        assert stats.total_ns == 4_000
        assert stats.min_ns == 1_500
        assert stats.max_ns == 2_500

    def test_bucketing(self):
        stats = TimingStats().observe_ns(999)  # <= 10^3: first bucket
        assert stats.bucket_counts[0] == 1
        stats = TimingStats().observe_ns(10**12)  # beyond all bounds
        assert stats.bucket_counts[-1] == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TimingStats().observe_ns(-1)

    def test_merge_is_exact(self):
        a = TimingStats().observe_ns(10**6)
        b = TimingStats().observe_ns(3 * 10**6).observe_ns(5)
        merged = a.merge(b)
        assert merged.count == 3
        assert merged.total_ns == 4 * 10**6 + 5
        assert merged.min_ns == 5
        assert merged.max_ns == 3 * 10**6

    def test_merge_mismatched_buckets_rejected(self):
        a = TimingStats()
        b = TimingStats(
            bucket_bounds_ns=(10, 100), bucket_counts=(0, 0, 0)
        )
        with pytest.raises(ValueError):
            a.merge(b)

    def test_seconds_properties(self):
        stats = TimingStats().observe_ns(2 * 10**9)
        assert stats.total_seconds == pytest.approx(2.0)
        assert stats.mean_seconds == pytest.approx(2.0)
        assert stats.min_seconds == pytest.approx(2.0)
        assert stats.max_seconds == pytest.approx(2.0)
        assert TimingStats().mean_seconds == 0.0


class TestSnapshotMerge:
    @staticmethod
    def snapshots():
        a = MetricsSnapshot(
            counters={"x": 1, "y": 10},
            gauges={"g": 0.25},
            timings={"t": TimingStats().observe_ns(1_000)},
        )
        b = MetricsSnapshot(
            counters={"x": 2},
            gauges={"g": 0.75, "h": 1.0},
            timings={"t": TimingStats().observe_ns(2_000)},
        )
        c = MetricsSnapshot(
            counters={"y": 5, "z": 7},
            timings={
                "t": TimingStats().observe_ns(4_000),
                "u": TimingStats().observe_ns(8_000),
            },
        )
        return a, b, c

    def test_merge_associative_and_exact(self):
        """The keystone property: any grouping of shard snapshots
        folds to the same bit-exact result (all payloads integral)."""
        a, b, c = self.snapshots()
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left == right
        assert left == merge_snapshots(a, b, c)

    def test_counters_add(self):
        a, b, c = self.snapshots()
        merged = merge_snapshots(a, b, c)
        assert merged.counters == {"x": 3, "y": 15, "z": 7}

    def test_gauges_last_write_wins(self):
        a, b, _ = self.snapshots()
        assert a.merge(b).gauges["g"] == 0.75
        assert b.merge(a).gauges["g"] == 0.25

    def test_timings_fold(self):
        a, b, c = self.snapshots()
        merged = merge_snapshots(a, b, c)
        assert merged.timings["t"].count == 3
        assert merged.timings["t"].total_ns == 7_000

    def test_snapshot_pickles(self):
        """Snapshots must survive the worker->parent pickle hop."""
        a, _, _ = self.snapshots()
        assert pickle.loads(pickle.dumps(a)) == a


class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        registry = MetricsRegistry()
        registry.increment("calls")
        registry.increment("calls", 4)
        registry.set_gauge("level", 0.5)
        assert registry.counter_value("calls") == 5
        snap = registry.snapshot()
        assert snap.counters["calls"] == 5
        assert snap.gauges["level"] == 0.5

    def test_timer_records(self):
        registry = MetricsRegistry()
        with registry.timer("op"):
            pass
        stats = registry.snapshot().timings["op"]
        assert stats.count == 1
        assert stats.total_ns >= 0

    def test_merge_from_worker_snapshot(self):
        worker = MetricsRegistry()
        worker.increment("trials", 100)
        parent = MetricsRegistry()
        parent.increment("trials", 10)
        parent.merge(worker.snapshot())
        assert parent.counter_value("trials") == 110

    def test_disabled_is_inert(self):
        registry = MetricsRegistry(enabled=False)
        registry.increment("calls")
        registry.set_gauge("g", 1.0)
        registry.observe("t", 0.5)
        with registry.timer("t2"):
            pass
        registry.merge(
            MetricsSnapshot(counters={"smuggled": 1})
        )
        snap = registry.snapshot()
        assert snap.counters == {}
        assert snap.gauges == {}
        assert snap.timings == {}


class TestTracer:
    def test_span_tree_nesting(self):
        tracer = Tracer()
        with tracer.span("outer", kind="test"):
            with tracer.span("inner-1"):
                with tracer.span("leaf"):
                    pass
            with tracer.span("inner-2"):
                pass
        roots = tracer.roots()
        assert [r.name for r in roots] == ["outer"]
        outer = roots[0]
        assert [c.name for c in outer.children] == ["inner-1", "inner-2"]
        assert [c.name for c in outer.children[0].children] == ["leaf"]
        assert outer.meta == {"kind": "test"}

    def test_durations_nest(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.roots()[0]
        inner = outer.children[0]
        assert outer.duration_us >= inner.duration_us >= 0
        assert inner.start_us >= outer.start_us

    def test_sequential_roots(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert [r.name for r in tracer.roots()] == ["a", "b"]

    def test_to_json_shape(self):
        tracer = Tracer()
        with tracer.span("outer", n=3):
            with tracer.span("inner"):
                pass
        payload = tracer.to_json()
        # must be plain data, round-trippable through json
        restored = json.loads(json.dumps(payload))
        assert restored[0]["name"] == "outer"
        assert restored[0]["meta"] == {"n": 3}
        assert restored[0]["children"][0]["name"] == "inner"

    def test_chrome_trace_schema(self):
        """Every event carries the complete-event fields chrome://tracing
        and Perfetto require, with numeric non-negative timestamps."""
        tracer = Tracer()
        with tracer.span("outer", n=3):
            with tracer.span("inner"):
                pass
        events = tracer.chrome_trace_events()
        assert len(events) == 2
        for event in events:
            assert set(event) == {
                "name", "cat", "ph", "ts", "dur", "pid", "tid", "args"
            }
            assert event["ph"] == "X"
            assert event["cat"] == "repro"
            assert isinstance(event["ts"], float)
            assert isinstance(event["dur"], float)
            assert event["ts"] >= 0
            assert event["dur"] >= 0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
        json.dumps(events)  # serialisable end to end

    def test_disabled_tracer_shares_null_context(self):
        tracer = Tracer(enabled=False)
        first = tracer.span("a")
        second = tracer.span("b", key="value")
        assert first is second  # the shared no-op, no allocation
        with first:
            pass
        assert tracer.roots() == []

    def test_span_cap(self, monkeypatch):
        import repro.observability.tracing as tracing

        monkeypatch.setattr(tracing, "_MAX_SPANS", 3)
        tracer = Tracer()
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.roots()) == 3
        assert tracer.dropped == 2

    def test_traced_decorator(self):
        @traced("custom-name", flavour="test")
        def add(a, b):
            """Sum."""
            return a + b

        with use_instrumentation() as instr:
            assert add(2, 3) == 5
        roots = instr.tracer.roots()
        assert [r.name for r in roots] == ["custom-name"]
        assert roots[0].meta == {"flavour": "test"}
        # inert without an active instrument
        assert add(1, 1) == 2
        assert len(instr.tracer.roots()) == 1


class TestActiveInstrumentation:
    def test_default_is_null(self):
        assert get_instrumentation() is NULL_INSTRUMENTATION
        assert not NULL_INSTRUMENTATION.enabled

    def test_use_instrumentation_scopes_and_restores(self):
        before = get_instrumentation()
        with use_instrumentation() as instr:
            assert instr.enabled
            assert get_instrumentation() is instr
            with use_instrumentation() as nested:
                assert get_instrumentation() is nested
            assert get_instrumentation() is instr
        assert get_instrumentation() is before

    def test_set_instrumentation_returns_previous(self):
        mine = Instrumentation()
        previous = set_instrumentation(mine)
        try:
            assert get_instrumentation() is mine
        finally:
            assert set_instrumentation(None) is mine
        assert get_instrumentation() is NULL_INSTRUMENTATION
        assert previous is NULL_INSTRUMENTATION

    def test_shorthands_route_to_components(self):
        instr = Instrumentation()
        instr.increment("c", 2)
        instr.set_gauge("g", 1.5)
        instr.observe("t", 0.001)
        with instr.span("s"):
            pass
        snap = instr.metrics.snapshot()
        assert snap.counters["c"] == 2
        assert snap.gauges["g"] == 1.5
        assert snap.timings["t"].count == 1
        assert [r.name for r in instr.tracer.roots()] == ["s"]


class TestProgress:
    def test_shard_progress_properties(self):
        progress = ShardProgress(
            index=2,
            trials=1_000,
            wins=400,
            elapsed_seconds=0.5,
            completed_shards=3,
            total_shards=4,
        )
        assert progress.trials_per_second == pytest.approx(2_000.0)
        assert progress.fraction_done == pytest.approx(0.75)
        assert "shard 2" in str(progress)
        assert "3/4" in str(progress)

    def test_throughput_tracker(self):
        tracker = ThroughputTracker()
        assert tracker.rate is None
        tracker.record(1_000, 0.25)
        tracker.record(1_000, 0.25)
        assert tracker.units == 2_000
        assert tracker.rate == pytest.approx(4_000.0)
        with pytest.raises(ValueError):
            tracker.record(-1, 1.0)

    def test_disabled_tracker_inert(self):
        tracker = ThroughputTracker(enabled=False)
        tracker.record(100, 1.0)
        assert tracker.units == 0
        assert tracker.rate is None

    def test_format_rate(self):
        assert format_rate(None) == "n/a"
        assert format_rate(1234.5) == "1,234 trials/s"


class TestNonInterference:
    """Instrumentation observes; it must never change results."""

    def test_identical_results_any_worker_count(self):
        baseline = {}
        for workers in (1, 2, 4):
            summary = MonteCarloEngine(seed=5).estimate_winning_probability(
                system(), trials=8_192, workers=workers
            )
            baseline[workers] = summary.successes
        assert len(set(baseline.values())) == 1
        for workers in (1, 2, 4):
            with use_instrumentation():
                instrumented = MonteCarloEngine(
                    seed=5
                ).estimate_winning_probability(
                    system(), trials=8_192, workers=workers
                )
            assert instrumented.successes == baseline[workers]

    def test_serial_path_unchanged(self):
        plain = MonteCarloEngine(seed=6).estimate_winning_probability(
            system(), trials=4_096
        )
        with use_instrumentation():
            traced_run = MonteCarloEngine(
                seed=6
            ).estimate_winning_probability(system(), trials=4_096)
        assert traced_run.successes == plain.successes
        assert traced_run.interval == plain.interval


class TestShardReconciliation:
    """Per-shard telemetry must reconcile exactly with the estimate."""

    def test_metrics_match_summary(self):
        with use_instrumentation() as instr:
            result = estimate_winning_probability_sharded(
                system(), trials=10_000, shards=8, workers=2, factory=SeedSequenceFactory(7)
            )
        snap = instr.metrics.snapshot()
        assert snap.counters["shard.trials"] == result.summary.trials
        assert snap.counters["shard.wins"] == result.summary.successes
        assert snap.counters["shard.count"] == len(result.shard_outcomes)
        assert snap.timings["shard.seconds"].count == 8

    def test_progress_callback_reconciles(self):
        seen = []
        with use_instrumentation():
            result = estimate_winning_probability_sharded(
                system(),
                trials=10_000,
                shards=8,
                workers=2,
                factory=SeedSequenceFactory(7),
                progress=seen.append,
            )
        assert [p.index for p in seen] == list(range(8))
        assert [p.completed_shards for p in seen] == list(range(1, 9))
        assert all(p.total_shards == 8 for p in seen)
        assert sum(p.trials for p in seen) == result.summary.trials
        assert sum(p.wins for p in seen) == result.summary.successes
        assert seen[-1].fraction_done == 1.0

    def test_progress_callback_without_instrumentation(self):
        """The callback works on its own -- no active instrument needed."""
        seen = []
        result = estimate_winning_probability_sharded(
            system(), trials=4_000, shards=4, factory=SeedSequenceFactory(8), progress=seen.append
        )
        assert sum(p.wins for p in seen) == result.summary.successes

    def test_shard_outcomes_carry_timing(self):
        result = estimate_winning_probability_sharded(
            system(), trials=4_000, shards=4, factory=SeedSequenceFactory(9)
        )
        for outcome in result.shard_outcomes:
            assert outcome.elapsed_seconds is not None
            assert outcome.elapsed_seconds >= 0
            assert outcome.trials_per_second is None or (
                outcome.trials_per_second > 0
            )

    def test_timing_does_not_affect_equality(self):
        """elapsed_seconds is observational: outcomes from different
        worker counts still compare equal (the determinism contract)."""
        a = estimate_winning_probability_sharded(
            system(), trials=4_000, shards=4, workers=1, factory=SeedSequenceFactory(10)
        )
        b = estimate_winning_probability_sharded(
            system(), trials=4_000, shards=4, workers=2, factory=SeedSequenceFactory(10)
        )
        assert a.shard_outcomes == b.shard_outcomes


class TestReporting:
    @staticmethod
    def instrumented_run():
        with use_instrumentation() as instr:
            estimate_winning_probability_sharded(
                system(), trials=4_000, shards=4, factory=SeedSequenceFactory(11)
            )
        return instr

    def test_render_report_sections(self):
        instr = self.instrumented_run()
        text = render_report(instr, title="unit test")
        assert "unit test" in text
        assert "counters:" in text
        assert "shard.trials" in text
        assert "timings (seconds):" in text
        assert "throughput:" in text
        assert "spans:" in text
        assert "simulation.sharded_estimate" in text

    def test_render_report_empty(self):
        text = render_report(Instrumentation(), title="empty")
        assert "(nothing recorded)" in text

    def test_render_span_tree_depth_cap(self):
        tracer = Tracer()
        with tracer.span("l0"):
            with tracer.span("l1"):
                with tracer.span("l2"):
                    pass
        text = render_span_tree(tracer, max_depth=2)
        assert "l0" in text and "l1" in text
        assert "l2" not in text

    def test_chrome_trace_file(self, tmp_path):
        instr = self.instrumented_run()
        path = tmp_path / "trace.json"
        write_chrome_trace(path, instr.tracer)
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert events, "expected at least one trace event"
        assert all(e["ph"] == "X" for e in events)
        names = {e["name"] for e in events}
        assert "simulation.sharded_estimate" in names


class TestCliInstrumentation:
    """The --profile family must not change command output."""

    COMMAND = [
        "validate",
        "--grid-size", "3",
        "--trials", "4000",
        "--workers", "2",
    ]

    def test_profile_output_identical(self, capsys):
        from repro.cli import main

        assert main(list(self.COMMAND)) == 0
        plain = capsys.readouterr().out
        assert main(list(self.COMMAND) + ["--profile"]) == 0
        profiled = capsys.readouterr()
        assert profiled.out == plain  # stdout bit-identical
        assert "== repro validate ==" in profiled.err
        assert "shard.trials" in profiled.err

    def test_artifact_flags(self, tmp_path, capsys):
        from repro.cli import main

        metrics_path = tmp_path / "m.jsonl"
        trace_path = tmp_path / "t.json"
        assert main(
            list(self.COMMAND)
            + [
                "--metrics-out", str(metrics_path),
                "--trace-out", str(trace_path),
            ]
        ) == 0
        capsys.readouterr()
        assert metrics_path.exists()
        assert trace_path.exists()
        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"]
        # The export is the run's event log: its header carries the
        # common run stamp, so it joins with the trace and checkpoint.
        header = read_events(metrics_path).header
        assert header["command"] == "validate"
        assert len(header["run_id"]) == 16
        assert header["started_utc"].endswith("Z")
        assert trace["metadata"]["run_id"] == header["run_id"]

    def test_every_subcommand_accepts_flags(self, capsys, tmp_path):
        """The flag group is attached to all subcommands, not just the
        heavyweight ones."""
        from repro.cli import main

        assert main(
            ["case", "--n", "3", "--delta", "1", "--profile"]
        ) == 0
        err = capsys.readouterr().err
        assert "optimize.threshold_searches" in err
        assert main(
            [
                "uniformity",
                "--ns", "2", "3",
                "--metrics-out", str(tmp_path / "u.jsonl"),
            ]
        ) == 0
        capsys.readouterr()
        assert (tmp_path / "u.jsonl").exists()
