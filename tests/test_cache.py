"""Tests for the exact-kernel memoization cache (``repro.cache``).

The invariants a memoization layer must never violate here:

1. cached and freshly computed values are *identical* (not merely
   close) -- cold-vs-warm determinism;
2. a damaged persistent entry is detected, deleted and recomputed,
   never served;
3. an entry written by an older version of a kernel's source is
   unreachable (fingerprint in the key) and rejected even if smuggled
   under the right filename (fingerprint in the payload);
4. ``bypass_cache`` makes every kernel recompute, reading and writing
   nothing -- the property ``repro check`` relies on.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from repro.cache import (
    DiskCache,
    LRUCache,
    UncacheableArgumentError,
    UnencodableValueError,
    bypass_cache,
    cache_key,
    cache_stats,
    canonical_token,
    clear_cache,
    configure_cache,
    decode_value,
    encode_value,
    kernel_fingerprint,
    memoized_kernel,
)
from repro.fsutil import _sealed_line


# ----------------------------------------------------------------------
# Keys and canonicalisation
# ----------------------------------------------------------------------
class TestCanonicalKeys:
    def test_rational_spellings_share_a_token(self):
        assert (
            canonical_token(0.5)
            == canonical_token(Fraction(1, 2))
            == canonical_token("1/2")
            == "1/2"
        )

    def test_floats_canonicalise_exactly(self):
        # 0.1 is NOT 1/10 in binary; the token must be the exact
        # binary rational, never a rounded reading.
        assert canonical_token(0.1) == canonical_token(Fraction(0.1))
        assert canonical_token(0.1) != canonical_token(Fraction(1, 10))

    def test_bool_none_and_int_are_distinct(self):
        assert canonical_token(True) != canonical_token(1)
        assert canonical_token(False) != canonical_token(0)
        assert canonical_token(None) not in {
            canonical_token(0),
            canonical_token(False),
        }

    def test_sequences_nest(self):
        assert canonical_token([1, (2, 3)]) == "(1/1,(2/1,3/1))"
        assert canonical_token([]) == "()"

    def test_uncacheable_argument_raises(self):
        with pytest.raises(UncacheableArgumentError):
            canonical_token(object())
        with pytest.raises(UncacheableArgumentError):
            canonical_token(float("nan"))

    def test_key_depends_on_arguments_and_fingerprint(self):
        base = cache_key("k", "fp", (1, 2), {})
        assert cache_key("k", "fp", (1, 2), {}) == base
        assert cache_key("k", "fp", (2, 1), {}) != base
        assert cache_key("k", "fp2", (1, 2), {}) != base
        assert cache_key("k2", "fp", (1, 2), {}) != base
        assert cache_key("k", "fp", (1, 2), {"w": 3}) != base

    def test_fingerprint_tracks_source(self):
        def f(x):
            return x + 1

        def g(x):
            return x + 2

        assert kernel_fingerprint(f) != kernel_fingerprint(g)


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------
class TestCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -7,
            10**40,
            Fraction(-22, 7),
            (Fraction(1, 3), [1, None], (True,)),
            [],
        ],
    )
    def test_roundtrip_identity(self, value):
        assert decode_value(encode_value(value)) == value

    def test_roundtrip_preserves_types(self):
        out = decode_value(encode_value((1, [Fraction(1, 2)], True)))
        assert isinstance(out, tuple)
        assert isinstance(out[1], list)
        assert isinstance(out[1][0], Fraction)
        assert out[2] is True

    def test_floats_are_not_encodable(self):
        # Kernels return exact values; a float reaching the codec is a
        # bug upstream, not something to round-trip approximately.
        with pytest.raises(UnencodableValueError):
            encode_value(0.5)

    def test_decode_rejects_junk(self):
        with pytest.raises(ValueError):
            decode_value({"t": "mystery", "v": 1})
        with pytest.raises(ValueError):
            decode_value("loose string")


# ----------------------------------------------------------------------
# Memory tier
# ----------------------------------------------------------------------
class TestLRUCache:
    def test_hit_miss_eviction_counters(self):
        lru = LRUCache(maxsize=2)
        assert lru.get("a") == (False, None)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == (True, 1)
        lru.put("c", 3)  # evicts b (a was refreshed by the hit)
        assert lru.get("b") == (False, None)
        assert lru.get("a") == (True, 1)
        stats = lru.stats()
        assert stats["evictions"] == 1
        assert stats["hits"] == 2
        assert stats["misses"] == 2

    def test_cached_none_is_a_hit(self):
        lru = LRUCache()
        lru.put("k", None)
        assert lru.get("k") == (True, None)

    def test_clear_reports_dropped(self):
        lru = LRUCache()
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.clear() == 2
        assert len(lru) == 0


# ----------------------------------------------------------------------
# Decorator semantics
# ----------------------------------------------------------------------
class TestMemoizedKernel:
    def test_cold_vs_warm_identical_value(self):
        calls = []

        @memoized_kernel
        def kernel(a, b):
            calls.append((a, b))
            return Fraction(a) + Fraction(b)

        cold = kernel("1/3", "1/6")
        warm = kernel(Fraction(1, 3), Fraction(1, 6))
        assert cold == warm == Fraction(1, 2)
        assert len(calls) == 1  # the second spelling hit the cache

    def test_bypass_recomputes_and_writes_nothing(self):
        calls = []

        @memoized_kernel
        def kernel(a):
            calls.append(a)
            return Fraction(a) * 2

        with bypass_cache():
            assert kernel(3) == 6
            assert kernel(3) == 6
        assert len(calls) == 2  # no read, no write
        assert kernel(3) == 6
        assert len(calls) == 3  # cache was still cold after the bypass

    def test_disabled_cache_recomputes(self):
        calls = []

        @memoized_kernel
        def kernel(a):
            calls.append(a)
            return Fraction(a)

        configure_cache(enabled=False)
        try:
            kernel(1)
            kernel(1)
        finally:
            configure_cache(enabled=True)
        assert len(calls) == 2

    def test_uncacheable_arguments_fall_through(self):
        calls = []

        @memoized_kernel
        def kernel(a):
            calls.append(a)
            return 0

        probe = object()
        kernel(probe)
        kernel(probe)
        assert len(calls) == 2

    def test_exceptions_are_not_cached(self):
        calls = []

        @memoized_kernel
        def kernel(a):
            calls.append(a)
            raise ValueError("boom")

        for _ in range(2):
            with pytest.raises(ValueError):
                kernel(1)
        assert len(calls) == 2

    def test_counters_flow_into_metrics_registry(self):
        from repro.observability import use_instrumentation

        @memoized_kernel
        def kernel(a):
            return Fraction(a)

        with use_instrumentation() as instr:
            kernel(5)
            kernel(5)
        counters = instr.metrics.snapshot().counters
        assert counters["cache.misses"] == 1
        assert counters["cache.hits"] == 1


# ----------------------------------------------------------------------
# Disk tier
# ----------------------------------------------------------------------
class TestDiskTier:
    @pytest.fixture
    def disk_kernel(self, tmp_path):
        """A persisted kernel plus its call log and cache directory."""
        calls = []

        @memoized_kernel
        def kernel(a, b):
            calls.append((a, b))
            return Fraction(a) + Fraction(b)

        configure_cache(directory=tmp_path)
        yield kernel, calls, tmp_path
        configure_cache(directory=None)

    def _only_entry(self, directory):
        entries = [p for p in directory.iterdir() if p.suffix == ".json"]
        assert len(entries) == 1
        return entries[0]

    def test_warm_start_from_disk_is_identical(self, disk_kernel):
        kernel, calls, _ = disk_kernel
        cold = kernel(1, "1/2")
        clear_cache(include_disk=False)  # simulate a fresh process
        warm = kernel(1, "1/2")
        assert cold == warm == Fraction(3, 2)
        assert len(calls) == 1  # second call served from disk

    def test_corrupt_entry_detected_and_recomputed(self, disk_kernel):
        kernel, calls, directory = disk_kernel
        value = kernel(1, 2)
        path = self._only_entry(directory)
        payload = json.loads(path.read_text())
        payload["value"] = encode_value(Fraction(999))  # tamper
        path.write_text(json.dumps(payload))

        clear_cache(include_disk=False)
        assert kernel(1, 2) == value  # recomputed, not the tampered 999
        assert len(calls) == 2
        assert cache_stats()["disk"]["corrupt"] == 1
        # The damaged file was deleted and replaced by the recompute.
        fresh = json.loads(self._only_entry(directory).read_text())
        assert decode_value(fresh["value"]) == value

    def test_truncated_entry_detected_and_recomputed(self, disk_kernel):
        kernel, calls, directory = disk_kernel
        value = kernel(1, 2)
        path = self._only_entry(directory)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        clear_cache(include_disk=False)
        assert kernel(1, 2) == value
        assert len(calls) == 2
        assert cache_stats()["disk"]["corrupt"] == 1

    def test_stale_fingerprint_rejected_even_under_right_key(
        self, disk_kernel
    ):
        """Defence in depth: an entry whose checksum is self-consistent
        but whose payload fingerprint is old must be rejected."""
        kernel, calls, directory = disk_kernel
        value = kernel(1, 2)
        path = self._only_entry(directory)
        payload = json.loads(path.read_text())
        del payload["checksum"]
        payload["fingerprint"] = "0" * 64
        path.write_text(_sealed_line(payload))

        clear_cache(include_disk=False)
        assert kernel(1, 2) == value
        assert len(calls) == 2
        assert cache_stats()["disk"]["stale"] == 1

    def test_code_change_invalidates_old_entries(self, tmp_path):
        """Two kernels sharing a cache label but differing in source
        must never share entries: the fingerprint is part of the key."""
        configure_cache(directory=tmp_path)
        try:

            @memoized_kernel(name="shared.label")
            def version_one(a):
                return Fraction(a) + 1

            @memoized_kernel(name="shared.label")
            def version_two(a):
                return Fraction(a) + 2

            assert version_one(10) == 11
            clear_cache(include_disk=False)
            # Same label, same argument -- but the new source produces
            # a different key, so the old persisted value is unreachable.
            assert version_two(10) == 12
        finally:
            configure_cache(directory=None)

    def test_unwritable_directory_degrades_gracefully(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        disk = DiskCache(blocker / "sub")
        disk.put("k" * 64, "fp", "kernel", encode_value(Fraction(1)))
        assert disk.get("k" * 64, "fp") == (False, None)

    def test_clear_cache_reports_both_tiers(self, disk_kernel):
        kernel, _, _ = disk_kernel
        kernel(1, 2)
        removed = clear_cache()
        assert removed == {"memory": 1, "disk": 1}


# ----------------------------------------------------------------------
# Cached kernels agree with fresh computation across the package
# ----------------------------------------------------------------------
class TestKernelIntegration:
    def test_probability_kernels_cold_vs_warm(self):
        from repro.probability.uniform_sums import (
            irwin_hall_cdf,
            sum_uniform_cdf,
        )

        grid = [Fraction(i, 7) for i in range(1, 14)]
        cold = [
            (sum_uniform_cdf(t, [1, 1, 1]), irwin_hall_cdf(t, 3))
            for t in grid
        ]
        warm = [
            (sum_uniform_cdf(t, [1, 1, 1]), irwin_hall_cdf(t, 3))
            for t in grid
        ]
        with bypass_cache():
            fresh = [
                (sum_uniform_cdf(t, [1, 1, 1]), irwin_hall_cdf(t, 3))
                for t in grid
            ]
        assert cold == warm == fresh

    def test_core_kernels_cold_vs_warm(self):
        from repro.core.nonoblivious import (
            symmetric_threshold_winning_probability,
        )
        from repro.core.oblivious import oblivious_winning_probability

        warm = symmetric_threshold_winning_probability(
            Fraction(1, 2), 3, 1
        )
        obl = oblivious_winning_probability(1, [Fraction(1, 2)] * 3)
        with bypass_cache():
            assert (
                symmetric_threshold_winning_probability(
                    Fraction(1, 2), 3, 1
                )
                == warm
            )
            assert (
                oblivious_winning_probability(1, [Fraction(1, 2)] * 3)
                == obl
            )

    def test_optimizer_memoizes_in_memory_only(self, tmp_path):
        from repro.optimize.threshold_opt import (
            optimal_symmetric_threshold,
        )

        configure_cache(directory=tmp_path)
        try:
            first = optimal_symmetric_threshold(3, 1)
            second = optimal_symmetric_threshold(3, 1)
            # persist=False: memory hit returns the same object, and
            # nothing is written to disk for the optimiser record.
            assert second is first
            assert not any(
                p.suffix == ".json" for p in tmp_path.iterdir()
            )
        finally:
            configure_cache(directory=None)

    def test_disk_roundtrip_of_exact_kernels(self, tmp_path):
        from repro.core.nonoblivious import (
            symmetric_threshold_winning_probability,
        )

        configure_cache(directory=tmp_path)
        try:
            cold = symmetric_threshold_winning_probability(
                Fraction(2, 5), 4, Fraction(4, 3)
            )
            clear_cache(include_disk=False)
            warm = symmetric_threshold_winning_probability(
                Fraction(2, 5), 4, Fraction(4, 3)
            )
            assert warm == cold
            assert cache_stats()["disk"]["hits"] >= 1
        finally:
            configure_cache(directory=None)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCacheCli:
    def test_stats_prints_json(self, capsys):
        from repro.cli import main

        assert main(["cache", "stats"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["enabled"] is True
        assert payload["kernels"] > 0
        assert payload["disk"] is None

    def test_warm_requires_persistent_tier(self, capsys):
        from repro.cli import main

        assert main(["cache", "warm"]) == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_warm_then_stats_then_clear(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "kc")
        assert main(
            [
                "cache", "warm",
                "--cache-dir", cache_dir,
                "--ns", "2", "3",
                "--grid-size", "5",
            ]
        ) == 0
        assert "persistent tier now holds" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["disk"]["entries"] > 0
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "disk entries" in capsys.readouterr().out
        assert not any(
            p.suffix == ".json" for p in (tmp_path / "kc").iterdir()
        )

    def test_no_cache_flag_disables_memoization(self, capsys):
        from repro.cache import cache_enabled
        from repro.cli import main

        before = cache_stats()["memory"]
        assert main(["case", "--n", "2", "--delta", "1", "--no-cache"]) == 0
        after = cache_stats()["memory"]
        # no kernel touched the memory tier during the run ...
        assert after["size"] == 0
        assert (after["hits"], after["misses"]) == (
            before["hits"], before["misses"]
        )
        # ... and the flag did not outlive the command
        assert cache_enabled()

    def test_cache_flags_last_for_one_command(self, tmp_path, capsys):
        """``--cache-dir``, ``--max-bytes`` and ``--no-cache`` change
        the process-wide cache for their own command only, also when
        the command fails."""
        from repro.cache import cache_enabled, configure_cache
        from repro.cli import main

        home = tmp_path / "home"
        configure_cache(directory=home)
        assert main(
            [
                "cache", "warm",
                "--cache-dir", str(tmp_path / "other"),
                "--max-bytes", "0",
                "--ns", "2",
                "--grid-size", "3",
            ]
        ) == 0
        disk = cache_stats()["disk"]
        assert (disk["directory"], disk["max_bytes"]) == (str(home), None)
        assert main(["case", "--n", "2", "--delta", "1", "--no-cache"]) == 0
        assert cache_enabled()
        assert main(["case", "--n", "0", "--delta", "1", "--no-cache"]) == 2
        assert cache_enabled()
        configure_cache(directory=None)

    def test_cache_flags_restored_when_the_command_raises(
        self, monkeypatch
    ):
        import repro.cli
        from repro.cache import cache_enabled

        def crash(args):
            raise RuntimeError("command crashed")

        monkeypatch.setattr(repro.cli, "_dispatch_mapped", crash)
        with pytest.raises(RuntimeError):
            repro.cli.main(["case", "--n", "2", "--delta", "1", "--no-cache"])
        assert cache_enabled()

    def test_cold_and_warm_cli_output_identical(self, tmp_path, capsys):
        """The acceptance property: a cold-cache run and a warm-cache
        run of the same command print byte-identical artefacts."""
        from repro.cli import main

        cache_dir = str(tmp_path / "kc")
        assert main(
            ["case", "--n", "3", "--delta", "1", "--cache-dir", cache_dir]
        ) == 0
        cold = capsys.readouterr().out
        clear_cache(include_disk=False)  # fresh process, warm disk
        assert main(
            ["case", "--n", "3", "--delta", "1", "--cache-dir", cache_dir]
        ) == 0
        warm = capsys.readouterr().out
        assert warm == cold
        clear_cache(include_disk=False)
        assert main(["case", "--n", "3", "--delta", "1", "--no-cache"]) == 0
        uncached = capsys.readouterr().out
        assert uncached == cold


# ----------------------------------------------------------------------
# Bounded persistent tier (max_bytes, oldest-first eviction)
# ----------------------------------------------------------------------
class TestBoundedDiskTier:
    def fill(self, tmp_path, count=6, **kwargs):
        """A DiskCache holding *count* same-shaped entries, oldest
        first by mtime (nudged so ordering is deterministic)."""
        cache = DiskCache(tmp_path, **kwargs)
        fingerprint = "f" * 16
        paths = []
        for index in range(count):
            key = f"entry-{index}"
            cache.put(
                key, fingerprint, "kernel", encode_value(Fraction(index, 7))
            )
            path = cache._path_for(key)
            import os as _os

            _os.utime(path, ns=(10**9 * (index + 1),) * 2)
            paths.append(path)
        return cache, fingerprint, paths

    def test_prune_evicts_oldest_first(self, tmp_path):
        cache, fingerprint, paths = self.fill(tmp_path)
        sizes = [p.stat().st_size for p in paths]
        keep = sum(sizes[-2:])  # room for exactly the two newest
        evicted = cache.prune(keep)
        assert evicted == 4
        survivors = sorted(p.name for p in tmp_path.iterdir())
        assert survivors == sorted(p.name for p in paths[-2:])
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == 4
        assert stats["total_bytes"] <= keep

    def test_prune_to_zero_empties_the_tier(self, tmp_path):
        cache, _, _ = self.fill(tmp_path, count=3)
        assert cache.prune(0) == 3
        assert cache.stats()["entries"] == 0

    def test_capped_cache_prunes_on_every_put(self, tmp_path):
        cache, fingerprint, paths = self.fill(tmp_path, count=1)
        entry_size = paths[0].stat().st_size
        capped = DiskCache(tmp_path, max_bytes=entry_size * 2)
        for index in range(5):
            capped.put(
                f"late-{index}", fingerprint, "kernel",
                encode_value(Fraction(1, 3)),
            )
        stats = capped.stats()
        assert stats["total_bytes"] <= entry_size * 2
        assert stats["evictions"] >= 3
        assert stats["max_bytes"] == entry_size * 2

    def test_evicted_entry_recomputes_instead_of_serving(self, tmp_path):
        calls = []

        @memoized_kernel
        def kernel(a):
            calls.append(a)
            return Fraction(a, 9)

        configure_cache(directory=tmp_path, max_bytes=0)
        try:
            assert kernel(4) == Fraction(4, 9)
            clear_cache(include_disk=False)  # drop the memory tier
            assert kernel(4) == Fraction(4, 9)  # disk held nothing
            assert calls == [4, 4]
        finally:
            configure_cache(directory=None, max_bytes=None)

    def test_negative_max_bytes_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            DiskCache(tmp_path, max_bytes=-1)
        with pytest.raises(ValueError):
            DiskCache(tmp_path).prune(-1)

    def test_prune_disk_cache_requires_persistent_tier(self):
        from repro.cache import prune_disk_cache

        with pytest.raises(ValueError):
            prune_disk_cache(1024)

    def test_evictions_flow_into_metrics_registry(self, tmp_path):
        from repro.observability import use_instrumentation

        with use_instrumentation() as instr:
            cache, _, _ = self.fill(tmp_path, count=2)
            cache.prune(0)
        counters = instr.metrics.snapshot().counters
        assert counters["cache.disk_evictions"] == 2


class TestCachePruneCli:
    def warm(self, cache_dir):
        from repro.cli import main

        assert main(
            [
                "cache", "warm",
                "--cache-dir", cache_dir,
                "--ns", "2", "3",
                "--grid-size", "5",
            ]
        ) == 0

    def test_prune_requires_max_bytes(self, capsys):
        from repro.cli import main

        assert main(["cache", "prune"]) == 2
        assert "--max-bytes" in capsys.readouterr().err

    def test_prune_requires_persistent_tier(self, capsys):
        from repro.cli import main

        assert main(["cache", "prune", "--max-bytes", "1024"]) == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_prune_shrinks_the_tier(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "kc")
        self.warm(cache_dir)
        capsys.readouterr()
        assert main(
            ["cache", "stats", "--cache-dir", cache_dir]
        ) == 0
        before = json.loads(capsys.readouterr().out)["disk"]
        assert before["entries"] > 1
        keep = before["total_bytes"] // 2
        assert main(
            [
                "cache", "prune",
                "--cache-dir", cache_dir,
                "--max-bytes", str(keep),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "evicted" in out
        assert main(
            ["cache", "stats", "--cache-dir", cache_dir]
        ) == 0
        after = json.loads(capsys.readouterr().out)["disk"]
        assert after["total_bytes"] <= keep
        assert after["entries"] < before["entries"]

    def test_max_bytes_with_warm_caps_during_the_run(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        cache_dir = str(tmp_path / "kc")
        assert main(
            [
                "cache", "warm",
                "--cache-dir", cache_dir,
                "--ns", "2", "3",
                "--grid-size", "5",
                "--max-bytes", "0",
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            ["cache", "stats", "--cache-dir", cache_dir]
        ) == 0
        stats = json.loads(capsys.readouterr().out)["disk"]
        assert stats["entries"] == 0  # every write was pruned away


class TestAtomicWrite:
    """Every store that writes through ``repro.fsutil.atomic_write``
    survives a crash between writing the temp file and the rename.
    The disk cache is the one such store."""

    @pytest.mark.parametrize("store", ["disk-cache"])
    def test_every_writer_replaces_atomically(
        self, tmp_path, monkeypatch, store
    ):
        # the rename fails after the temp file is written, so the
        # original must survive, with no litter
        import os

        cache = DiskCache(tmp_path)
        cache.put("k" * 64, "fingerprint", "kernel", 1)
        (path,) = tmp_path.iterdir()
        before = path.read_text()

        def crash(source, target):
            raise OSError("simulated crash before the rename")

        monkeypatch.setattr(os, "replace", crash)
        # the disk tier treats a failed write as a no-op
        cache.put("k" * 64, "fingerprint", "kernel", 2)
        monkeypatch.undo()
        assert path.read_text() == before
        assert [p.name for p in path.parent.iterdir()] == [path.name]
