"""Persistent cache tier: one checksummed JSON file per entry.

Storage discipline reuses the hardening of
:mod:`repro.simulation.results_store`:

* **Atomic writes.**  Every entry is written with
  :func:`repro.fsutil.atomic_write` (temp file, ``fsync``,
  :func:`os.replace`, directory ``fsync``) -- a crash or a concurrent
  reader/writer sees either a complete entry or none.  Two processes
  racing to cache the same key write byte-identical payloads, so the
  race is harmless.
* **Per-entry checksums.**  The payload carries a SHA-256 checksum of
  its own canonical serialisation; a flipped bit, a truncated file, or
  a hand-edited value fails verification and the entry is *deleted and
  recomputed*, counted as ``cache.disk_corrupt`` -- never served.
* **Version pinning.**  The kernel's code fingerprint is baked into
  the key (see :mod:`repro.cache.keys`), so an entry written by an
  older formula is simply never addressed again; as defence in depth
  the fingerprint is also stored *inside* the entry and re-verified on
  read, so even a hand-renamed or key-colliding file cannot smuggle a
  stale value in (counted as ``cache.disk_stale``).

* **Bounded growth.**  An optional ``max_bytes`` cap prunes the
  directory **oldest-first** (by modification time -- a hit does not
  refresh it, so this is insertion order in practice) after every
  write that pushes the total over the cap.  Eviction is counted as
  ``cache.disk_evictions``; an evicted entry is recomputed on next
  use, so the cap trades time, never correctness.  ``repro cache
  prune --max-bytes`` applies the same policy on demand.

Entries are small (a key, a rational, a checksum), and the directory
is flat: ``<cache_dir>/<key>.json``.
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.cache.codec import decode_value
from repro.cache.keys import CACHE_SCHEMA_VERSION
from repro.fsutil import atomic_write
from repro.observability import get_instrumentation

__all__ = ["DiskCache"]

_ENTRY_SUFFIX = ".json"


def _entry_checksum(
    key: str, kernel: str, fingerprint: str, value_payload: Any
) -> str:
    canonical = json.dumps(
        {
            "key": key,
            "kernel": kernel,
            "fingerprint": fingerprint,
            "value": value_payload,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


class DiskCache:
    """The persistent tier: ``get``/``put``/``clear`` over a directory."""

    def __init__(
        self,
        directory: Union[str, Path],
        max_bytes: Optional[int] = None,
    ):
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(
                f"max_bytes must be >= 0, got {max_bytes}"
            )
        self._directory = Path(directory)
        self._max_bytes = max_bytes
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._corrupt = 0
        self._stale = 0
        self._evictions = 0

    @property
    def directory(self) -> Path:
        return self._directory

    def _path_for(self, key: str) -> Path:
        return self._directory / f"{key}{_ENTRY_SUFFIX}"

    def _count(self, field: str, metric: str) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + 1)
        get_instrumentation().increment(metric)

    def _discard(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def get(
        self, key: str, fingerprint: str
    ) -> Tuple[bool, Optional[Any]]:
        """``(found, value)``; corrupt or stale entries are deleted.

        Every failure mode -- unreadable file, invalid JSON, checksum
        mismatch, undecodable value -- degrades to a miss plus a
        recompute; the cache can lose time to damage, never
        correctness.
        """
        path = self._path_for(key)
        try:
            raw = path.read_text()
        except OSError:
            self._count("_misses", "cache.disk_misses")
            return False, None
        try:
            payload = json.loads(raw)
            if not isinstance(payload, dict):
                raise ValueError("entry is not a JSON object")
            if payload.get("schema_version") != CACHE_SCHEMA_VERSION:
                raise ValueError(
                    f"schema_version {payload.get('schema_version')!r}"
                )
            expected = _entry_checksum(
                payload["key"],
                payload["kernel"],
                payload["fingerprint"],
                payload["value"],
            )
            if payload.get("checksum") != expected or payload["key"] != key:
                raise ValueError("checksum mismatch")
            value = decode_value(payload["value"])
        except (ValueError, KeyError, TypeError):
            self._count("_corrupt", "cache.disk_corrupt")
            self._discard(path)
            return False, None
        if payload["fingerprint"] != fingerprint:
            self._count("_stale", "cache.disk_stale")
            self._discard(path)
            return False, None
        self._count("_hits", "cache.disk_hits")
        return True, value

    def put(
        self, key: str, fingerprint: str, kernel: str, value_payload: Any
    ) -> None:
        """Persist one encoded entry atomically (tmp + fsync + replace).

        An unwritable directory degrades to a no-op: the disk tier is
        an accelerator, never a correctness dependency.
        """
        entry = {
            "schema_version": CACHE_SCHEMA_VERSION,
            "key": key,
            "kernel": kernel,
            "fingerprint": fingerprint,
            "value": value_payload,
            "checksum": _entry_checksum(
                key, kernel, fingerprint, value_payload
            ),
        }
        try:
            atomic_write(
                self._path_for(key),
                json.dumps(entry, separators=(",", ":")),
            )
        except OSError:
            return
        self._count("_writes", "cache.disk_writes")
        if self._max_bytes is not None:
            self.prune(self._max_bytes)

    @property
    def max_bytes(self) -> Optional[int]:
        """The size cap, or ``None`` when the tier is unbounded."""
        return self._max_bytes

    def total_bytes(self) -> int:
        """Bytes currently held by entry files."""
        total = 0
        try:
            for path in self._directory.iterdir():
                if path.suffix == _ENTRY_SUFFIX:
                    try:
                        total += path.stat().st_size
                    except OSError:
                        pass
        except OSError:
            return 0
        return total

    def prune(self, max_bytes: int) -> int:
        """Evict oldest-first until the tier fits *max_bytes*.

        Returns how many entries were evicted.  Age is modification
        time (ties broken by name for determinism); a concurrently
        vanished file simply does not need evicting.  Counted per
        entry as ``cache.disk_evictions``.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        try:
            entries = []
            for path in self._directory.iterdir():
                if path.suffix != _ENTRY_SUFFIX:
                    continue
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((stat.st_mtime_ns, path.name, path,
                                stat.st_size))
        except OSError:
            return 0
        total = sum(size for _, _, _, size in entries)
        evicted = 0
        for _, _, path, size in sorted(entries):
            if total <= max_bytes:
                break
            self._discard(path)
            total -= size
            evicted += 1
            self._count("_evictions", "cache.disk_evictions")
        return evicted

    def entry_count(self) -> int:
        """How many entries currently sit in the directory."""
        try:
            return sum(
                1
                for p in self._directory.iterdir()
                if p.suffix == _ENTRY_SUFFIX
            )
        except OSError:
            return 0

    def clear(self) -> int:
        """Delete every entry file; returns how many were removed."""
        removed = 0
        try:
            entries = list(self._directory.iterdir())
        except OSError:
            return 0
        for path in entries:
            if path.suffix == _ENTRY_SUFFIX:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "directory": str(self._directory),
                "entries": self.entry_count(),
                "total_bytes": self.total_bytes(),
                "max_bytes": self._max_bytes,
                "hits": self._hits,
                "misses": self._misses,
                "writes": self._writes,
                "corrupt": self._corrupt,
                "stale": self._stale,
                "evictions": self._evictions,
            }

    def __repr__(self) -> str:
        return f"DiskCache({self._directory})"
