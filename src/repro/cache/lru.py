"""Thread-safe in-memory LRU tier.

One lock, one :class:`~collections.OrderedDict`; every operation is a
few dictionary moves.  Hit/miss/eviction events increment both a set
of internal integer counters (so ``repro cache stats`` works without
instrumentation) and -- when an instrument is active -- the shared
:class:`~repro.observability.metrics.MetricsRegistry` under the
``cache.*`` namespace, following the same resolve-at-call-time pattern
as the rest of the package.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro.observability import get_instrumentation

__all__ = ["LRUCache"]

#: Sentinel distinguishing "cached None" from "absent".
_MISSING = object()


class LRUCache:
    """A bounded least-recently-used map from key strings to values.

    Values are required (by the decorator layer) to be immutable, so a
    hit can hand back the stored object without copying.
    """

    def __init__(self, maxsize: int = 4096):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self._maxsize = int(maxsize)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def maxsize(self) -> int:
        return self._maxsize

    def get(
        self, key: str, count_miss: bool = True
    ) -> Tuple[bool, Optional[Any]]:
        """``(found, value)`` -- a hit refreshes the entry's recency.

        ``count_miss=False`` leaves a miss uncounted, for a lookup
        whose caller counts it on the full path it falls through to.
        """
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                if not count_miss:
                    return False, None
                self._misses += 1
                found = False
                value = None
            else:
                self._entries.move_to_end(key)
                self._hits += 1
                found = True
        instr = get_instrumentation()
        instr.increment("cache.hits" if found else "cache.misses")
        return found, value

    def put(self, key: str, value: Any) -> None:
        """Insert (or refresh) an entry, evicting the oldest on overflow."""
        evicted = 0
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1
                evicted += 1
        if evicted:
            get_instrumentation().increment("cache.evictions", evicted)

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
        return dropped

    def stats(self) -> Dict[str, int]:
        """Point-in-time counters (never reset by :meth:`clear`)."""
        with self._lock:
            return {
                "size": len(self._entries),
                "maxsize": self._maxsize,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"LRUCache(size={s['size']}/{s['maxsize']}, "
            f"hits={s['hits']}, misses={s['misses']}, "
            f"evictions={s['evictions']})"
        )
