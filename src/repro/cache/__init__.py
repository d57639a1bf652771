"""Cross-layer memoization for exact kernels (``repro.cache``).

The reproduction's numbers come from pure functions of exact rational
arguments -- the closed-form CDFs of Lemma 2.4, the order-statistic
geometry of Section 3, the winning-probability theorems of Sections
4-5, and the optimisers built on top of them.  Sweeps, figures, and
the cross-validation oracle revisit the same ``(argument, kernel)``
pairs constantly; this package makes each pair compute once.

Two tiers:

* a thread-safe in-memory LRU (:class:`~repro.cache.lru.LRUCache`),
  always on while caching is enabled;
* an optional persistent directory tier
  (:class:`~repro.cache.disk.DiskCache`) with atomic writes, per-entry
  checksums, and code-version fingerprints, enabled via
  ``repro --cache-dir`` or ``REPRO_CACHE_DIR``.

Public surface:

* :func:`memoized_kernel` -- decorator threading a kernel through the
  tiers;
* :func:`configure_cache` / :func:`cache_enabled` -- process-wide
  switches (``--no-cache`` / ``REPRO_NO_CACHE`` map here);
  :func:`restored_cache_settings` scopes them to one CLI command;
* :func:`bypass_cache` -- scoped thread-local bypass used by
  ``repro check`` so the oracle cross-validates *fresh* values;
* :func:`cache_stats` / :func:`clear_cache` /
  :func:`registered_kernels` -- introspection behind
  ``repro cache stats|clear|warm``.

Correctness invariants (tested in ``tests/test_cache.py``):

1. a hit returns a value *identical* to recomputation -- keys
   canonicalise exactly, the disk codec is lossless, and only
   immutable results are cached;
2. a stale entry is unreachable -- the kernel source fingerprint is
   baked into the key and re-verified inside each disk payload;
3. a damaged entry is deleted and recomputed, never served -- every
   disk read verifies a SHA-256 checksum first.
"""

from repro.cache.codec import UnencodableValueError, decode_value, encode_value
from repro.cache.decorator import (
    DEFAULT_MAXSIZE,
    bypass_cache,
    cache_enabled,
    cache_stats,
    clear_cache,
    configure_cache,
    memoized_kernel,
    prune_disk_cache,
    registered_kernels,
    restored_cache_settings,
)
from repro.cache.disk import DiskCache
from repro.cache.keys import (
    CACHE_SCHEMA_VERSION,
    UncacheableArgumentError,
    cache_key,
    canonical_token,
    kernel_fingerprint,
)
from repro.cache.lru import LRUCache

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_MAXSIZE",
    "DiskCache",
    "LRUCache",
    "UncacheableArgumentError",
    "UnencodableValueError",
    "bypass_cache",
    "cache_enabled",
    "cache_key",
    "cache_stats",
    "canonical_token",
    "clear_cache",
    "configure_cache",
    "decode_value",
    "encode_value",
    "kernel_fingerprint",
    "memoized_kernel",
    "prune_disk_cache",
    "registered_kernels",
    "restored_cache_settings",
]
