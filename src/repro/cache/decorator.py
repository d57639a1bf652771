"""The ``@memoized_kernel`` decorator and the process-wide cache state.

A *kernel* here is a pure function of exact rational arguments -- the
closed forms of the paper (Lemmas 2.4-2.7, Proposition 2.2, Theorems
4.1/4.3/5.1) and the optimiser entry points built from them.  Every
figure and table is a sweep over such kernels, and sweeps revisit the
same arguments constantly (shared breakpoints, repeated ``(n, delta)``
pairs, the `repro check` grid), so memoization makes repeated sweeps
scale sub-linearly with grid size.

Policy, in order, per call:

1. caching disabled (globally or via :func:`bypass_cache`): call the
   kernel directly -- the cache must be impossible to distinguish from
   recomputation except by wall clock;
2. arguments that cannot be canonically keyed: call directly, count
   ``cache.uncacheable``;
3. memory tier (always on when caching is on);
4. disk tier (only when a cache directory is configured *and* the
   kernel was declared ``persist=True`` and its result encodes
   losslessly); a disk hit is promoted into memory;
5. compute, then populate both tiers.

Every wrapper also carries ``peek``, a memory-tier-only lookup that
never computes and never touches disk: an event loop can take a
resident result without leaving the loop, and hand a miss to an
executor that runs the full wrapper.

The decorator never changes a computed value: hits return the same
immutable objects (``Fraction`` and friends) the kernel produced, and
the key bakes in a source-code fingerprint so a formula edit
invalidates every old entry (see :mod:`repro.cache.keys`).
"""

from __future__ import annotations

import functools
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.cache.codec import UnencodableValueError, encode_value
from repro.cache.disk import DiskCache
from repro.cache.keys import (
    UncacheableArgumentError,
    cache_key,
    kernel_fingerprint,
)
from repro.cache.lru import LRUCache
from repro.observability import get_instrumentation

__all__ = [
    "bypass_cache",
    "cache_enabled",
    "cache_stats",
    "clear_cache",
    "configure_cache",
    "memoized_kernel",
    "prune_disk_cache",
    "registered_kernels",
]

#: Default capacity of the in-memory tier; large enough for the
#: paper's densest grids, small enough that worst-case entries
#: (piecewise polynomials) stay a few megabytes.
DEFAULT_MAXSIZE = 4096

_UNSET = object()


class _CacheState:
    """The process-wide cache configuration behind one lock."""

    def __init__(self) -> None:
        self.enabled = os.environ.get("REPRO_NO_CACHE", "") not in (
            "1",
            "true",
            "yes",
        )
        self.memory = LRUCache(DEFAULT_MAXSIZE)
        env_dir = os.environ.get("REPRO_CACHE_DIR")
        env_max = os.environ.get("REPRO_CACHE_MAX_BYTES")
        self.disk_max_bytes: Optional[int] = (
            int(env_max) if env_max else None
        )
        self.disk: Optional[DiskCache] = (
            DiskCache(env_dir, max_bytes=self.disk_max_bytes)
            if env_dir
            else None
        )


_state = _CacheState()
_state_lock = threading.Lock()
_bypass = threading.local()

#: Labels of every decorated kernel, for stats and the warm command.
_registered: List[str] = []


def registered_kernels() -> List[str]:
    """Labels of all ``@memoized_kernel``-decorated functions."""
    return list(_registered)


def cache_enabled() -> bool:
    """Whether memoization is active for the *current thread*."""
    return _state.enabled and getattr(_bypass, "depth", 0) == 0


def configure_cache(
    enabled: Optional[bool] = None,
    directory: Union[str, Path, None, object] = _UNSET,
    maxsize: Optional[int] = None,
    max_bytes: Union[int, None, object] = _UNSET,
) -> None:
    """Reconfigure the process-wide cache.

    ``enabled=False`` turns every tier off (``repro --no-cache``);
    ``directory=PATH`` attaches the persistent tier
    (``repro --cache-dir``), ``directory=None`` detaches it; *maxsize*
    replaces the memory tier (dropping its entries); *max_bytes* caps
    the persistent tier's on-disk size with oldest-first eviction
    (``None`` lifts the cap; also honours REPRO_CACHE_MAX_BYTES).
    Omitted parameters keep their current setting.
    """
    with _state_lock:
        if enabled is not None:
            _state.enabled = bool(enabled)
        if max_bytes is not _UNSET:
            _state.disk_max_bytes = max_bytes
            if directory is _UNSET and _state.disk is not None:
                # re-cap the already-attached tier in place
                directory = _state.disk.directory
        if directory is not _UNSET:
            _state.disk = (
                None
                if directory is None
                else DiskCache(
                    directory, max_bytes=_state.disk_max_bytes
                )
            )
        if maxsize is not None:
            _state.memory = LRUCache(maxsize)


@contextmanager
def bypass_cache() -> Iterator[None]:
    """Scoped, thread-local bypass: inside the block every memoized
    kernel recomputes from scratch and neither reads nor writes any
    tier.

    This is how ``repro check`` stays an honest oracle: its analytic
    routes are evaluated fresh, so a cached value elsewhere in the
    process is *cross-validated against* a clean recomputation rather
    than compared with itself.
    """
    _bypass.depth = getattr(_bypass, "depth", 0) + 1
    try:
        yield
    finally:
        _bypass.depth -= 1


def clear_cache(include_disk: bool = True) -> Dict[str, int]:
    """Drop memory entries (and disk entries when *include_disk*).

    Returns ``{"memory": n, "disk": m}`` counts of removed entries.
    """
    removed = {"memory": _state.memory.clear(), "disk": 0}
    disk = _state.disk
    if include_disk and disk is not None:
        removed["disk"] = disk.clear()
    return removed


def prune_disk_cache(max_bytes: int) -> int:
    """Evict oldest-first until the persistent tier fits *max_bytes*.

    Returns how many entries were evicted; raises :class:`ValueError`
    when no persistent tier is attached (``repro cache prune`` turns
    that into a usage error).
    """
    disk = _state.disk
    if disk is None:
        raise ValueError("no persistent cache tier is configured")
    return disk.prune(max_bytes)


def cache_stats() -> Dict[str, Any]:
    """Point-in-time statistics of both tiers (for ``repro cache stats``)."""
    disk = _state.disk
    return {
        "enabled": _state.enabled,
        "kernels": len(_registered),
        "memory": _state.memory.stats(),
        "disk": None if disk is None else disk.stats(),
    }


def memoized_kernel(
    fn: Optional[Callable] = None,
    *,
    persist: bool = True,
    name: Optional[str] = None,
) -> Callable:
    """Memoize a pure exact kernel through the tiered cache.

    *persist* opts the kernel out of the disk tier -- used for kernels
    whose results (piecewise polynomials, optimiser records) are
    immutable but have no lossless JSON form; they still enjoy the
    memory tier.  *name* overrides the cache label (default:
    ``module.qualname``).
    """

    def decorate(kernel: Callable) -> Callable:
        label = name or f"{kernel.__module__}.{kernel.__qualname__}"
        fingerprint = kernel_fingerprint(kernel)
        _registered.append(label)

        @functools.wraps(kernel)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = _state
            if not state.enabled or getattr(_bypass, "depth", 0) > 0:
                return kernel(*args, **kwargs)
            try:
                key = cache_key(label, fingerprint, args, kwargs)
            except UncacheableArgumentError:
                get_instrumentation().increment("cache.uncacheable")
                return kernel(*args, **kwargs)
            found, value = state.memory.get(key)
            if found:
                return value
            disk = state.disk if persist else None
            if disk is not None:
                found, value = disk.get(key, fingerprint)
                if found:
                    state.memory.put(key, value)
                    return value
            value = kernel(*args, **kwargs)
            state.memory.put(key, value)
            if disk is not None:
                try:
                    payload = encode_value(value)
                except UnencodableValueError:
                    pass
                else:
                    disk.put(key, fingerprint, label, payload)
            return value

        def peek(*args: Any, **kwargs: Any) -> Tuple[bool, Any]:
            """``(True, value)`` when the result is resident in the
            memory tier, else ``(False, None)``.  A miss is not
            counted: the full call that follows it counts it once."""
            if not cache_enabled():
                return False, None
            try:
                key = cache_key(label, fingerprint, args, kwargs)
            except UncacheableArgumentError:
                return False, None
            return _state.memory.get(key, count_miss=False)

        wrapper.peek = peek
        wrapper.uncached = kernel
        wrapper.cache_label = label
        wrapper.cache_fingerprint = fingerprint
        return wrapper

    if fn is not None:
        return decorate(fn)
    return decorate
