"""Shared fixtures and helpers for the test-suite.

Conventions used throughout the tests:

* Exact assertions (``==`` on ``Fraction``) wherever the quantity is
  exact -- which is most of the package.
* Monte Carlo assertions always go through a Wilson/normal interval at
  z = 3.89 (two-sided tail ~ 1e-4), with fixed seeds, so spurious
  failures are rare and reruns are deterministic.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest


@pytest.fixture(autouse=True)
def fresh_kernel_cache():
    """Isolate the memoization cache between tests.

    The cache is process-wide by design; without this, one test's warm
    entries would mask another test's counters and call-count
    assertions.  Dropping the memory tier before each test restores
    cold-cache behaviour (tests that want a disk tier configure their
    own directory and are responsible for detaching it).  The disk cap
    is lifted too: a CLI call such as ``cache warm --max-bytes 0`` sets
    it process-wide, and it would prune every later test's entries.
    """
    from repro.cache import clear_cache, configure_cache

    configure_cache(enabled=True, directory=None, max_bytes=None)
    clear_cache(include_disk=False)
    yield
    configure_cache(enabled=True, directory=None, max_bytes=None)
    clear_cache(include_disk=False)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for tests that sample."""
    return np.random.default_rng(12345)


@pytest.fixture
def tight_tolerance() -> Fraction:
    """Root-refinement tolerance used by exact-optimum tests."""
    return Fraction(1, 10**15)


def fraction_close(a: Fraction, b: Fraction, tol: Fraction) -> bool:
    """|a - b| <= tol for exact rationals."""
    return abs(a - b) <= tol
