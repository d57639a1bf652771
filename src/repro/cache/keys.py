"""Canonical cache keys for exact kernels.

A memoized kernel's key must satisfy two properties:

* **Canonical.**  Two calls that are mathematically the same request
  must map to the same key, however the caller spelled the arguments:
  ``sum_uniform_cdf(0.5, [1, 1])`` and
  ``sum_uniform_cdf(Fraction(1, 2), (Fraction(1), "1"))`` both
  canonicalise through :func:`~repro.symbolic.rational.as_fraction`
  to the token ``(1/2,(1/1,1/1))``.  Floats convert to their *exact*
  binary rational (the package-wide convention), so canonicalisation
  never rounds.
* **Version-pinned.**  The key hashes a *code fingerprint* of the
  kernel's own source alongside the arguments.  Editing a formula
  changes the fingerprint, which changes every key the kernel can
  produce -- a persisted cache written by an older build can therefore
  never serve a stale value; its entries simply stop being addressable
  (and ``repro cache clear`` reclaims the space).

Only values that canonicalise losslessly are keyable: rationals
(``int``/``Fraction``/``str``/``float``), booleans, ``None``, and
(nested) sequences of those.  Anything else raises
:class:`UncacheableArgumentError`, which the decorator treats as
"call through uncached", never as a hard failure.
"""

from __future__ import annotations

import hashlib
import inspect
from fractions import Fraction
from typing import Any, Callable

from repro.symbolic.rational import as_fraction

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "UncacheableArgumentError",
    "canonical_token",
    "cache_key",
    "kernel_fingerprint",
]

#: Version of the on-disk entry format; folded into every fingerprint
#: so a format change invalidates old persisted entries wholesale.
CACHE_SCHEMA_VERSION = 2


class UncacheableArgumentError(TypeError):
    """An argument cannot be canonically serialised for keying.

    Internal signal between :func:`canonical_token` and the decorator:
    the call is executed uncached and counted, never failed.
    """


def canonical_token(value: Any) -> str:
    """The canonical string form of one argument.

    Rationals render as ``p/q`` in lowest terms (``as_fraction`` is the
    single source of truth for what counts as a rational); sequences
    render as ``(tok,tok,...)``; pairs nest.  Booleans and ``None`` get
    distinct tags so ``True``/``1`` and ``None``/``0`` cannot collide.
    """
    if value is None:
        return "N"
    if isinstance(value, bool):
        return "T" if value else "F"
    if isinstance(value, (int, Fraction, float, str)):
        try:
            f = as_fraction(value)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise UncacheableArgumentError(
                f"cannot canonicalise {value!r} as a rational"
            ) from exc
        return f"{f.numerator}/{f.denominator}"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(canonical_token(v) for v in value) + ")"
    raise UncacheableArgumentError(
        f"{type(value).__name__} arguments are not cacheable"
    )


def kernel_fingerprint(fn: Callable) -> str:
    """SHA-256 fingerprint of the kernel's source code (and schema).

    The fingerprint is computed once at decoration time.  When the
    source is unavailable (REPL, exotic loaders) the compiled bytecode
    stands in -- still change-detecting, just less human-auditable.
    """
    try:
        payload = inspect.getsource(fn)
    except (OSError, TypeError):
        payload = fn.__code__.co_code.hex()
    digest = hashlib.sha256()
    digest.update(f"schema={CACHE_SCHEMA_VERSION}|".encode())
    digest.update(f"{fn.__module__}.{fn.__qualname__}|".encode())
    digest.update(payload.encode())
    return digest.hexdigest()


def cache_key(
    kernel: str, fingerprint: str, args: tuple, kwargs: dict
) -> str:
    """SHA-256 key of one call: kernel name, fingerprint, canonical args.

    Keyword arguments are folded in sorted by name, so ``f(t=1)`` and
    ``f(1)`` are *distinct* keys -- deliberately: positional/keyword
    equivalence would require signature binding on every call, and the
    kernels are called positionally on their hot paths anyway.
    """
    digest = hashlib.sha256()
    digest.update(kernel.encode())
    digest.update(b"|")
    digest.update(fingerprint.encode())
    digest.update(b"|")
    digest.update(canonical_token(tuple(args)).encode())
    for name in sorted(kwargs):
        digest.update(f"|{name}=".encode())
        digest.update(canonical_token(kwargs[name]).encode())
    return digest.hexdigest()
