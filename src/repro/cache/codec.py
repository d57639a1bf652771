"""Lossless value codec for the persistent cache tier.

Only exact values may cross the disk boundary: a cached kernel result
must read back *identical* to what the kernel would recompute, or the
cache would silently change reproduced numbers.  The codec therefore
supports exactly the closed set of types the exact kernels return --
``Fraction``, ``int``, ``bool``, ``None`` and (nested) sequences of
those -- and refuses everything else with
:class:`UnencodableValueError`, which the cache treats as
"memory-tier only", never as a failure.

The encoded form is plain JSON-compatible data: fractions become
``"p/q"`` strings, sequences become tagged lists.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

__all__ = ["UnencodableValueError", "decode_value", "encode_value"]


class UnencodableValueError(TypeError):
    """The value has no lossless JSON form; keep it in memory only."""


def encode_value(value: Any) -> Any:
    """JSON-ready form of an exact kernel result (lossless)."""
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, int):
        return {"t": "int", "v": str(value)}
    if isinstance(value, Fraction):
        return {"t": "frac", "v": f"{value.numerator}/{value.denominator}"}
    if isinstance(value, tuple):
        return {"t": "tuple", "v": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return {"t": "list", "v": [encode_value(v) for v in value]}
    raise UnencodableValueError(
        f"{type(value).__name__} results cannot be persisted losslessly"
    )


def decode_value(payload: Any) -> Any:
    """Inverse of :func:`encode_value`; raises ``ValueError`` on junk."""
    if payload is None or isinstance(payload, bool):
        return payload
    if not isinstance(payload, dict) or "t" not in payload:
        raise ValueError(f"malformed cache value payload: {payload!r}")
    tag, body = payload["t"], payload.get("v")
    if tag == "int":
        return int(body)
    if tag == "frac":
        return Fraction(body)
    if tag == "tuple":
        return tuple(decode_value(v) for v in body)
    if tag == "list":
        return [decode_value(v) for v in body]
    raise ValueError(f"unknown cache value tag {tag!r}")
