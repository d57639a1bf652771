"""The coordinator/worker wire protocol: sealed JSON frames over TCP.

One frame is a 4-byte big-endian length prefix followed by a UTF-8
JSON object carrying its own checksum -- the sealed-line codec of
:mod:`repro.fsutil` (first 16 hex chars of the SHA-256 of the
canonical payload) that the checkpoint and event-log tiers use, so a
flipped bit anywhere in a frame body is detected before the payload
is trusted.  JSON keeps every frame inspectable with ``nc`` and a pair
of eyes; the length prefix makes framing unambiguous without in-band
delimiters.

Message vocabulary (the ``type`` field):

==================  =========================================================
``hello``           worker -> coordinator: protocol version, worker id
``welcome``         coordinator -> worker: run identity (fingerprint, root
                    seed, base stream, batch size), the pickled system
                    payload (digest-verified), the fault plan
``reject``          coordinator -> worker: the hello was unacceptable
``lease_request``   worker -> coordinator: ready for a shard
``lease``           coordinator -> worker: shard index, stream name, trial
                    count, attempt, lease duration
``idle``            coordinator -> worker: nothing grantable right now,
                    ask again after ``retry_after`` seconds
``drain``           coordinator -> worker: no work will ever be granted
                    again; disconnect
``summary``         worker -> coordinator: shard index, attempt, win count,
                    elapsed seconds, run fingerprint, optional metrics
                    snapshot payload
``goodbye``         worker -> coordinator: clean disconnect
==================  =========================================================

The **system payload** (system, input distribution, fault plan) crosses
the wire as a base64 pickle guarded by a SHA-256 digest computed over
the pickle bytes; :func:`decode_blob` refuses a payload whose digest
does not match.  Pickle is the same representation the process-pool
path already requires of these objects, and the deployment model is a
user's own machines running the same repro version -- not an open
service -- so the digest guards against corruption, not adversaries.

Nothing in this module touches a random stream: frames carry results
and scheduling, never randomness.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import pickle
from typing import Any, Dict, Optional

from repro.errors import DistributedError
from repro.fsutil import _open_line, _sealed_line

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ConnectionClosedError",
    "CoordinatorUnreachableError",
    "FrameError",
    "FrameTimeoutError",
    "HandshakeError",
    "PayloadDigestError",
    "ProtocolError",
    "decode_blob",
    "encode_blob",
    "encode_frame",
    "open_payload",
    "read_frame",
    "seal_payload",
    "write_frame",
]

PROTOCOL_VERSION = 1

#: Upper bound on one frame body.  Generous (a summary with a metrics
#: snapshot is a few KiB; the system payload tops out well under a
#: MiB) while still rejecting a garbage length prefix before it turns
#: into a multi-gigabyte allocation.
MAX_FRAME_BYTES = 32 * 1024 * 1024

_LENGTH_BYTES = 4


class ProtocolError(DistributedError):
    """A frame violated the wire protocol (framing, checksum, size)."""


class FrameError(ProtocolError):
    """A frame body failed to parse or failed its checksum."""


class FrameTimeoutError(ProtocolError):
    """The peer did not produce a complete frame within the timeout."""


class ConnectionClosedError(DistributedError):
    """The peer went away mid-conversation (EOF or reset)."""


class HandshakeError(DistributedError):
    """The hello/welcome exchange failed (version mismatch, reject)."""


class CoordinatorUnreachableError(DistributedError):
    """No connection could be established within the retry budget."""


class PayloadDigestError(DistributedError):
    """The pickled system payload's digest did not verify."""


def seal_payload(payload: Dict[str, Any]) -> bytes:
    """Serialise *payload* with its own checksum embedded (a sealed
    line without its newline: the length prefix delimits frames)."""
    return _sealed_line(payload)[:-1].encode("utf-8")


def open_payload(body: bytes) -> Dict[str, Any]:
    """Parse and verify one sealed frame body.

    Raises :class:`FrameError` on undecodable bytes, bad JSON, a
    non-object payload, a missing checksum, or a checksum mismatch --
    a corrupt frame is never partially trusted.
    """
    payload = _open_line(body)
    if payload is None:
        raise FrameError(
            f"frame body of {len(body)} bytes is not a sealed JSON object"
        )
    return payload


def encode_frame(payload: Dict[str, Any]) -> bytes:
    """One complete wire frame: length prefix plus sealed body."""
    body = seal_payload(payload)
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return len(body).to_bytes(_LENGTH_BYTES, "big") + body


async def _read_exactly(
    reader: asyncio.StreamReader, count: int, timeout: Optional[float]
) -> bytes:
    try:
        if timeout is None:
            return await reader.readexactly(count)
        return await asyncio.wait_for(
            reader.readexactly(count), timeout=timeout
        )
    except asyncio.IncompleteReadError as exc:
        raise ConnectionClosedError(
            f"connection closed mid-frame ({len(exc.partial)} of "
            f"{count} bytes)"
        ) from exc
    except asyncio.TimeoutError as exc:
        raise FrameTimeoutError(
            f"no complete frame within {timeout}s"
        ) from exc
    except (ConnectionError, OSError) as exc:
        raise ConnectionClosedError(str(exc)) from exc


async def read_frame(
    reader: asyncio.StreamReader, timeout: Optional[float] = None
) -> Dict[str, Any]:
    """Read one sealed frame; *timeout* bounds the whole read.

    Raises :class:`ConnectionClosedError` on EOF/reset,
    :class:`FrameTimeoutError` on timeout, :class:`ProtocolError` on
    an oversized length prefix, :class:`FrameError` on a corrupt body.
    """
    header = await _read_exactly(reader, _LENGTH_BYTES, timeout)
    length = int.from_bytes(header, "big")
    if length == 0 or length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} outside (0, {MAX_FRAME_BYTES}]"
        )
    body = await _read_exactly(reader, length, timeout)
    return open_payload(body)


async def write_frame(
    writer: asyncio.StreamWriter,
    payload: Dict[str, Any],
    timeout: Optional[float] = None,
) -> None:
    """Write one sealed frame and drain the transport."""
    writer.write(encode_frame(payload))
    try:
        if timeout is None:
            await writer.drain()
        else:
            await asyncio.wait_for(writer.drain(), timeout=timeout)
    except asyncio.TimeoutError as exc:
        raise FrameTimeoutError(
            f"transport refused the frame for {timeout}s"
        ) from exc
    except (ConnectionError, OSError) as exc:
        raise ConnectionClosedError(str(exc)) from exc


def encode_blob(obj: Any) -> Dict[str, str]:
    """The wire form of an arbitrary picklable object: base64 pickle
    bytes plus their SHA-256 digest."""
    raw = pickle.dumps(obj, protocol=2)
    return {
        "data": base64.b64encode(raw).decode("ascii"),
        "sha256": hashlib.sha256(raw).hexdigest(),
    }


def decode_blob(blob: Dict[str, Any]) -> Any:
    """Decode :func:`encode_blob` output, verifying the digest first.

    Raises :class:`PayloadDigestError` when the digest does not match
    (corruption in transit) and :class:`FrameError` when the blob is
    structurally malformed.
    """
    try:
        raw = base64.b64decode(blob["data"], validate=True)
        stated = str(blob["sha256"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FrameError(f"malformed payload blob: {exc}") from exc
    actual = hashlib.sha256(raw).hexdigest()
    if actual != stated:
        raise PayloadDigestError(
            f"payload digest mismatch: stated {stated[:16]}..., "
            f"got {actual[:16]}..."
        )
    return pickle.loads(raw)
