"""Filesystem durability and record-sealing helpers shared by every
on-disk tier.

The disk cache replaces whole files with :func:`atomic_write`: write
a temp file, flush, ``fsync``, then ``os.replace`` onto the target.
That sequence makes the *contents* durable but not the *name*: POSIX
only guarantees the rename itself survives a power cut once the
containing directory's entry is flushed, which takes a second
``fsync`` -- on the directory.
:func:`fsync_directory` is that second fsync, shared so every tier
(the checkpoint writer too) applies the identical fix.

Durability is best-effort by design: a filesystem that cannot fsync a
directory (some network mounts, some platforms) degrades to the old
behaviour -- possible loss of the newest file on power failure -- and
never turns a successful write into an error.

The checkpoint, the event log, the disk-cache entries and the
distributed wire protocol all store JSON objects *sealed* with their
own checksum: the first 16 hex chars of the SHA-256 of the canonical
JSON form.  :func:`_sealed_line` writes one such record and
:func:`_open_line` reads it back, returning ``None`` for anything
torn, flipped or undecodable so every reader can skip a corrupt record
instead of failing on it.

A *sealed log* is a file of sealed lines, appended to one at a time:
the checkpoint and the event log are both sealed logs.
:class:`SealedLog` is their one appender and :func:`read_sealed_log`
their one reader.  A line counts only once its newline is written, so
a final line cut anywhere -- even just before its newline -- is torn;
reopening a log for append cuts such a tail back to the last newline
first, so the next record starts on a line of its own.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

__all__ = ["SealedLog", "atomic_write", "fsync_directory", "read_sealed_log"]


def fsync_directory(path: Union[str, Path]) -> bool:
    """``fsync`` the directory *path* so a just-renamed entry survives
    power loss; returns whether the sync actually happened.

    ``False`` covers every expected degradation -- platforms that
    cannot open a directory for reading (Windows), filesystems whose
    directory handles reject ``fsync`` -- so callers can count the
    misses without ever failing a write that already succeeded.
    """
    try:
        descriptor = os.open(str(path), os.O_RDONLY)
    except OSError:
        return False
    try:
        os.fsync(descriptor)
        return True
    except OSError:
        return False
    finally:
        os.close(descriptor)


def atomic_write(path: Union[str, Path], text: str) -> Path:
    """Replace the file at *path* with *text*, atomically and durably;
    returns the path written.

    The text goes to a temp file ``.<name>.*.tmp`` in the same
    directory (created if missing), which is flushed, fsynced and moved
    over *path* with :func:`os.replace`; then the directory is fsynced.
    A crash or a concurrent reader therefore sees the complete old file
    or the complete new one, never a torn one.  On any exception the
    temp file is removed and the exception propagates.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    descriptor, temp_name = tempfile.mkstemp(
        dir=str(target.parent), prefix=f".{target.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(descriptor, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, target)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    fsync_directory(target.parent)
    return target


def _canonical(payload: Mapping[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _checksum(payload: Mapping[str, Any]) -> str:
    """First 16 hex chars of the SHA-256 of the canonical JSON form."""
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()[:16]


def _sealed_line(payload: Mapping[str, Any]) -> str:
    """One JSONL line: the payload plus its own checksum."""
    return _canonical({**payload, "checksum": _checksum(payload)}) + "\n"


def _open_line(line: Union[str, bytes]) -> Optional[Dict[str, Any]]:
    """Parse and verify one sealed line; ``None`` when it is corrupt
    (undecodable bytes, bad JSON, not an object, missing checksum, or
    checksum mismatch)."""
    try:
        record = json.loads(line)
    except ValueError:  # JSONDecodeError and UnicodeDecodeError alike
        return None
    if not isinstance(record, dict):
        return None
    stated = record.pop("checksum", None)
    if stated is None or _checksum(record) != stated:
        return None
    return record


class SealedLog:
    """Appends sealed lines to the file at *path*.

    With *replace* the file is created afresh; otherwise records go
    after what is there, once a torn tail (anything after the last
    newline) is cut off.  The caller must validate an existing file's
    first line before opening it for append: the cut is the one write
    this class makes to bytes it did not write itself.  Parent
    directories are created, and a newly created file's directory is
    fsynced so its name survives power loss.

    :meth:`append` writes and flushes one line; :meth:`sync` fsyncs
    what was appended; :meth:`close` syncs and closes.
    """

    def __init__(self, path: Union[str, Path], replace: bool = False):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        created = replace or not self.path.exists()
        if not created:
            data = self.path.read_bytes()
            committed = data.rfind(b"\n") + 1
            if committed < len(data):
                os.truncate(self.path, committed)
        self._handle = self.path.open("wb" if replace else "ab")
        if created:
            fsync_directory(self.path.parent)

    def append(self, payload: Mapping[str, Any]) -> None:
        """Write and flush one sealed line."""
        self._handle.write(_sealed_line(payload).encode("utf-8"))
        self._handle.flush()

    def sync(self) -> None:
        """Make every appended line durable."""
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Sync, then close the file."""
        if not self._handle.closed:
            self.sync()
            self._handle.close()


def read_sealed_log(
    path: Union[str, Path],
) -> Tuple[List[Dict[str, Any]], int]:
    """``(records, corrupt)``: every intact line of a sealed log in
    file order, and how many non-blank lines were torn or corrupt.

    A line counts only once its newline is written.  A missing or
    unreadable file raises ``OSError``.
    """
    records: List[Dict[str, Any]] = []
    corrupt = 0
    with Path(path).open("rb") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = _open_line(line) if line.endswith(b"\n") else None
            if record is None:
                corrupt += 1
            else:
                records.append(record)
    return records, corrupt
