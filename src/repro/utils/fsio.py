"""The one on-disk write path: atomic replace, advisory locks, counter files.

Every durable write in the cache, the job queue and the telemetry layer goes
through this module, so there is exactly one implementation of each of:

- :func:`atomic_write` — write to a temp file in the target's directory,
  then ``os.replace`` it over the target.  Readers see the old content or
  the new content, never a torn file; a failed write leaves no temp file.
- :func:`file_lock` — a best-effort cross-process advisory lock on
  ``path.with_suffix(".lock")`` (``fcntl.flock``).  It degrades to no lock
  where ``fcntl`` is missing or the lock file cannot be opened.
- :class:`CounterFile` — a ``{name: int}`` JSON file that many processes
  add to concurrently without losing an increment (read-modify-write under
  :func:`file_lock`, finished by :func:`atomic_write`).
- :func:`move_aside` — atomically rename a bad file out of a reader's way,
  keeping it for inspection.

Stdlib only.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Mapping

try:
    import fcntl
except ImportError:  # non-POSIX platform: locks degrade to none
    fcntl = None


def atomic_write(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` atomically, creating parent directories.

    The temp file ends in ``.tmp`` so cache debris sweeps recognise a
    writer that crashed mid-write.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor, temp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(data)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def move_aside(path: Path, target: Path) -> bool:
    """Atomically move ``path`` to ``target``, replacing any earlier one.

    False when ``path`` is already gone, e.g. a concurrent reader moved it
    first.
    """
    try:
        os.replace(path, target)
    except OSError:
        return False
    return True


@contextmanager
def file_lock(path: Path) -> Iterator[None]:
    """Hold an exclusive advisory lock on ``path.with_suffix(".lock")``.

    Locks taken through separate calls exclude each other across threads as
    well as processes.  Best-effort: without ``fcntl``, or when the lock
    file cannot be opened (e.g. a missing directory), the body runs
    unlocked rather than raising.
    """
    if fcntl is None:
        yield
        return
    try:
        handle = Path(path).with_suffix(".lock").open("w")
    except OSError:
        yield
        return
    with handle:  # closing the descriptor releases the lock
        fcntl.flock(handle, fcntl.LOCK_EX)
        yield


class CounterFile:
    """Persistent ``{name: int}`` counters shared by every process on a path.

    :meth:`add` is a locked read-modify-write, so concurrent adders never
    lose an increment; :meth:`read` takes no lock because every write is an
    atomic replace.  Counters are telemetry: a missing, corrupt or non-dict
    file reads as ``{}``, and a failed :meth:`add` is dropped rather than
    failing the operation being counted.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)

    def read(self) -> dict[str, int]:
        """The current counts (``{}`` when the file is missing or corrupt)."""
        try:
            loaded = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return {}
        if not isinstance(loaded, dict):
            return {}
        return {
            str(key): int(value)
            for key, value in loaded.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }

    def add(self, deltas: Mapping[str, int]) -> None:
        """Add ``deltas`` to the stored counts (best-effort; never raises OSError)."""
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with file_lock(self.path):
                counts = self.read()
                for key, value in deltas.items():
                    counts[key] = counts.get(key, 0) + int(value)
                atomic_write(self.path, json.dumps(counts).encode())
        except OSError:
            pass


__all__ = ["CounterFile", "atomic_write", "file_lock", "move_aside"]
