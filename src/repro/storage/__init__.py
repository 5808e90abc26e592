"""Stable-storage substrate.

The paper assumes only two properties of storage (Sections 2, 4, 10):

* a *stable* write survives node crashes (force-at-commit logging), and
* everything else — process memory, unflushed buffers — is lost.

This package provides exactly that model:

* :mod:`repro.storage.codec` — a small, deterministic binary codec used
  for all log records and snapshots (no pickle: records must be
  inspectable and version-stable).
* :mod:`repro.storage.disk` — :class:`~repro.storage.disk.MemDisk`, an
  in-memory disk with explicit flush and crash semantics (unflushed
  data lost; optionally a torn tail is left behind), and
  :class:`~repro.storage.disk.FileDisk`, the same interface backed by
  real files with ``fsync`` for the runnable examples.
* :mod:`repro.storage.wal` — a CRC-framed, torn-write-tolerant
  write-ahead log on top of a disk area.  Its ``flush_until`` is group
  commit: the flush runs under the log lock, so concurrent committers
  share one ``fsync``.
* :mod:`repro.storage.kvstore` — a recoverable key-value table that
  participates in transactions (redo logging through the shared
  :class:`~repro.transaction.log.LogManager`, in-memory undo).
"""

from repro.storage.codec import encode, decode
from repro.storage.disk import Disk, MemDisk, FileDisk
from repro.storage.wal import WriteAheadLog, WalRecord

__all__ = [
    "encode",
    "decode",
    "Disk",
    "MemDisk",
    "FileDisk",
    "WriteAheadLog",
    "WalRecord",
]
