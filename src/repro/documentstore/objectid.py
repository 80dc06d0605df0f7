"""ObjectId implementation.

The paper (Section 2.1) describes the 12-byte ObjectId used as the default
``_id`` value: 4 bytes of timestamp, 3 bytes of machine identifier, 2 bytes of
process id, and a 3-byte process-local counter.  This module reproduces that
layout so that ids generated by the reproduction sort roughly by insertion
time, exactly like the original system.
"""

from __future__ import annotations

import binascii
import hashlib
import itertools
import os
import threading
import time

__all__ = ["ObjectId"]

# A process-local, thread-safe counter seeded deterministically so test runs
# are reproducible when a fixed clock is injected.
_COUNTER_LOCK = threading.Lock()
_COUNTER = itertools.count(int.from_bytes(os.urandom(3), "big") % 0xFFFFFF)


def _machine_bytes() -> bytes:
    """Return the 3-byte machine identifier (hash of the hostname)."""
    hostname = os.uname().nodename if hasattr(os, "uname") else "localhost"
    return hashlib.md5(hostname.encode("utf-8")).digest()[:3]


_MACHINE_BYTES = _machine_bytes()
_PID_BYTES = (os.getpid() % 0xFFFF).to_bytes(2, "big")


class ObjectId:
    """A 12-byte unique identifier, the default primary key for documents.

    Parameters
    ----------
    oid:
        Either ``None`` (generate a new id), a 24-character hex string, a
        12-byte ``bytes`` value, or another :class:`ObjectId` to copy.
    timestamp:
        Optional explicit creation time (seconds since the epoch).  Used by
        tests and by the deterministic data generator.
    """

    __slots__ = ("_id",)

    _ORIGINAL_LENGTH = 12

    def __init__(self, oid: object | None = None, *, timestamp: float | None = None) -> None:
        if oid is None:
            self._id = self._generate(timestamp)
        elif isinstance(oid, ObjectId):
            self._id = oid._id
        elif isinstance(oid, bytes):
            if len(oid) != self._ORIGINAL_LENGTH:
                raise ValueError("ObjectId must be exactly 12 bytes")
            self._id = oid
        elif isinstance(oid, str):
            if len(oid) != 24:
                raise ValueError("ObjectId hex string must be exactly 24 characters")
            try:
                self._id = binascii.unhexlify(oid)
            except (binascii.Error, ValueError) as exc:
                raise ValueError(f"invalid ObjectId hex string: {oid!r}") from exc
        else:
            raise TypeError(f"cannot construct ObjectId from {type(oid).__name__}")

    @staticmethod
    def _generate(timestamp: float | None) -> bytes:
        if timestamp is None:
            timestamp = time.time()
        with _COUNTER_LOCK:
            counter = next(_COUNTER) % 0xFFFFFF
        return (
            int(timestamp).to_bytes(4, "big")
            + _MACHINE_BYTES
            + _PID_BYTES
            + counter.to_bytes(3, "big")
        )

    @property
    def binary(self) -> bytes:
        """The raw 12-byte representation."""
        return self._id

    def __str__(self) -> str:
        return binascii.hexlify(self._id).decode("ascii")

    def __repr__(self) -> str:
        return f"ObjectId('{self}')"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ObjectId):
            return self._id == other._id
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        if isinstance(other, ObjectId):
            return self._id != other._id
        return NotImplemented

    def __lt__(self, other: "ObjectId") -> bool:
        if isinstance(other, ObjectId):
            return self._id < other._id
        return NotImplemented

    def __le__(self, other: "ObjectId") -> bool:
        if isinstance(other, ObjectId):
            return self._id <= other._id
        return NotImplemented

    def __gt__(self, other: "ObjectId") -> bool:
        if isinstance(other, ObjectId):
            return self._id > other._id
        return NotImplemented

    def __ge__(self, other: "ObjectId") -> bool:
        if isinstance(other, ObjectId):
            return self._id >= other._id
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._id)
