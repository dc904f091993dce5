"""Seeded random streams.

Every draw flows from one explicit integer seed through a keyed counter-based
stream (Salmon et al., SC'11): SHAKE-256 of a blake2b key of (seed, labels), read
in order as little-endian 64-bit words.  Streams are therefore independent of
the order in which scenarios run, and n scalar draws read what one draw of n reads.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


class Stream:
    """Draws that read the words of one keyed stream in order."""

    def __init__(self, key: bytes):
        self._xof, self._buf, self._pos = hashlib.shake_256(key), b"", 0

    def _read(self, count: int) -> bytes:
        pos, self._pos = self._pos, self._pos + 8 * count
        if self._pos > len(self._buf):  # SHAKE output is prefix-stable: a longer digest extends it
            self._buf = self._xof.digest(max(self._pos, 2 * len(self._buf)))
        return self._buf[pos : self._pos]

    def random(self, size=None):
        """Doubles (w >> 11) 2^-53 in [0, 1), one word each."""
        if size is None:
            return self.integers(1 << 53) * 2.0**-53
        count = math.prod(size) if isinstance(size, tuple) else size
        return ((np.frombuffer(self._read(count), "<u8") >> 11) * 2.0**-53).reshape(size)

    def standard_normal(self, size=None):
        """Box-Muller on one word pair per normal, so normal k reads words 2k and 2k + 1."""
        shape = () if size is None else size if isinstance(size, tuple) else (size,)
        z = standard_normals([self], math.prod(shape)).reshape(shape)
        return float(z) if size is None else z

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def integers(self, low: int, high=None) -> int:
        """A draw from [low, high), or [0, low), by multiply-shift of one word."""
        low, high = (0, low) if high is None else (low, high)
        return low + (int.from_bytes(self._read(1), "little") * (high - low) >> 64)


def standard_normals(streams, count: int) -> np.ndarray:
    """Row r holds ``count`` normals of ``streams[r]``, the words read stream by
    stream in list order (a stream listed twice draws twice), then turned into
    normals by one Box-Muller pass over every row."""
    u = np.frombuffer(b"".join([s._read(2 * count) for s in streams]), "<u8")
    u = ((u >> 11) * 2.0**-53).reshape(-1, 2)
    return (np.sqrt(-2.0 * np.log(1.0 - u[:, 0])) * np.cos(2 * np.pi * u[:, 1])).reshape(len(streams), count)


def spawn_rng(seed: int, *labels: object) -> Stream:
    """Return the stream keyed deterministically by ``seed`` and ``labels``."""
    return Stream(hashlib.blake2b(repr((int(seed),) + labels).encode(), digest_size=16).digest())
