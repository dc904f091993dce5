"""Seeded random streams.

Every random draw in the kit flows from one explicit integer seed through a
counter-based generator (Philox), keyed by a hash of (seed, labels).  Streams
are therefore independent of the order in which scenarios run.
"""

from __future__ import annotations

import hashlib

import numpy as np


def spawn_rng(seed: int, *labels: object) -> np.random.Generator:
    """Return a Generator keyed deterministically by ``seed`` and ``labels``."""
    digest = hashlib.blake2b(repr((int(seed),) + labels).encode(), digest_size=16)
    key = int.from_bytes(digest.digest(), "little")
    return np.random.Generator(np.random.Philox(key=key))

