"""Reproducible random streams.

Every stream is a counter-based Philox generator keyed by
(seed, replica, substream), so replicas are independent and reproducible
with no generator state crossing replica boundaries.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def stream(seed: int, replica: int = 0, substream: int = 0) -> np.random.Generator:
    """Independent generator for one (seed, replica, substream) triple."""
    key = np.array([int(seed) & _MASK64,   # int(): a numpy int overflows the mask
                    ((substream << 32) ^ replica) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
