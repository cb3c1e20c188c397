"""Deterministic RNG derivation.

All randomness in the package flows from one master seed.  Component
streams are derived by hashing ``(master, label, index)``, so concurrent
or reordered experiments draw from independent, reproducible streams.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random import default_rng  # numpy loads it lazily: here, not in the first draw

__all__ = ["derive_seed", "derive_rng"]


def derive_seed(master: int, label: str, index: int = 0) -> int:
    """Derive a 64-bit child seed from a master seed, a label and an index."""
    payload = f"{int(master)}:{label}:{int(index)}".encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little")


def derive_rng(master: int, label: str, index: int = 0) -> np.random.Generator:
    """A ``numpy.random.Generator`` seeded from the derived child seed."""
    return default_rng(derive_seed(master, label, index))
