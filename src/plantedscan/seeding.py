"""Deterministic seed derivation for experiment streams.

Every random stream in the package is keyed by (master_seed, label, index)
through a splitmix64 mix, so adding replications or reordering work never
perturbs existing streams.  The derived 64-bit value seeds numpy's PCG64.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["derive_seed", "generator"]

_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    # Steele, Lea & Flood's finalizer; full-period scrambler on 64-bit state.
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _label_state(master_seed: int, label: str) -> int:
    state = master_seed & _MASK64
    for byte in label.encode("utf-8"):
        state = _splitmix64(state ^ byte)
    return state


def derive_seed(master_seed: int, label: str, index: int = 0) -> int:
    """Stable 64-bit seed for the stream (label, index) under master_seed."""
    return _splitmix64(_label_state(master_seed, label) ^ (index & _MASK64))


def _stream(master_seed: int, label: str) -> Callable[[int], int]:
    """derive_seed(master_seed, label, index) as a function of index, the
    label mixed in once rather than once per index."""
    state = _label_state(master_seed, label)
    return lambda index: _splitmix64(state ^ (index & _MASK64))


def generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))
