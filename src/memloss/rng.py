"""Deterministic random streams.

All randomness in the package flows from a single integer seed.  Streams
are generated by SplitMix64, keyed by (seed, purpose, index), so the k-th
value of a stream can be produced in O(1) without generating the prefix:
lazy extension is order-independent by construction.

Monte Carlo routines that want a stateful generator derive a child seed
with :func:`child_seed` and hand it to ``numpy.random.default_rng``.
"""

from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_SHIFT53 = np.uint64(11)
_INV53 = 1.0 / float(1 << 53)


def _mix(z: np.ndarray) -> np.ndarray:
    # SplitMix64 finalizer; uint64 arithmetic wraps mod 2**64.
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def _bits(seed: int, purpose: str, index: np.ndarray | int) -> np.ndarray:
    """The 64-bit outputs at the given indices of the stream keyed by (seed, purpose)."""
    with np.errstate(over="ignore"):
        key = np.uint64(0)
        for ch in purpose.encode("utf-8"):
            key = _mix(key + np.uint64(ch) + _GAMMA)
        base = _mix(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ key)
        return _mix(base + (np.asarray(index, dtype=np.uint64) + np.uint64(1)) * _GAMMA)


def uniforms(seed: int, purpose: str, index: np.ndarray | int) -> np.ndarray:
    """Uniform [0, 1) doubles at the given stream indices.

    ``uniforms(seed, p, k)`` is a pure function of its arguments.
    """
    return np.asarray((_bits(seed, purpose, index) >> _SHIFT53).astype(np.float64) * _INV53)


def child_seed(seed: int, purpose: str) -> int:
    """A 64-bit seed derived from (seed, purpose), for numpy generators: the stream's output at index 0."""
    return int(_bits(seed, purpose, 0))
