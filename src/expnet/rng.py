"""Deterministic 64-bit PRNG with splittable substreams.

The generator is a counter-mode SplitMix64: the k-th raw output of a stream
with key ``K`` is ``mix64(K + (k + 1) * GAMMA) mod 2**64`` where ``mix64`` is
the SplitMix64 finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

and ``GAMMA = 0x9E3779B97F4A7C15`` (the golden-ratio increment).  Because the
k-th output depends only on (key, k), any block of draws can be produced in
bulk with vectorized uint64 arithmetic, and the sequence is identical on every
platform.

Substreams are hash-derived: ``substream(i)`` starts a fresh stream with key
``mix64(parent_key ^ ((i + 1) * GAMMA))``.  A substream therefore depends only
on the parent key and the index, never on how many draws the parent or any
sibling has made.

Floating-point conversions use the standard 53-bit mantissa mapping
``(raw >> 11) * 2**-53``; normals come from the Box-Muller transform.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53


def _mix64(z: int) -> int:
    z &= _MASK
    z = (z ^ (z >> 30)) * _MIX1 & _MASK
    z = (z ^ (z >> 27)) * _MIX2 & _MASK
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


class Rng:
    """Single-owner pseudorandom stream; derive substreams for parallel use."""

    def __init__(self, seed: int):
        self._key = seed & _MASK
        self._count = 0

    @property
    def key(self) -> int:
        return self._key

    def substream(self, index: int) -> "Rng":
        """Fresh stream keyed by (this stream's key, index); order-independent."""
        if index < 0:
            raise ValueError(f"substream index must be >= 0, got {index}")
        child = Rng(0)
        child._key = _mix64(self._key ^ ((index + 1) * _GAMMA & _MASK))
        return child

    def next_u64(self) -> int:
        self._count += 1
        return _mix64((self._key + self._count * _GAMMA) & _MASK)

    def u64(self, n: int) -> np.ndarray:
        """Next n raw outputs as a uint64 array."""
        ks = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        ks *= np.uint64(_GAMMA)
        ks += np.uint64(self._key)
        return _mix64_array(ks)

    def randint(self, bound: int) -> int:
        """Uniform integer in [0, bound). Modulo bias is < bound/2**64."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self.next_u64() % bound

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return lo + (self.next_u64() >> 11) * _INV_2_53 * (hi - lo)

    def uniforms(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        u = (self.u64(n) >> np.uint64(11)).astype(np.float64) * _INV_2_53
        return lo + u * (hi - lo)

    def normals(self, n: int) -> np.ndarray:
        """n standard normal float64 draws (Box-Muller on consecutive pairs)."""
        pairs = (n + 1) // 2
        raw = self.u64(2 * pairs) >> np.uint64(11)
        u1 = (raw[0::2].astype(np.float64) + 1.0) * _INV_2_53   # (0, 1]
        u2 = raw[1::2].astype(np.float64) * _INV_2_53           # [0, 1)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * np.pi) * u2
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n), its n - 1 draws taken in one bulk call."""
        perm = np.arange(n, dtype=np.int64)
        if n < 2:
            return perm
        js = (self.u64(n - 1) % np.arange(n, 1, -1, dtype=np.uint64)).tolist()
        for i, j in zip(range(n - 1, 0, -1), js):
            perm[i], perm[j] = perm[j], perm[i]
        return perm
