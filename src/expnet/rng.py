"""Deterministic 64-bit PRNG with splittable substreams.

The generator is a counter-mode SplitMix64: the k-th raw output of a stream
with key ``K`` is ``mix64(K + (k + 1) * GAMMA) mod 2**64`` where ``mix64`` is
the SplitMix64 finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

and ``GAMMA = 0x9E3779B97F4A7C15`` (the golden-ratio increment).  Because the
k-th output depends only on (key, k), the next draws of one stream or of many
are one vectorized uint64 computation (``draw``, a block at a time), and the
sequence is identical on every platform.

Substreams are hash-derived: ``substream(i)`` starts a fresh stream with key
``mix64(parent_key ^ ((i + 1) * GAMMA))``.  A substream therefore depends only
on the parent key and the index, never on how many draws the parent or any
sibling has made.

Floating-point conversions use the standard 53-bit mantissa mapping
``(raw >> 11) * 2**-53``; normals come from the Box-Muller transform.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = 2.0 ** -53

# Draws computed per block: 256 KB of uint64, so a block and its transform's
# temporaries stay in cache and a bulk call's scratch does not grow with n.
BLOCK = 1 << 15


def _mix64(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer, in place on a uint64 array."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def to_uniform(raw: np.ndarray, lo, hi) -> np.ndarray:
    """Raw outputs as float64 in [lo, hi): lo + ((raw >> 11) * 2**-53) * (hi - lo)."""
    return lo + (raw >> np.uint64(11)) * _INV_2_53 * (hi - lo)


def _box_muller(raw: np.ndarray, out: np.ndarray) -> None:
    """Standard normals from consecutive pairs of raw outputs along the last axis."""
    raw >>= np.uint64(11)
    u1 = raw[:, 0::2] + 1.0                 # (0, 1] once scaled
    u1 *= _INV_2_53
    theta = raw[:, 1::2] * _INV_2_53        # [0, 1)
    theta *= 2.0 * np.pi
    r = np.log(u1, out=u1)
    r *= -2.0
    np.sqrt(r, out=r)
    np.multiply(r, np.cos(theta), out=out[:, 0::2])
    np.multiply(r, np.sin(theta, out=theta), out=out[:, 1::2])


def draw(streams: Sequence["Rng"], n: int, transform: Callable | None = None,
         dtype=np.uint64) -> np.ndarray:
    """The next n outputs of each stream, as a [len(streams), n] array; advances each by n.

    The next output of a stream that has made c draws is
    ``mix64(key + (c + 1) * GAMMA)``, so the draws of many streams are one array
    computation. It runs over blocks of at most BLOCK draws; ``transform(raw,
    out)`` turns each block of raw outputs (which it may overwrite) into the
    matching block of the result, so no whole-size temporary is made. A block
    spans whole rows when a row fits in it; otherwise its width is BLOCK, so a
    transform that pairs columns sees even widths for even n.
    """
    out = np.empty((len(streams), n), dtype)
    starts = np.array([s._count for s in streams], np.uint64)
    starts *= _GAMMA
    starts += np.array([s._key for s in streams], np.uint64)
    cols = max(1, min(n, BLOCK))
    rows = max(1, BLOCK // cols)
    for c0 in range(0, n, cols):
        steps = np.arange(c0 + 1, min(n, c0 + cols) + 1, dtype=np.uint64)
        steps *= _GAMMA
        for r0 in range(0, len(streams), rows):
            raw = _mix64(starts[r0:r0 + rows, None] + steps)
            block = out[r0:r0 + rows, c0:c0 + cols]
            if transform is None:
                block[...] = raw
            else:
                transform(raw, block)
    for s in streams:
        s._count += n
    return out


def normals(streams: Sequence["Rng"], n: int) -> np.ndarray:
    """n standard normal float64 draws from each stream, as [len(streams), n].

    Box-Muller on consecutive pairs; an odd n takes n + 1 draws from each stream.
    """
    return draw(streams, n + n % 2, _box_muller, np.float64)[:, :n]


class Rng:
    """Single-owner pseudorandom stream; derive substreams for parallel use."""

    def __init__(self, seed: int):
        self._key = seed & _MASK
        self._count = 0

    @property
    def key(self) -> int:
        return self._key

    def substreams(self, start: int, stop: int) -> list["Rng"]:
        """Substreams start .. stop - 1 of this stream, each keyed by (this key, index)."""
        if start < 0:
            raise ValueError(f"substream index must be >= 0, got {start}")
        keys = np.arange(start + 1, stop + 1, dtype=np.uint64)
        keys *= _GAMMA
        keys ^= np.uint64(self._key)
        return [Rng(k) for k in _mix64(keys).tolist()]

    def substream(self, index: int) -> "Rng":
        """Fresh stream keyed by (this stream's key, index); order-independent."""
        return self.substreams(index, index + 1)[0]

    def next_u64(self) -> int:
        return int(self.u64(1)[0])

    def u64(self, n: int) -> np.ndarray:
        """Next n raw outputs as a uint64 array."""
        return draw([self], n)[0]

    def randint(self, bound: int) -> int:
        """Uniform integer in [0, bound). Modulo bias is < bound/2**64."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self.next_u64() % bound

    def uniforms(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        def transform(raw, out):
            out[...] = to_uniform(raw, lo, hi)
        return draw([self], n, transform, np.float64)[0]

    def normals(self, n: int) -> np.ndarray:
        """n standard normal float64 draws (Box-Muller on consecutive pairs)."""
        return normals([self], n)[0]

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n), its n - 1 draws taken in one bulk call."""
        perm = np.arange(n, dtype=np.int64)
        if n < 2:
            return perm
        js = (self.u64(n - 1) % np.arange(n, 1, -1, dtype=np.uint64)).tolist()
        for i, j in zip(range(n - 1, 0, -1), js):
            perm[i], perm[j] = perm[j], perm[i]
        return perm
