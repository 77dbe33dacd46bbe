"""Seedable xoshiro256** random generator.

The algorithm (Blackman & Vigna's xoshiro256**, state seeded through
splitmix64) is fully specified here so an independent implementation can
reproduce every stream bit for bit:

    splitmix64(z):  z += 0x9E3779B97F4A7C15
                    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
                    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
                    return z ^ (z >> 31)
    state: four 64-bit words s0..s3, produced by four splitmix64 draws
           from the user seed.
    next:  out = rotl(s1 * 5, 7) * 9
           t = s1 << 17
           s2 ^= s0; s3 ^= s1; s1 ^= s2; s0 ^= s3; s2 ^= t
           s3 = rotl(s3, 45)

Doubles in [0, 1) take the top 53 bits: (out >> 11) * 2**-53.

`units(count)` draws count doubles in one loop over the state words held in
locals, the one copy of the step that `next_u64` and `uniform` also use;
`uniform_array` scales a batch with one numpy expression, lo + (hi - lo) * u,
the float64 operations `uniform` makes on each draw, so a batch has the bits
of the same draws made one at a time.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF


def _splitmix64(z: int) -> tuple[int, int]:
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    x = z
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return z, x ^ (x >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


class Xoshiro256:
    """Deterministic stream of 64-bit words / uniform doubles for a 64-bit seed."""

    def __init__(self, seed: int):
        seed = int(seed) & _MASK
        z = seed
        state = []
        for _ in range(4):
            z, w = _splitmix64(z)
            state.append(w)
        self._s = state

    def _words(self, count: int) -> list:
        """The next count 64-bit outputs; the state stays in locals until the end."""
        s0, s1, s2, s3 = self._s
        words = []
        for _ in range(count):
            words.append((_rotl((s1 * 5) & _MASK, 7) * 9) & _MASK)
            t = (s1 << 17) & _MASK
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return words

    def next_u64(self) -> int:
        return self._words(1)[0]

    def units(self, count: int) -> np.ndarray:
        """count doubles in [0, 1), each the top 53 bits of one output."""
        return (np.array(self._words(count), dtype=np.uint64) >> np.uint64(11)) * 2.0**-53

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * 2.0**-53
        return lo + (hi - lo) * u

    def uniform_array(self, shape, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        return (lo + (hi - lo) * self.units(int(np.prod(shape)))).reshape(shape)
