"""Counter-based deterministic random generator (SplitMix64).

Every value drawn is a pure function of the 64-bit seed and a draw counter,
so a report that records its seed can be regenerated bit-for-bit on any
platform and in any language with a SplitMix64 implementation. No global
state, no OS entropy.
"""

import numpy as np

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """SplitMix64 finalizer: bijective 64-bit mix."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class Rng:
    """SplitMix64 stream: the i-th output is mix64(seed + i * golden)."""

    __slots__ = ("seed", "_counter")

    def __init__(self, seed: int):
        self.seed = seed & MASK64
        self._counter = 0

    def next_u64(self) -> int:
        self._counter += 1
        return mix64((self.seed + self._counter * _GOLDEN) & MASK64)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection sampling."""
        if n <= 0:
            raise ValueError("randbelow needs n >= 1")
        if n == 1:
            return 0
        k = (n - 1).bit_length()
        while True:
            r = self.next_u64() >> (64 - k)
            if r < n:
                return r

    def randbelow_many(self, n: int, count: int) -> np.ndarray:
        """`count` draws of `randbelow(n)` (n <= 2^63) as an int64 array, mixed on
        uint64 arrays (uint64 operands only, so NumPy 1.x never promotes to
        float64); the counter ends where `count` scalar calls leave it."""
        if not 1 <= n <= 1 << 63:
            raise ValueError("randbelow_many needs 1 <= n <= 2^63")
        if n == 1 or count <= 0:
            return np.zeros(max(count, 0), dtype=np.int64)
        shift, bound = np.uint64(64 - (n - 1).bit_length()), np.uint64(n)
        out = []
        while count:
            block = 2 * count + 8  # a candidate is accepted with probability > 1/2
            z = np.arange(1, block + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
            z += np.uint64((self.seed + self._counter * _GOLDEN) & MASK64)
            for s, mul in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
                z ^= z >> np.uint64(s)
                z *= np.uint64(mul)
            z = (z ^ (z >> np.uint64(31))) >> shift
            hits = np.flatnonzero(z < bound)[:count]
            self._counter += int(hits[-1]) + 1 if len(hits) == count else block
            out.append(z[hits])
            count -= len(hits)
        return np.concatenate(out).astype(np.int64)

    def bernoulli(self, q: float) -> bool:
        """True with probability q (q quantized to 64-bit resolution)."""
        if q <= 0.0:
            return False
        if q >= 1.0:
            return True
        return self.next_u64() < int(q * 2.0**64)

    def sample_indices(self, n: int, k: int) -> list:
        """k distinct indices from range(n), sorted ascending.

        Sparse partial Fisher-Yates; never materializes range(n).
        """
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        moved = {}
        out = []
        for i in range(k):
            j = i + self.randbelow(n - i)
            out.append(moved.get(j, j))
            moved[j] = moved.get(i, i)
        return sorted(out)

    def derive(self, index: int) -> "Rng":
        """Independent child stream for trial `index`; deterministic in (seed, index)."""
        return Rng(mix64((self.seed + (index + 1) * _GOLDEN) & MASK64))
