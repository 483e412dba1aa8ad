"""Seeded, splittable PRNG with a platform-independent stream.

The generator is xorshift64* (Vigna's 64-bit xorshift with a multiplicative
output scramble).  The raw seed is passed through one splitmix64 round before
use so that small or zero seeds still start from a well-mixed nonzero state.
All arithmetic is done on Python integers masked to 64 bits, so the stream is
bit-identical on every platform.

State update:   x ^= x >> 12;  x ^= x << 25;  x ^= x >> 27
Output:         (x * 0x2545F4914F6CDD1D) mod 2^64

Test vectors (first three ``next_u64`` outputs):
    seed 0  -> 8916199331640804048, 16032783972208265725, 12954103179475586193
    seed 1  -> 5424204624148110235, 15555979849632202484, 6851360858507811590
    seed 42 -> 3580622183945639842, 10378725325292465923, 8967075514996744559

Bulk draws (dropout masks) come from a second, counter-based stream after
Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3" (SC 2011):
output ``i`` under key ``k`` is the splitmix64 finalizer of
``k + (i + 1) * golden`` (mod 2^64), i.e. the i-th output of a splitmix64
generator seeded with ``k``.  Any slice of counters can be drawn on its own
with numpy uint64 arithmetic, and the values do not depend on how the
counters are split into calls.
"""

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _splitmix64(x: int) -> int:
    """One splitmix64 finalizer round; used for seeding and splitting."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def counter_uniform(key: int, start: int, stop: int) -> np.ndarray:
    """Uniforms in [0, 1) for counters start..stop-1 of the stream under ``key``.

    Each value has 53 random mantissa bits, as in ``Rng.uniform``.
    """
    x = np.arange(start + 1, stop + 1, dtype=np.uint64)
    x *= np.uint64(_GOLDEN)
    x += np.uint64(int(key) & _MASK64)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX2)
    x ^= x >> np.uint64(31)
    x >>= np.uint64(11)
    return x * (1.0 / (1 << 53))


class Rng:
    """xorshift64* stream; identical seed gives an identical stream."""

    __slots__ = ("seed", "_state")

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        state = _splitmix64(self.seed)
        # xorshift state must never be zero
        self._state = state if state != 0 else _GOLDEN

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def split(self) -> "Rng":
        """Child generator whose stream is independent of later draws here."""
        return Rng(self.next_u64())

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Uniform in [low, high) with 53 random mantissa bits."""
        u = (self.next_u64() >> 11) * (1.0 / (1 << 53))
        return low + (high - low) * u

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """Box-Muller; consumes exactly two uniforms per call (no cached spare)."""
        u1 = self.uniform()
        while u1 == 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        return mu + sigma * r * math.cos(2.0 * math.pi * u2)

    def randint(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("randint bound must be positive")
        limit = _MASK64 - (_MASK64 + 1) % n
        while True:
            x = self.next_u64()
            if x <= limit:
                return x % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def uniform_vec(self, size: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return np.array([self.uniform(low, high) for _ in range(size)])

    def uniform_mat(self, rows: int, cols: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self.uniform_vec(rows * cols, low, high).reshape(rows, cols)

    def normal_vec(self, size: int, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        return np.array([self.normal(mu, sigma) for _ in range(size)])

    def normal_mat(self, rows: int, cols: int, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        return self.normal_vec(rows * cols, mu, sigma).reshape(rows, cols)
