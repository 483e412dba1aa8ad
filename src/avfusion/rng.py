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

Vector draws (``u64_block``, ``draws``, ``*_vec``) are the scalar calls'
exact stream.  The state update T is linear over GF(2), so each lane of
``_LANE`` draws starts one jump by T^_LANE after the last (Haramoto et al.,
INFORMS J. Computing 2008), and all lanes step together in numpy ``uint64``.

Dropout masks come from a second, counter-based stream after
Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3" (SC 2011):
output ``i`` under key ``k`` is the splitmix64 finalizer of
``k + (i + 1) * golden`` (mod 2^64), i.e. the i-th output of a splitmix64
generator seeded with ``k``.  Any slice of counters can be drawn on its own
with numpy uint64 arithmetic, and the values do not depend on how the
counters are split into calls.
"""

import math
from functools import cache

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MUL = 0x2545F4914F6CDD1D
_LANE = 64  # draws per lane of a bulk call; a power of two, for the squaring
# below this many draws the scalar loop is faster than the _LANE numpy steps
_BULK_MIN = 512


def _splitmix64(x: int) -> int:
    """One splitmix64 finalizer round; used for seeding and splitting."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def _byte_tables(cols: list) -> list:
    """[b][v]: image of byte b = v under the GF(2) map with columns ``cols``."""
    tables = []
    for b in range(8):
        table = [0] * 256
        for v in range(1, 256):
            table[v] = table[v & (v - 1)] ^ cols[8 * b + (v & -v).bit_length() - 1]
        tables.append(table)
    return tables


def _jump(tables: list, x: int) -> int:
    """The linear map held in byte tables, applied to the state x."""
    out = 0
    for table in tables:
        out ^= table[x & 255]
        x >>= 8
    return out


@cache
def _lane_jump() -> list:
    """Byte tables of T^_LANE, the state update applied _LANE times."""
    probe, cols = Rng(0), []
    for i in range(64):  # T's columns: the update of each unit state
        probe._state = 1 << i
        probe.next_u64()
        cols.append(probe._state)
    tables = _byte_tables(cols)
    for _ in range(_LANE.bit_length() - 1):  # square
        tables = _byte_tables([_jump(tables, _jump(tables, 1 << i)) for i in range(64)])
    return tables


def _unit(raw: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1) with 53 random mantissa bits from raw 64-bit
    outputs, which it shifts in place."""
    raw >>= np.uint64(11)
    return raw * (1.0 / (1 << 53))


def counter_u64(key: int, start: int, stop: int) -> np.ndarray:
    """Raw 64-bit outputs for counters start..stop-1 of the stream under ``key``."""
    x = np.arange(start + 1, stop + 1, dtype=np.uint64)
    x *= np.uint64(_GOLDEN)
    x += np.uint64(int(key) & _MASK64)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX2)
    x ^= x >> np.uint64(31)
    return x


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

    def u64_block(self, count: int) -> np.ndarray:
        """The next ``count`` outputs of ``next_u64``, as a uint64 array."""
        if count < _BULK_MIN:
            return np.array([self.next_u64() for _ in range(count)], dtype=np.uint64)
        tables, starts = _lane_jump(), [self._state]
        for _ in range((count - 1) // _LANE):
            starts.append(_jump(tables, starts[-1]))
        x = np.array(starts, dtype=np.uint64)
        states = np.empty((_LANE, x.size), dtype=np.uint64)
        for row in states:
            x ^= x >> np.uint64(12)
            x ^= x << np.uint64(25)
            x ^= x >> np.uint64(27)
            row[:] = x
        states = states.T.reshape(-1)[:count]
        self._state = int(states[-1])
        return states * np.uint64(_MUL)

    def draws(self, is_normal, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        """Per slot, in order: ``normal(mu, sigma)`` where ``is_normal``, else
        ``uniform()``.  A bulk call that meets a first uniform of 0, which
        ``normal`` redraws (about 1.1e-16 per draw), replays the scalar calls.
        """
        is_normal = np.asarray(is_normal, dtype=bool)
        total = is_normal.size + np.count_nonzero(is_normal)  # outputs
        if total >= _BULK_MIN:
            start = self._state
            u = _unit(self.u64_block(total))
            width = is_normal + 1
            first = np.cumsum(width) - width
            out, u2 = u[first], u[first[is_normal] + 1]
            u1 = out[is_normal]
            if (u1 != 0.0).all():
                r = np.sqrt(-2.0 * np.array(list(map(math.log, u1.tolist()))))
                c = np.array(list(map(math.cos, ((2.0 * math.pi) * u2).tolist())))
                out[is_normal] = mu + sigma * r * c
                return out
            self._state = start
        return np.array([self.normal(mu, sigma) if k else self.uniform()
                         for k in is_normal.tolist()], dtype=np.float64)

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
        return low + (high - low) * _unit(self.u64_block(size))

    def uniform_mat(self, rows: int, cols: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self.uniform_vec(rows * cols, low, high).reshape(rows, cols)

    def normal_vec(self, size: int, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        return self.draws(np.ones(size, dtype=bool), mu, sigma)

    def normal_mat(self, rows: int, cols: int) -> np.ndarray:
        return self.normal_vec(rows * cols).reshape(rows, cols)
