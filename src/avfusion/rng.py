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

Vector draws (``u64_block``, ``draws``, ``*_vec``, ``shuffle``) are the
scalar calls' exact stream:

- ``u64_block``: the state update T is linear over GF(2), so each lane of
  ``_LANE`` draws starts T^_LANE after the last (Haramoto et al., INFORMS J.
  Computing 2008), and all lanes step together in numpy ``uint64``.  The
  lane starts come in rounds: a round applies T^(_LANE * known) to every
  start known so far, which doubles them, through byte tables of
  T^(_LANE * 2^k) built once per process by squaring.
- ``draws`` (normals): Box-Muller keeps one ``math.log`` and one
  ``math.cos`` per normal, in the scalar order, fed from a ``memoryview``
  into ``np.fromiter``; numpy's own ``log`` differs from libm's in the last
  bit on some inputs.  A first uniform of 0, which ``normal`` redraws,
  makes the call rewind and replay the scalar calls.
- ``shuffle``: the n - 1 draws of Fisher-Yates come in one ``u64_block``,
  are checked against ``randint``'s rejection limits and reduced modulo
  n, n - 1, ..., 2 in numpy.  An output ``randint`` would reject makes the
  call rewind and replay ``randint``.

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
_LANE = 16  # draws per lane of a bulk call; a power of two
# below this many draws the scalar loop is faster than the _LANE numpy steps
_BULK_MIN = 256
_BYTES = np.arange(8)


def _splitmix64(x: int) -> int:
    """One splitmix64 finalizer round; used for seeding and splitting."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def _jump(tables: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The GF(2) linear map held in (8, 256) byte tables, applied to each
    state of the uint64 array x: the XOR of its bytes' images."""
    octets = x.astype("<u8").view(np.uint8).reshape(-1, 8)
    return np.bitwise_xor.reduce(tables[_BYTES, octets], axis=1)


@cache
def _lane_tables(k: int) -> np.ndarray:
    """Byte tables of T^(_LANE * 2^k), the state update applied _LANE * 2^k
    times: entry [b, v] is the image of the state whose byte b is v."""
    if k == 0:
        probe, cols = Rng(0), []
        for i in range(64):  # the image of each unit state
            probe._state = 1 << i
            for _ in range(_LANE):
                probe.next_u64()
            cols.append(probe._state)
        cols = np.array(cols, dtype=np.uint64)
    else:  # square
        half = _lane_tables(k - 1)
        cols = _jump(half, _jump(half, np.uint64(1) << np.arange(64, dtype=np.uint64)))
    tables, cols = np.zeros((8, 256), dtype=np.uint64), cols.reshape(8, 8)
    for bit in range(8):
        tables[:, 1 << bit:2 << bit] = tables[:, :1 << bit] ^ cols[:, bit:bit + 1]
    return tables


def _lane_starts(state: int, lanes: int) -> np.ndarray:
    """``state`` advanced by 0, _LANE, 2 * _LANE, ... steps, one per lane;
    round k jumps the 2^k starts known by _LANE * 2^k steps, doubling them."""
    starts = np.empty(lanes, dtype=np.uint64)
    starts[0], known, k = state, 1, 0
    while known < lanes:
        step = min(known, lanes - known)
        starts[known:known + step] = _jump(_lane_tables(k), starts[:step])
        known, k = known + step, k + 1
    return starts


def _unit(raw: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1) with 53 random mantissa bits from raw 64-bit
    outputs, which it shifts in place."""
    raw >>= np.uint64(11)
    return raw * (1.0 / (1 << 53))


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` (a ``math`` function) of each element of the contiguous float64
    array ``x``, in order, with no Python list in between."""
    return np.fromiter(map(fn, memoryview(x)), np.float64, x.size)


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
        if count < _BULK_MIN:  # next_u64's steps, in locals
            x, out = self._state, []
            for _ in range(count):
                x ^= x >> 12
                x ^= (x << 25) & _MASK64
                x ^= x >> 27
                out.append((x * _MUL) & _MASK64)
            self._state = x
            return np.array(out, dtype=np.uint64)
        x = _lane_starts(self._state, (count - 1) // _LANE + 1)
        states, tmp = np.empty((_LANE, x.size), dtype=np.uint64), np.empty_like(x)
        for row in states:  # row = T(x) with no temporaries
            np.right_shift(x, np.uint64(12), out=row)
            row ^= x
            np.left_shift(row, np.uint64(25), out=tmp)
            row ^= tmp
            np.right_shift(row, np.uint64(27), out=tmp)
            row ^= tmp
            x = row
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
                r = np.sqrt(-2.0 * _libm(math.log, u1))
                c = _libm(math.cos, (2.0 * math.pi) * u2)
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
        """Unbiased integer in [0, n) via rejection sampling; 1 <= n <= 2^64."""
        if not 0 < n <= _MASK64 + 1:
            raise ValueError("randint bound must be in [1, 2**64]")
        limit = _MASK64 - (_MASK64 + 1) % n
        while True:
            x = self.next_u64()
            if x <= limit:
                return x % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle: for i = n-1, ..., 1, swap items i
        and ``randint(i + 1)``.  The n - 1 outputs come in one ``u64_block``;
        if ``randint`` would reject any of them (each with probability below
        n / 2^64), the call rewinds and replays the scalar draws."""
        n, start = len(items), self._state
        bounds = np.arange(n, 1, -1, dtype=np.uint64)
        raw = self.u64_block(bounds.size)
        # randint's limit, 2^64 - 1 - 2^64 % b, with 2^64 % b = (2^64 - 1) % b + 1 mod b
        mask = np.uint64(_MASK64)
        if (raw <= mask - (mask % bounds + 1) % bounds).all():
            picks = (raw % bounds).tolist()
        else:
            self._state = start
            picks = [self.randint(b) for b in range(n, 1, -1)]
        for i, j in zip(range(n - 1, 0, -1), picks):
            items[i], items[j] = items[j], items[i]

    def uniform_vec(self, size: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return low + (high - low) * _unit(self.u64_block(size))

    def uniform_mat(self, rows: int, cols: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self.uniform_vec(rows * cols, low, high).reshape(rows, cols)

    def normal_vec(self, size: int, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        return self.draws(np.ones(size, dtype=bool), mu, sigma)

    def normal_mat(self, rows: int, cols: int) -> np.ndarray:
        return self.normal_vec(rows * cols).reshape(rows, cols)
