import numpy as np
import pytest

from avfusion.rng import _BULK_MIN, _LANE, Rng

# frozen stream heads; any change to the algorithm is a breaking change
KNOWN_STREAMS = {
    0: [8916199331640804048, 16032783972208265725, 12954103179475586193],
    1: [5424204624148110235, 15555979849632202484, 6851360858507811590],
    42: [3580622183945639842, 10378725325292465923, 8967075514996744559],
}


@pytest.mark.parametrize("seed,expected", KNOWN_STREAMS.items())
def test_documented_stream_heads(seed, expected):
    rng = Rng(seed)
    assert [rng.next_u64() for _ in range(3)] == expected


def test_identical_seed_identical_stream():
    a, b = Rng(987654321), Rng(987654321)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_split_streams_are_deterministic_and_distinct():
    parent1, parent2 = Rng(5), Rng(5)
    child1, child2 = parent1.split(), parent2.split()
    head1 = [child1.next_u64() for _ in range(5)]
    assert head1 == [child2.next_u64() for _ in range(5)]
    assert head1 != [parent1.next_u64() for _ in range(5)]


def test_uniform_range_and_determinism():
    rng = Rng(7)
    values = [rng.uniform() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    replay = Rng(7)
    assert values == [replay.uniform() for _ in range(1000)]


def test_uniform_bounds_scaling():
    rng = Rng(8)
    values = [rng.uniform(-2.0, 3.0) for _ in range(500)]
    assert all(-2.0 <= v < 3.0 for v in values)


def test_randint_covers_range_without_bias_smoke():
    rng = Rng(9)
    counts = np.zeros(5, dtype=int)
    for _ in range(5000):
        counts[rng.randint(5)] += 1
    assert counts.min() > 800  # roughly uniform

    with pytest.raises(ValueError):
        rng.randint(0)


def test_randint_bound_above_2_to_the_64_is_refused():
    # its rejection limit would be negative, so no draw would ever be accepted
    rng = Rng(1)
    with pytest.raises(ValueError):
        rng.randint(2**65)
    with pytest.raises(ValueError):
        rng.randint(2**64 + 1)
    assert rng.randint(2**64) == Rng(1).next_u64()  # the largest bound takes every output


def test_shuffle_is_a_permutation():
    rng = Rng(10)
    items = list(range(50))
    rng.shuffle(items)
    assert sorted(items) == list(range(50))
    again = list(range(50))
    Rng(10).shuffle(again)
    assert items == again


def _scalar_shuffle(rng, items):
    """Fisher-Yates on scalar draws: swap i and randint(i + 1) for i = n-1 .. 1."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randint(i + 1)
        items[i], items[j] = items[j], items[i]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 64, 65, 280, 511, 512, 513, 2000])
def test_shuffle_is_the_scalar_fisher_yates(n):
    block, scalar = Rng(40 + n), Rng(40 + n)
    got, want = list(range(n)), list(range(n))
    block.shuffle(got)
    _scalar_shuffle(scalar, want)
    assert got == want
    assert block.next_u64() == scalar.next_u64()


@pytest.mark.parametrize("n", [3, 280, 2000])
def test_shuffle_replays_the_scalar_draws_on_a_rejected_output(n, monkeypatch):
    # an output of 2**64 - 1 is above randint's limit for any bound that is
    # not a power of two, such as n, the bound of the first output
    calls = []
    block_draw = Rng.u64_block

    def one_over_limit(self, count):
        calls.append(count)
        raw = block_draw(self, count)
        raw[0] = np.uint64(_MASK)
        return raw

    monkeypatch.setattr(Rng, "u64_block", one_over_limit)
    block, scalar = Rng(41), Rng(41)
    got, want = list(range(n)), list(range(n))
    block.shuffle(got)
    assert calls == [n - 1]
    _scalar_shuffle(scalar, want)
    assert got == want
    assert block.next_u64() == scalar.next_u64()


def test_normal_moments():
    rng = Rng(11)
    xs = rng.normal_vec(20000, mu=1.0, sigma=2.0)
    assert abs(np.mean(xs) - 1.0) < 0.05
    assert abs(np.std(xs) - 2.0) < 0.05


def test_seed_is_masked_to_64_bits():
    assert Rng(1 << 70).seed == 0
    assert Rng(-1 & ((1 << 64) - 1)).next_u64() == Rng(2**64 - 1).next_u64()


# --- bulk draws: the exact stream of the scalar calls -------------------------

_MASK = (1 << 64) - 1
_MUL = 0x2545F4914F6CDD1D


def _boundaries(lane, bulk_min):
    return {lane - 1, lane, lane + 1, bulk_min - 1, bulk_min, bulk_min + 1,
            5 * lane, 9 * lane + 7, 40 * lane + 1}


# this generator's lane and bulk boundaries, and those of the 64-draw lanes
# and 512-draw bulk minimum it had before, which now fall inside bulk calls
BULK_COUNTS = sorted({1} | _boundaries(_LANE, _BULK_MIN) | _boundaries(64, 512))


@pytest.mark.parametrize("count", [0] + BULK_COUNTS)
def test_u64_block_is_the_scalar_stream(count):
    bulk, scalar = Rng(31), Rng(31)
    block = bulk.u64_block(count)
    assert block.dtype == np.uint64
    assert block.tolist() == [scalar.next_u64() for _ in range(count)]
    # and it leaves the state where the scalar calls do
    assert bulk.next_u64() == scalar.next_u64()


@pytest.mark.parametrize("count", BULK_COUNTS)
@pytest.mark.parametrize("low,high", [(0.0, 1.0), (-2.5, 3.0), (0.5, 1.5), (-1, 1)])
def test_uniform_vec_is_the_scalar_stream(count, low, high):
    bulk, scalar = Rng(32), Rng(32)
    got = bulk.uniform_vec(count, low, high)
    assert got.tobytes() == np.array([scalar.uniform(low, high) for _ in range(count)]).tobytes()
    assert bulk.next_u64() == scalar.next_u64()


@pytest.mark.parametrize("count", BULK_COUNTS)
@pytest.mark.parametrize("mu,sigma", [(0.0, 1.0), (1.0, 2.0), (0.0, 0.02), (-3.0, 0.5)])
def test_normal_vec_is_the_scalar_stream(count, mu, sigma):
    bulk, scalar = Rng(33), Rng(33)
    got = bulk.normal_vec(count, mu, sigma)
    assert got.tobytes() == np.array([scalar.normal(mu, sigma) for _ in range(count)]).tobytes()
    assert bulk.next_u64() == scalar.next_u64()


def _assert_draws_replay_the_scalar_calls(layout, state):
    bulk, scalar = Rng(0), Rng(0)
    bulk._state = scalar._state = state
    got = bulk.draws(layout)
    want = [scalar.normal() if k else scalar.uniform() for k in layout]
    assert got.tobytes() == np.array(want).tobytes()
    assert bulk.next_u64() == scalar.next_u64()


def test_mixed_draws_are_the_scalar_stream():
    # the interaction generator's layout: uniforms, then normals, per sample
    _assert_draws_replay_the_scalar_calls(np.tile([False] * 4 + [True] * 36, 30),
                                          Rng(34)._state)


def test_large_mixed_draws_are_the_scalar_stream():
    # the interaction layout over 500 samples: 38,000 outputs, many lanes
    _assert_draws_replay_the_scalar_calls(np.tile([False] * 4 + [True] * 36, 500),
                                          Rng(35)._state)


def _unstep(x):
    """Inverse of the xorshift64* state update."""
    for shift, left in ((27, False), (25, True), (12, False)):
        y, part = x, x
        while True:
            part = ((part << shift) & _MASK) if left else part >> shift
            if not part:
                break
            y ^= part
        x = y
    return x


def _state_before_zero_uniform(draws_before):
    """A state whose next ``draws_before`` outputs are followed by an output
    below 2**11, i.e. a uniform of exactly 0.0."""
    state = pow(_MUL, -1, 1 << 64)  # state * MUL = 1 (mod 2**64)
    for _ in range(draws_before + 1):
        state = _unstep(state)
    return state


@pytest.mark.parametrize("k", [0, 7, 300])
def test_zero_first_uniform_in_a_bulk_call_is_redrawn(k):
    # normal k's first uniform is output 2k of the call
    start = _state_before_zero_uniform(2 * k)
    probe = Rng(0)
    probe._state = start
    assert probe.u64_block(2 * k + 1)[-1] >> np.uint64(11) == 0
    bulk, scalar = Rng(0), Rng(0)
    bulk._state = scalar._state = start
    count = _BULK_MIN + k  # a bulk call whose outputs reach 2k
    got = bulk.normal_vec(count, 1.0, 2.0)
    want = np.array([scalar.normal(1.0, 2.0) for _ in range(count)])
    assert got.tobytes() == want.tobytes()
    assert np.all(np.isfinite(got))
    assert bulk.next_u64() == scalar.next_u64()


def test_zero_first_uniform_in_mixed_draws_is_redrawn():
    # slot 2 is the first normal, after two uniforms: its u1 is output 2
    _assert_draws_replay_the_scalar_calls(np.tile([False, False] + [True] * 20, 30),
                                          _state_before_zero_uniform(2))
