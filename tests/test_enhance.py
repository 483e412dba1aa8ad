import numpy as np
import pytest

from avfusion.enhance import (TtaTransform, ar_mean_rows, enumerate_tta, mean_rows,
                              meanstd_rows, normfft_rows)
from avfusion.rng import Rng


class TestEnumerate:
    def test_defaults_yield_18_descriptors(self):
        assert len(enumerate_tta()) == 18

    def test_wide_setting_also_yields_18(self):
        out = enumerate_tta(rotations=[-15.0, 0.0, 15.0], scales=[0.75, 1.0, 1.25])
        assert len(out) == 18

    def test_identity_only(self):
        out = enumerate_tta(rotations=[0.0], scales=[1.0])
        assert out == [TtaTransform(0.0, 1.0, False), TtaTransform(0.0, 1.0, True)]

    def test_order_is_rotation_major_then_scale_then_flip(self):
        out = enumerate_tta(rotations=[1.0, 2.0], scales=[10.0, 20.0])
        assert out[:4] == [TtaTransform(1.0, 10.0, False), TtaTransform(1.0, 10.0, True),
                           TtaTransform(1.0, 20.0, False), TtaTransform(1.0, 20.0, True)]
        assert out[4].rotation_deg == 2.0

    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError):
            enumerate_tta(rotations=[], scales=[1.0])


def random_bag(seed, n=18, dim=6):
    return Rng(seed).normal_mat(n, dim)


# the aggregators on one (T, d) bag or one row: the *_rows functions at N=1
def f_mean(bag):
    return mean_rows(np.asarray(bag, dtype=np.float64)[None])[0]


def f_meanstd(bag):
    return meanstd_rows(np.asarray(bag, dtype=np.float64)[None])[0]


def f_normfft(basic):
    return normfft_rows(basic[None])[0]


def f_ar_mean(mean_a, mean_r):
    return ar_mean_rows(mean_a[None], mean_r[None])[0]


class TestMean:
    def test_identical_vectors(self):
        f = Rng(1).normal_vec(5)
        assert np.allclose(f_mean(np.tile(f, (18, 1))), f, atol=1e-12)

    def test_two_point(self):
        assert np.allclose(f_mean([[1.0, 0.0], [0.0, 1.0]]), [0.5, 0.5])

    def test_mean_minimizes_sum_of_squared_distances(self):
        # oracle: brute-force search over a candidate grid around the bag
        bag = random_bag(2, n=6, dim=2)
        mean = f_mean(bag)

        def objective(c):
            return float(np.sum((bag - c) ** 2))

        best = objective(mean)
        grid = np.linspace(-2.5, 2.5, 41)
        for dx in grid:
            for dy in grid:
                cand = np.array([dx, dy])
                assert objective(cand) >= best - 1e-9

    def test_output_dim(self):
        assert f_mean(random_bag(3)).shape == (6,)


class TestMeanStd:
    def test_identical_vectors_give_zero_std(self):
        f = Rng(4).normal_vec(4)
        out = f_meanstd(np.tile(f, (18, 1)))
        assert np.allclose(out[:4], f, atol=1e-12)
        assert np.max(np.abs(out[4:])) < 1e-12

    def test_two_point_case(self):
        out = f_meanstd([[0.0], [2.0]])
        assert np.allclose(out, [1.0, 1.0])  # mean 1, population std 1

    def test_against_two_pass_oracle(self):
        bag = random_bag(5)
        out = f_meanstd(bag)
        mu = np.sum(bag, axis=0) / len(bag)
        var = np.sum((bag - mu) ** 2, axis=0) / len(bag)
        oracle = np.concatenate([mu, np.sqrt(var)])
        assert np.max(np.abs(out - oracle)) < 1e-12

    def test_bag_of_one(self):
        f = Rng(6).normal_vec(3)
        out = f_meanstd(f.reshape(1, -1))
        assert np.allclose(out, np.concatenate([f, np.zeros(3)]), atol=1e-15)

    def test_output_dim(self):
        assert f_meanstd(random_bag(7)).shape == (12,)


class TestNormFFT:
    def test_constant_vector(self):
        # DFT of [1,1,1,1] is [4,0,0,0]; energy 4 -> [1,0,0,0 | 0,0,0,0]
        out = f_normfft(np.array([1.0, 1.0, 1.0, 1.0]))
        assert np.allclose(out, [1, 0, 0, 0, 0, 0, 0, 0], atol=1e-12)

    def test_zero_vector_guard(self):
        assert np.array_equal(f_normfft(np.zeros(5)), np.zeros(10))

    def test_unit_norm_for_nonzero_input(self):
        for seed in range(5):
            out = f_normfft(Rng(seed).normal_vec(7))
            assert abs(np.linalg.norm(out) - 1.0) < 1e-9

    def test_output_dim(self):
        assert f_normfft(np.ones(6)).shape == (12,)


class TestArMean:
    def test_basic(self):
        assert np.array_equal(f_ar_mean(np.array([1.0]), np.array([2.0])), [1.0, 2.0])

    def test_zero_inputs(self):
        assert np.array_equal(f_ar_mean(np.zeros(3), np.zeros(3)), np.zeros(6))

    def test_energy_identity(self):
        rng = Rng(8)
        a, r = rng.normal_vec(5), rng.normal_vec(5)
        out = f_ar_mean(a, r)
        assert abs(np.sum(out ** 2) - np.sum(a ** 2) - np.sum(r ** 2)) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_aggregators_are_permutation_invariant(seed):
    bag = random_bag(seed)
    perm = list(range(len(bag)))
    Rng(seed + 100).shuffle(perm)
    shuffled = bag[perm]
    assert np.max(np.abs(f_mean(bag) - f_mean(shuffled))) < 1e-12
    assert np.max(np.abs(f_meanstd(bag) - f_meanstd(shuffled))) < 1e-12
