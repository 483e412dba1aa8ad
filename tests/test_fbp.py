import numpy as np
import pytest

from avfusion.checks import check_fbp
from avfusion.errors import DimMismatch, NumericalDivergence
from avfusion.fbp import FBPParams, fbp_fuse, window_sums
from avfusion.rng import Rng


def scalar_params(dropout=0.0):
    return FBPParams(u_tilde=np.array([[1.0]]), v_tilde=np.array([[1.0]]),
                     k=1, o=1, dropout_p=dropout)


def fbp_expand(params: FBPParams) -> list:
    """Materialize the o implicit bilinear matrices W_i (each m x n).

    For all a, v: a' W_i v equals the pre-dropout, pre-normalization z_i that
    ``FBPParams.fuse`` keeps in its cache.
    """
    mats = []
    for i in range(params.o):
        cols = slice(i * params.k, (i + 1) * params.k)
        mats.append(params.u_tilde[:, cols] @ params.v_tilde[:, cols].T)
    return mats


def backward_arrays(params: FBPParams, cache, g):
    """(d_u_tilde, d_v_tilde, d_a, d_v) of ``params.backward``."""
    grads, (d_a, d_v) = params.backward(cache, g)
    return grads["u_tilde"], grads["v_tilde"], d_a, d_v


class TestFuse:
    def test_scalar_example(self):
        res = fbp_fuse(np.array([2.0]), np.array([3.0]), scalar_params())
        assert np.allclose(res.cache.z, [6.0])
        assert np.allclose(res.fused.values, [1.0])  # normalized scalar

    def test_zero_vector_passes_through_normalization(self):
        res = fbp_fuse(np.zeros(1), np.array([3.0]), scalar_params())
        assert np.array_equal(res.fused.values, [0.0])

    def test_window_sum_matches_explicit_bilinear(self):
        # oracle: a' W_1 v with W_1 = 1*3 + 2*4 = 11 for rank-2 factors
        params = FBPParams(u_tilde=np.array([[1.0, 2.0]]),
                           v_tilde=np.array([[3.0, 4.0]]), k=2, o=1, dropout_p=0.0)
        res = fbp_fuse(np.array([1.0]), np.array([1.0]), params)
        assert np.allclose(res.cache.z, [11.0])

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            fbp_fuse(np.ones(2), np.ones(1), scalar_params())

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            fbp_fuse(np.ones(1), np.ones(1), scalar_params(), mode="predict")

    def test_train_mode_rejected(self):
        # training runs FBPParams.fuse with a dropout_mask
        with pytest.raises(ValueError):
            fbp_fuse(np.ones(1), np.ones(1), scalar_params(0.5), mode="train")

    def test_normalized_output_has_unit_norm(self):
        rng = Rng(21)
        params = FBPParams.init(4, 5, 3, 2, 0.0, rng)
        res = fbp_fuse(rng.normal_vec(4), rng.normal_vec(5), params)
        assert abs(np.linalg.norm(res.fused.values) - 1.0) < 1e-9

    def test_positive_scaling_of_projection_leaves_output_unchanged(self):
        rng = Rng(22)
        params = FBPParams.init(4, 5, 2, 3, 0.0, rng)
        a, v = rng.normal_vec(4), rng.normal_vec(5)
        base = fbp_fuse(a, v, params).fused.values
        scaled = FBPParams(u_tilde=7.5 * params.u_tilde, v_tilde=params.v_tilde,
                           k=2, o=3, dropout_p=0.0)
        assert np.allclose(fbp_fuse(a, v, scaled).fused.values, base, atol=1e-12)

    def test_eval_mode_is_deterministic_and_train_mode_seeded(self):
        rng_params = Rng(23)
        params = FBPParams.init(3, 3, 2, 2, 0.5, rng_params)
        a, v = rng_params.normal_vec(3), rng_params.normal_vec(3)
        e1 = fbp_fuse(a, v, params, mode="eval").fused.values
        e2 = fbp_fuse(a, v, params, mode="eval").fused.values
        assert np.array_equal(e1, e2)

        def train_row():
            return params.fuse(a[None], v[None], params.dropout_mask(Rng(99).next_u64(), 0, 1))[0]

        assert np.array_equal(train_row(), train_row())


class TestExpand:
    def test_rank_one_outer_product(self):
        rng = Rng(24)
        u = rng.normal_vec(3).reshape(3, 1)
        v = rng.normal_vec(4).reshape(4, 1)
        params = FBPParams(u_tilde=u, v_tilde=v, k=1, o=1, dropout_p=0.0)
        assert np.allclose(fbp_expand(params)[0], np.outer(u[:, 0], v[:, 0]))

    def test_k2_example(self):
        params = FBPParams(u_tilde=np.array([[1.0, 2.0]]),
                           v_tilde=np.array([[3.0, 4.0]]), k=2, o=1, dropout_p=0.0)
        assert np.allclose(fbp_expand(params)[0], [[11.0]])

    def test_factorization_equivalence_on_random_instances(self):
        rng = Rng(25)
        for _ in range(100):
            m, n = rng.randint(8) + 1, rng.randint(8) + 1
            k, o = rng.randint(4) + 1, rng.randint(3) + 1
            params = FBPParams.init(m, n, k, o, 0.0, rng)
            a, v = rng.normal_vec(m), rng.normal_vec(n)
            z = fbp_fuse(a, v, params).cache.z[0]
            explicit = np.array([a @ w @ v for w in fbp_expand(params)])
            assert np.max(np.abs(z - explicit)) < 1e-9


class TestDropout:
    def test_expectation_is_preserved(self):
        # mean of dropped-and-rescaled h over many masks stays within 3 sigma
        p = 0.3
        h = np.array([1.0, -2.0, 0.5, 3.0])
        params = FBPParams(u_tilde=h.reshape(1, -1), v_tilde=np.ones((1, 4)),
                           k=1, o=4, dropout_p=p)
        rng = Rng(26)
        trials = 10_000
        # one key per trial, row 0 of each
        mask = np.vstack([params.dropout_mask(rng.next_u64(), 0, 1) for _ in range(trials)])
        ones = np.ones((trials, 1))
        mean = params.fuse(ones, ones, mask)[1].z.mean(axis=0)
        sigma = np.abs(h) * np.sqrt(p / (1.0 - p)) / np.sqrt(trials)
        assert np.all(np.abs(mean - h) <= 3.0 * sigma + 1e-12)

    def test_masked_column_gets_zero_gradient(self):
        rng = Rng(27)
        m, n, k, o = 3, 3, 1, 4
        params = FBPParams.init(m, n, k, o, 0.5, rng)
        mask = np.array([1.0, 0.0, 1.0, 1.0])
        _, cache = params.fuse(rng.normal_vec(m)[None], rng.normal_vec(n)[None],
                               mask[None] / (1 - params.dropout_p))
        d_u, d_v, _, _ = backward_arrays(params, cache, rng.normal_vec(o)[None])
        assert np.all(d_u[:, 1] == 0.0)
        assert np.all(d_v[:, 1] == 0.0)


class TestBackward:
    # the seed's parity decides: even seeds run without dropout
    @pytest.mark.parametrize("i", range(10))
    def test_gradcheck_dropout_off(self, i):
        assert check_fbp(2 * i) < 1e-4

    @pytest.mark.parametrize("i", range(10))
    def test_gradcheck_frozen_mask(self, i):
        assert check_fbp(2 * i + 1) < 1e-4

    def test_zero_upstream_gives_zero_grads(self):
        rng = Rng(28)
        params = FBPParams.init(3, 4, 2, 2, 0.0, rng)
        res = fbp_fuse(rng.normal_vec(3), rng.normal_vec(4), params)
        for g in backward_arrays(params, res.cache, np.zeros((1, 2))):
            assert np.all(g == 0.0)


class TestExtremeScales:
    """A sum of squares that overflows or underflows still normalizes each row."""

    @pytest.mark.parametrize("scale", [1e80, 1e-80, 1e-85, 1e150])
    def test_scaled_projections_give_the_unscaled_rows_and_gradients(self, scale):
        rng = Rng(30)
        params = FBPParams.init(4, 5, 2, 3, 0.0, rng)
        a, v, g = rng.normal_mat(6, 4), rng.normal_mat(6, 5), rng.normal_mat(6, 3)
        scaled = FBPParams(u_tilde=scale * params.u_tilde, v_tilde=scale * params.v_tilde,
                           k=2, o=3, dropout_p=0.0)
        base, base_cache = params.fuse(a, v)
        out, cache = scaled.fuse(a, v)
        assert np.all(np.abs(np.linalg.norm(out, axis=1) - 1.0) <= 1e-12)
        assert np.max(np.abs(out - base)) <= 1e-15
        # out(s u, s v) = out(u, v), so d out / d(s u) = (d out / d u) / s
        grads = backward_arrays(scaled, cache, g)
        base_grads = backward_arrays(params, base_cache, g)
        for got, want in zip(grads[:2], base_grads[:2]):
            assert np.max(np.abs(got * scale - want)) <= 1e-14 * np.max(np.abs(want))

    def test_zero_row_among_extreme_rows_passes_through(self):
        params = scalar_params()
        out, _ = params.fuse(np.array([[0.0], [1e-85], [1e200]]),
                             np.array([[3.0], [1e-85], [1e100]]))
        assert out.tolist() == [[0.0], [1.0], [1.0]]

    def test_subnormal_norm_row_keeps_finite_gradients(self):
        # |z| is about 4e-311: the backward used to overflow dividing by it
        params = FBPParams.init(3, 3, 2, 4, 0.0, Rng(1))
        g = Rng(2).normal_mat(1, 4)
        base_out, base_cache = params.fuse(np.ones((1, 3)), np.ones((1, 3)))
        out, cache = params.fuse(np.full((1, 3), 1e-155), np.full((1, 3), 1e-155))
        assert cache.tiny is not None
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12
        assert np.max(np.abs(out - base_out)) <= 1e-11
        # out has degree 0 in a and in v: the projection gradients keep their
        # size, d_a and d_v grow by 1/1e-155
        grads = backward_arrays(params, cache, g)
        for got, want, scale in zip(grads, backward_arrays(params, base_cache, g),
                                    (1.0, 1.0, 1e-155, 1e-155)):
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got * scale - want)) <= 1e-11 * np.max(np.abs(want))

    def test_unrepresentable_subnormal_row_gradient_raises(self):
        params = FBPParams.init(3, 3, 2, 4, 0.0, Rng(1))
        _, cache = params.fuse(np.full((1, 3), 1e-310), np.full((1, 3), 1e-5))
        with pytest.raises(NumericalDivergence, match="FBP"):
            params.backward(cache, np.ones((1, 4)))

    def test_only_an_all_ordinary_block_takes_the_shortcut(self):
        # ordinary rows, then an overflowing, an underflowing and a zero row:
        # the block takes the guarded path, and its ordinary rows keep the
        # bytes they get fused alone, which take the shortcut.  With m = n = 1
        # each projection is one product, the same bytes at any batch size.
        rng = Rng(31)
        params = FBPParams.init(1, 1, 2, 3, 0.0, rng)
        a, v = rng.normal_mat(3, 1), rng.normal_mat(3, 1)
        scale = np.array([[1.0], [1.0], [1.0], [1e80], [1e-85], [0.0]])
        out, cache = params.fuse(np.vstack([a, a]) * scale, np.vstack([v, v]) * scale)
        assert cache.tiny is not None and cache.tiny[0].tolist() == [4]
        for i in range(3):
            alone, alone_cache = params.fuse(a[i:i + 1], v[i:i + 1])
            assert alone_cache.tiny is None
            assert out[i].tobytes() == alone[0].tobytes()
            assert cache.denom[i].tobytes() == alone_cache.denom[0].tobytes()
        assert out[5].tolist() == [0.0] * 3 and cache.denom[5].tolist() == [1.0]
        # the ordinary block alone: |z| itself is the denominator
        out, cache = params.fuse(a, v)
        assert cache.tiny is None
        want = np.sqrt(np.sum(cache.z * cache.z, axis=1, keepdims=True))
        assert cache.denom.tobytes() == want.tobytes()
        assert out.tobytes() == (cache.z / want).tobytes()


class _Sliced(np.ndarray):
    """Counts the strided slices taken of it: the slice path takes k, the reduce none."""
    slices = 0

    def __getitem__(self, key):
        _Sliced.slices += 1
        return super().__getitem__(key)


def _sums_and_slices(h, o, k):
    _Sliced.slices = 0
    z = window_sums(h.view(_Sliced), o, k)
    return np.asarray(z), _Sliced.slices


class TestWindowSums:
    O = 4  # windows per row, so the slice path starts at 16*k rows

    @pytest.mark.parametrize("k", range(1, 10))
    def test_both_paths_give_the_bytes_of_the_reduce(self, k):
        rng = np.random.default_rng(k)
        threshold = 64 * k // self.O
        for rows in (1, threshold - 1, threshold, threshold + 13):
            h = rng.standard_normal((rows, k * self.O)) * np.exp(
                rng.uniform(-40.0, 40.0, (rows, k * self.O)))
            h[rng.random(h.shape) < 0.3] = 0.0
            # windows whose dropout masked every unit of a negative product
            # hold -0.0 only, and must sum to +0.0
            masked = h[::3, :k]
            masked[...] = -np.abs(masked) * 0.0
            z, slices = _sums_and_slices(h, self.O, k)
            assert z.tobytes() == h.reshape(-1, self.O, k).sum(axis=2).tobytes()
            assert not np.signbit(z[::3, 0]).any()
            assert slices == (k if k < 8 and rows >= threshold else 0), rows

    @pytest.mark.parametrize("k", [8, 9])
    def test_eight_terms_or_more_take_the_reduce(self, k):
        # in order from +0.0 a window of 1e16, 1, 1, 1 sums to 1e16; numpy's
        # pairwise blocks give 1e16 + 2
        rows = 64 * k
        h = np.zeros((rows, k))
        h[:, :4] = [1e16, 1.0, 1.0, 1.0]
        z, slices = _sums_and_slices(h, 1, k)
        assert slices == 0
        assert z.tobytes() == h.reshape(-1, 1, k).sum(axis=2).tobytes()
        assert np.all(z == 1e16 + 2.0)
