import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avfusion.attention import (RelationAttnParams, SelfAttnParams,
                                TransformerAttnParams, relation_attend,
                                relation_attend_backward, self_attend,
                                self_attend_backward, transformer_attend,
                                transformer_attend_backward)
from avfusion.checks import (check_relation_attention, check_self_attention,
                             check_transformer_attention)
from avfusion.errors import DimMismatch, MissingForwardCache
from avfusion.features import FeatureSet
from avfusion.gradcheck import grad_check
from avfusion.rng import Rng


def two_feature_set():
    return FeatureSet([[1.0, 0.0], [0.0, 1.0]])


class TestSelfAttention:
    def test_worked_example(self):
        # oracle: direct scalar evaluation of the gate/average formulas
        res = self_attend(two_feature_set(), SelfAttnParams(w0=np.array([2.0, 0.0])))
        a1 = 1.0 / (1.0 + math.exp(-2.0))
        assert np.allclose(res.weights, [a1, 0.5], atol=1e-12)
        expected = np.array([a1, 0.5]) / (a1 + 0.5)
        assert np.allclose(res.pooled, expected, atol=1e-12)
        assert np.allclose(res.pooled, [0.637890, 0.362110], atol=1e-6)

    def test_single_feature_pools_to_itself_exactly(self):
        rng = Rng(1)
        f = rng.normal_vec(6)
        res = self_attend(FeatureSet(f.reshape(1, -1)),
                          SelfAttnParams(rng.uniform_vec(6, -2, 2)))
        assert np.array_equal(res.pooled, f)

    def test_identical_features_pool_to_that_feature(self):
        rng = Rng(2)
        f = rng.normal_vec(4)
        fs = FeatureSet(np.tile(f, (5, 1)))
        res = self_attend(fs, SelfAttnParams(rng.uniform_vec(4, -2, 2)))
        assert np.allclose(res.pooled, f, atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            self_attend(two_feature_set(), SelfAttnParams(w0=np.ones(3)))

    def test_single_feature_gradient_wrt_w0_is_exactly_zero(self):
        rng = Rng(3)
        f = rng.normal_vec(4)
        res = self_attend(FeatureSet(f.reshape(1, -1)),
                          SelfAttnParams(rng.uniform_vec(4, -2, 2)))
        d_w0, _ = self_attend_backward(res.cache, rng.normal_vec(4))
        assert np.all(d_w0 == 0.0)

    def test_missing_cache(self):
        with pytest.raises(MissingForwardCache):
            self_attend_backward(None, np.zeros(2))


class TestRelationAttention:
    def test_worked_example(self):
        p0 = SelfAttnParams(w0=np.array([2.0, 0.0]))
        p1 = RelationAttnParams(w1=np.array([1.0, 0.0, 0.0, 0.0]))
        res = relation_attend(two_feature_set(), p0, p1)
        b1 = 1.0 / (1.0 + math.exp(-1.0))
        assert np.allclose(res.beta, [b1, 0.5], atol=1e-12)
        assert np.allclose(res.pooled, [0.720331, 0.279669, 0.637890, 0.362110], atol=1e-6)

    def test_single_feature_pools_to_double_concat(self):
        rng = Rng(4)
        f = rng.normal_vec(3)
        res = relation_attend(FeatureSet(f.reshape(1, -1)),
                              SelfAttnParams(rng.uniform_vec(3, -1, 1)),
                              RelationAttnParams(rng.uniform_vec(6, -1, 1)))
        assert np.array_equal(res.pooled, np.concatenate([f, f]))

    def test_trailing_block_equals_global_vector_exactly(self):
        rng = Rng(5)
        fs = FeatureSet(rng.normal_mat(6, 4))
        p0 = SelfAttnParams(rng.uniform_vec(4, -1, 1))
        res_self = self_attend(fs, p0)
        res_rel = relation_attend(fs, p0, RelationAttnParams(rng.uniform_vec(8, -1, 1)))
        assert np.array_equal(res_rel.pooled[4:], res_self.pooled)

    def test_missing_cache(self):
        with pytest.raises(MissingForwardCache):
            relation_attend_backward(None, np.zeros(4))


class TestTransformerAttention:
    def test_worked_example(self):
        # oracle: gamma_1 = exp(tanh(1)), gamma_2 = exp(0); pooled = softmax average
        fs = FeatureSet([[1.0, 0.0], [0.0, 0.0]])
        params = TransformerAttnParams(w2=np.array([[1.0, 1.0]]),
                                       b=np.zeros(1), u=np.ones(1))
        res = transformer_attend(fs, params)
        g1 = math.exp(math.tanh(1.0))
        assert np.allclose(res.gamma, [g1, 1.0], atol=1e-12)
        assert np.allclose(res.pooled, [g1 / (g1 + 1.0), 0.0], atol=1e-12)

    def test_single_feature_pools_to_itself_exactly(self):
        rng = Rng(6)
        f = rng.normal_vec(5)
        params = TransformerAttnParams(rng.uniform_mat(3, 5, -1, 1),
                                       rng.normal_vec(3), rng.normal_vec(3))
        res = transformer_attend(FeatureSet(f.reshape(1, -1)), params)
        assert np.array_equal(res.pooled, f)

    def test_uniform_gamma_rescale_leaves_pooled_unchanged(self):
        # shifting every score by a constant multiplies every gamma by the
        # same factor exp(c); the normalization quotient must absorb it
        rng = Rng(7)
        fs = FeatureSet(rng.normal_mat(4, 3))
        w2 = rng.uniform_mat(2, 3, -1, 1)
        u = rng.normal_vec(2)
        base = transformer_attend(fs, TransformerAttnParams(w2, np.zeros(2), u))
        shifted_scores = base.cache.tanh_h @ u + 123.0
        rescaled = np.exp(shifted_scores - np.max(shifted_scores))
        rescaled /= np.sum(rescaled)
        assert np.allclose(rescaled @ fs.vectors, base.pooled, atol=1e-12)

    def test_large_scores_do_not_overflow_pooled(self):
        fs = FeatureSet([[1.0, 0.0], [0.0, 1.0]])
        params = TransformerAttnParams(w2=np.array([[400.0, 0.0], [0.0, 400.0]]),
                                       b=np.zeros(2), u=np.array([500.0, 500.0]))
        res = transformer_attend(fs, params)
        assert np.all(np.isfinite(res.pooled))

    def test_missing_cache(self):
        with pytest.raises(MissingForwardCache):
            transformer_attend_backward(None, np.zeros(2))


def _random_instance(seed):
    rng = Rng(seed)
    n = rng.randint(5) + 2
    d = rng.randint(7) + 2
    fs = FeatureSet(rng.normal_mat(n, d))
    return rng, fs


def _attend_all(fs, rng):
    d = fs.dim
    p0 = SelfAttnParams(rng.uniform_vec(d, -1, 1))
    p1 = RelationAttnParams(rng.uniform_vec(2 * d, -1, 1))
    pt = TransformerAttnParams(rng.uniform_mat(3, d, -1, 1),
                               rng.normal_vec(3), rng.normal_vec(3))
    return {
        "self": self_attend(fs, p0).pooled,
        "relation": relation_attend(fs, p0, p1).pooled,
        "transformer": transformer_attend(fs, pt).pooled,
    }


@pytest.mark.parametrize("seed", range(30))
def test_permutation_invariance(seed):
    rng, fs = _random_instance(seed)
    perm = list(range(fs.n))
    rng.shuffle(perm)
    base = _attend_all(fs, Rng(seed + 1000))
    permuted = _attend_all(fs.permuted(perm), Rng(seed + 1000))
    for kind in base:
        assert np.max(np.abs(base[kind] - permuted[kind])) < 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_convex_hull_containment(seed):
    rng, fs = _random_instance(seed + 500)
    pooled = _attend_all(fs, rng)
    lo = fs.vectors.min(axis=0) - 1e-12
    hi = fs.vectors.max(axis=0) + 1e-12
    for kind in ("self", "transformer"):
        assert np.all(pooled[kind] >= lo) and np.all(pooled[kind] <= hi)


def test_permuting_returns_permuted_weights():
    rng, fs = _random_instance(77)
    d = fs.dim
    p0 = SelfAttnParams(rng.uniform_vec(d, -1, 1))
    p1 = RelationAttnParams(rng.uniform_vec(2 * d, -1, 1))
    pt = TransformerAttnParams(rng.uniform_mat(3, d, -1, 1),
                               rng.normal_vec(3), rng.normal_vec(3))
    perm = list(range(fs.n))
    Rng(78).shuffle(perm)
    shuffled = fs.permuted(perm)

    res = self_attend(fs, p0)
    res_p = self_attend(shuffled, p0)
    assert np.allclose(res_p.weights, res.weights[perm], atol=1e-15)

    rel = relation_attend(fs, p0, p1)
    rel_p = relation_attend(shuffled, p0, p1)
    assert np.allclose(rel_p.alpha, rel.alpha[perm], atol=1e-15)
    assert np.allclose(rel_p.beta, rel.beta[perm], atol=1e-12)

    tr = transformer_attend(fs, pt)
    tr_p = transformer_attend(shuffled, pt)
    assert np.allclose(tr_p.gamma, tr.gamma[perm], atol=1e-12)


def test_duplicating_a_feature_keeps_output_finite():
    rng, fs = _random_instance(88)
    dup = FeatureSet(np.vstack([fs.vectors, fs.vectors[0]]))
    pooled = _attend_all(dup, rng)
    for vec in pooled.values():
        assert np.all(np.isfinite(vec))


class TestBackward:
    @pytest.mark.parametrize("seed", range(10))
    def test_gradcheck_all_mechanisms(self, seed):
        assert check_self_attention(seed) < 1e-4
        assert check_relation_attention(seed) < 1e-4
        assert check_transformer_attention(seed) < 1e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_gradcheck_input_features(self, seed):
        # d_features of every mechanism against central differences
        rng, fs = _random_instance(seed + 300)
        d = fs.dim
        p0 = SelfAttnParams(rng.uniform_vec(d, -1, 1))
        p1 = RelationAttnParams(rng.uniform_vec(2 * d, -1, 1))
        pt = TransformerAttnParams(rng.uniform_mat(3, d, -1, 1),
                                   rng.normal_vec(3), rng.normal_vec(3))
        mechanisms = {
            "self": (lambda f: self_attend(f, p0), self_attend_backward, d),
            "relation": (lambda f: relation_attend(f, p0, p1), relation_attend_backward, 2 * d),
            "transformer": (lambda f: transformer_attend(f, pt), transformer_attend_backward, d),
        }
        for name, (forward, backward, width) in mechanisms.items():
            upstream = rng.normal_vec(width)

            def loss(ps):
                res = forward(FeatureSet(ps["features"]))
                d_feats = backward(res.cache, upstream)[-1]
                return float(res.pooled @ upstream), {"features": d_feats}

            err = grad_check(loss, {"features": fs.vectors.copy()})
            assert err < 1e-4, f"{name}: {err}"

    def test_zero_upstream_gives_zero_parameter_gradients(self):
        rng, fs = _random_instance(99)
        d = fs.dim
        p0 = SelfAttnParams(rng.uniform_vec(d, -1, 1))
        p1 = RelationAttnParams(rng.uniform_vec(2 * d, -1, 1))
        pt = TransformerAttnParams(rng.uniform_mat(3, d, -1, 1),
                                   rng.normal_vec(3), rng.normal_vec(3))
        d_w0, d_f = self_attend_backward(self_attend(fs, p0).cache, np.zeros(d))
        assert np.all(d_w0 == 0.0) and np.all(d_f == 0.0)
        d_w0, d_w1, d_f = relation_attend_backward(
            relation_attend(fs, p0, p1).cache, np.zeros(2 * d))
        assert np.all(d_w0 == 0.0) and np.all(d_w1 == 0.0) and np.all(d_f == 0.0)
        d_w2, d_b, d_u, d_f = transformer_attend_backward(
            transformer_attend(fs, pt).cache, np.zeros(d))
        for g in (d_w2, d_b, d_u, d_f):
            assert np.all(g == 0.0)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_weights_positive_and_normalizable(seed):
    rng, fs = _random_instance(seed)
    res = self_attend(fs, SelfAttnParams(rng.uniform_vec(fs.dim, -3, 3)))
    assert np.all(res.weights > 0.0)
    assert abs(np.sum(res.weights / np.sum(res.weights)) - 1.0) < 1e-12
