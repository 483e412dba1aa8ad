import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avfusion.attention import (POOLS, relation_pool, relation_pool_backward,
                                self_pool, self_pool_backward)
from avfusion.checks import check_attention
from avfusion.errors import DimMismatch
from avfusion.experiment import IntraStage
from avfusion.features import FeatureSet
from avfusion.gradcheck import grad_check
from avfusion.numeric import softmax
from avfusion.rng import Rng


def _pool(kind, feats, *params):
    """``POOLS[kind]`` at B=1: one (n, d) set -> (pooled vector, cache)."""
    pooled, cache = POOLS[kind][1](np.asarray(feats, dtype=np.float64)[None], *params)
    return pooled[0], cache


def _backward(kind, cache, upstream):
    """Parameter gradients, then d_features, of one set at B=1."""
    *grads, d_feats = POOLS[kind][2](cache, upstream[None], need_features=True)
    return (*grads, d_feats[0])


def two_features():
    return np.array([[1.0, 0.0], [0.0, 1.0]])


class TestSelfAttention:
    def test_worked_example(self):
        # oracle: direct scalar evaluation of the gate/average formulas
        pooled, cache = _pool("self", two_features(), np.array([2.0, 0.0]))
        a1 = 1.0 / (1.0 + math.exp(-2.0))
        assert np.allclose(cache.alpha[0], [a1, 0.5], atol=1e-12)
        expected = np.array([a1, 0.5]) / (a1 + 0.5)
        assert np.allclose(pooled, expected, atol=1e-12)
        assert np.allclose(pooled, [0.637890, 0.362110], atol=1e-6)

    def test_single_feature_pools_to_itself_exactly(self):
        rng = Rng(1)
        f = rng.normal_vec(6)
        pooled, _ = _pool("self", f.reshape(1, -1), rng.uniform_vec(6, -2, 2))
        assert np.array_equal(pooled, f)

    def test_identical_features_pool_to_that_feature(self):
        rng = Rng(2)
        f = rng.normal_vec(4)
        pooled, _ = _pool("self", np.tile(f, (5, 1)), rng.uniform_vec(4, -2, 2))
        assert np.allclose(pooled, f, atol=1e-12)

    def test_dim_mismatch(self):
        stage = IntraStage("self", 3, 0, Rng(0))
        with pytest.raises(DimMismatch):
            stage.forward(FeatureSet(two_features()))

    def test_single_feature_gradient_wrt_w0_is_exactly_zero(self):
        rng = Rng(3)
        f = rng.normal_vec(4)
        _, cache = _pool("self", f.reshape(1, -1), rng.uniform_vec(4, -2, 2))
        d_w0, _ = _backward("self", cache, rng.normal_vec(4))
        assert np.all(d_w0 == 0.0)


class TestRelationAttention:
    def test_worked_example(self):
        pooled, cache = _pool("relation", two_features(), np.array([2.0, 0.0]),
                              np.array([1.0, 0.0, 0.0, 0.0]))
        b1 = 1.0 / (1.0 + math.exp(-1.0))
        assert np.allclose(cache.beta[0], [b1, 0.5], atol=1e-12)
        assert np.allclose(pooled, [0.720331, 0.279669, 0.637890, 0.362110], atol=1e-6)

    def test_single_feature_pools_to_double_concat(self):
        rng = Rng(4)
        f = rng.normal_vec(3)
        pooled, _ = _pool("relation", f.reshape(1, -1), rng.uniform_vec(3, -1, 1),
                          rng.uniform_vec(6, -1, 1))
        assert np.array_equal(pooled, np.concatenate([f, f]))

    def test_trailing_block_equals_global_vector_exactly(self):
        rng = Rng(5)
        feats = rng.normal_mat(6, 4)
        w0 = rng.uniform_vec(4, -1, 1)
        pooled_self, _ = _pool("self", feats, w0)
        pooled_rel, _ = _pool("relation", feats, w0, rng.uniform_vec(8, -1, 1))
        assert np.array_equal(pooled_rel[4:], pooled_self)


class TestTransformerAttention:
    def test_worked_example(self):
        # oracle: gamma_1 = exp(tanh(1)), gamma_2 = exp(0); pooled = softmax average
        pooled, cache = _pool("transformer", [[1.0, 0.0], [0.0, 0.0]],
                              np.array([[1.0, 1.0]]), np.zeros(1), np.ones(1))
        g1 = math.exp(math.tanh(1.0))
        assert np.allclose(np.exp(cache.tanh_h[0] @ np.ones(1)), [g1, 1.0], atol=1e-12)
        assert np.allclose(cache.weights[0], np.array([g1, 1.0]) / (g1 + 1.0), atol=1e-12)
        assert np.allclose(pooled, [g1 / (g1 + 1.0), 0.0], atol=1e-12)

    def test_single_feature_pools_to_itself_exactly(self):
        rng = Rng(6)
        f = rng.normal_vec(5)
        pooled, _ = _pool("transformer", f.reshape(1, -1), rng.uniform_mat(3, 5, -1, 1),
                          rng.normal_vec(3), rng.normal_vec(3))
        assert np.array_equal(pooled, f)

    def test_uniform_gamma_rescale_leaves_pooled_unchanged(self):
        # shifting every score by a constant multiplies every gamma by the
        # same factor exp(c); the normalization quotient must absorb it
        rng = Rng(7)
        feats = rng.normal_mat(4, 3)
        w2 = rng.uniform_mat(2, 3, -1, 1)
        u = rng.normal_vec(2)
        pooled, cache = _pool("transformer", feats, w2, np.zeros(2), u)
        shifted_scores = cache.tanh_h[0] @ u + 123.0
        rescaled = np.exp(shifted_scores - np.max(shifted_scores))
        rescaled /= np.sum(rescaled)
        assert np.allclose(rescaled @ feats, pooled, atol=1e-12)

    def test_large_scores_do_not_overflow_pooled(self):
        pooled, _ = _pool("transformer", two_features(),
                          np.array([[400.0, 0.0], [0.0, 400.0]]), np.zeros(2),
                          np.array([500.0, 500.0]))
        assert np.all(np.isfinite(pooled))


def _random_instance(seed):
    rng = Rng(seed)
    n = rng.randint(5) + 2
    d = rng.randint(7) + 2
    return rng, rng.normal_mat(n, d)


def _random_params(d, rng):
    """Parameters of every kind, in POOLS order; relation shares self's w0."""
    w0 = rng.uniform_vec(d, -1, 1)
    w1 = rng.uniform_vec(2 * d, -1, 1)
    transformer = (rng.uniform_mat(3, d, -1, 1), rng.normal_vec(3), rng.normal_vec(3))
    return {"self": (w0,), "relation": (w0, w1), "transformer": transformer}


def _attend_all(feats, rng):
    params = _random_params(feats.shape[1], rng)
    return {kind: _pool(kind, feats, *ps)[0] for kind, ps in params.items()}


@pytest.mark.parametrize("seed", range(30))
def test_permutation_invariance(seed):
    rng, feats = _random_instance(seed)
    perm = list(range(len(feats)))
    rng.shuffle(perm)
    base = _attend_all(feats, Rng(seed + 1000))
    permuted = _attend_all(feats[perm], Rng(seed + 1000))
    for kind in base:
        assert np.max(np.abs(base[kind] - permuted[kind])) < 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_convex_hull_containment(seed):
    rng, feats = _random_instance(seed + 500)
    pooled = _attend_all(feats, rng)
    lo = feats.min(axis=0) - 1e-12
    hi = feats.max(axis=0) + 1e-12
    for kind in ("self", "transformer"):
        assert np.all(pooled[kind] >= lo) and np.all(pooled[kind] <= hi)


def test_permuting_returns_permuted_weights():
    rng, feats = _random_instance(77)
    params = _random_params(feats.shape[1], rng)
    perm = list(range(len(feats)))
    Rng(78).shuffle(perm)
    base = {kind: _pool(kind, feats, *ps)[1] for kind, ps in params.items()}
    shuffled = {kind: _pool(kind, feats[perm], *ps)[1] for kind, ps in params.items()}

    assert np.allclose(shuffled["self"].alpha[0], base["self"].alpha[0][perm], atol=1e-15)
    rel, rel_p = base["relation"], shuffled["relation"]
    assert np.allclose(rel_p.self_cache.alpha[0], rel.self_cache.alpha[0][perm], atol=1e-15)
    assert np.allclose(rel_p.beta[0], rel.beta[0][perm], atol=1e-12)
    tr, tr_p = base["transformer"], shuffled["transformer"]
    assert np.allclose(tr_p.weights[0], tr.weights[0][perm], atol=1e-12)


def test_duplicating_a_feature_keeps_output_finite():
    rng, feats = _random_instance(88)
    pooled = _attend_all(np.vstack([feats, feats[0]]), rng)
    for vec in pooled.values():
        assert np.all(np.isfinite(vec))


class TestBackward:
    @pytest.mark.parametrize("seed", range(10))
    def test_gradcheck_all_mechanisms(self, seed):
        for kind in ("self", "relation", "transformer"):
            assert check_attention(kind, seed) < 1e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_gradcheck_input_features(self, seed):
        # d_features of every mechanism against central differences
        rng, feats = _random_instance(seed + 300)
        d = feats.shape[1]
        for kind, ps in _random_params(d, rng).items():
            upstream = rng.normal_vec(POOLS[kind][3](d))

            def loss(p):
                pooled, cache = _pool(kind, p["features"], *ps)
                return float(pooled @ upstream), lambda: {
                    "features": _backward(kind, cache, upstream)[-1]}

            err = grad_check(loss, {"features": feats.copy()})
            assert err < 1e-4, f"{kind}: {err}"

    def test_zero_upstream_gives_zero_parameter_gradients(self):
        rng, feats = _random_instance(99)
        d = feats.shape[1]
        for kind, ps in _random_params(d, rng).items():
            _, cache = _pool(kind, feats, *ps)
            for g in _backward(kind, cache, np.zeros(POOLS[kind][3](d))):
                assert np.all(g == 0.0), kind


def _saturated_batch(seed, level):
    """(feats, w0, w1): row 0 has self scores near ``level`` with a small
    spread, and relation scores equal to them; row 1 is an ordinary set."""
    rng = Rng(seed)
    w0 = rng.uniform_vec(3, -1.0, 1.0)
    w1 = np.concatenate([w0, np.zeros(3)])
    along = level + rng.uniform_vec(4, -3.0, 3.0)
    row0 = np.outer(along, w0 / (w0 @ w0))
    return np.stack([row0, rng.normal_mat(4, 3)]), w0, w1


class TestSaturatedGates:
    """Sets whose gates, or relation's alpha*beta, all underflow to 0."""

    @pytest.mark.parametrize("level", [-900.0, -2e4])
    def test_self_weights_come_from_the_log_gates(self, level):
        feats, w0, _ = _saturated_batch(1, level)
        pooled, cache = self_pool(feats, w0)
        assert np.all(cache.alpha[0] == 0.0)
        # log sigmoid(s) is s itself this far below 0
        assert np.allclose(cache.norm_weights[0], softmax(feats[0] @ w0), rtol=1e-12)
        assert np.all(np.isfinite(pooled))
        # the ordinary row keeps the bytes it has on its own
        alone, _ = self_pool(feats[1:], w0)
        assert pooled[1].tobytes() == alone[0].tobytes()

    @pytest.mark.parametrize("level", [-900.0, -400.0])
    def test_relation_weights_come_from_the_log_gate_products(self, level):
        # at -400 only the products alpha*beta underflow, not alpha itself
        feats, w0, w1 = _saturated_batch(2, level)
        pooled, cache = relation_pool(feats, w0, w1)
        assert (cache.self_cache.saturated is not None) == (level < -745.0)
        assert np.all(cache.self_cache.alpha[0] * cache.beta[0] == 0.0)
        assert np.allclose(cache.norm_weights[0], softmax(2.0 * (feats[0] @ w0)), rtol=1e-9)
        assert np.all(np.isfinite(pooled))
        alone, _ = relation_pool(feats[1:], w0, w1)
        assert pooled[1].tobytes() == alone[0].tobytes()

    @pytest.mark.parametrize("level", [-900.0, -400.0])
    @pytest.mark.parametrize("kind", ["self", "relation"])
    def test_gradients_match_central_differences(self, kind, level):
        feats, w0, w1 = _saturated_batch(3, level)
        upstream = Rng(4).normal_mat(2, 6 if kind == "relation" else 3)
        params = {"w0": w0, "w1": w1} if kind == "relation" else {"w0": w0}
        params["features"] = feats

        pool, pool_backward = ((relation_pool, relation_pool_backward) if kind == "relation"
                               else (self_pool, self_pool_backward))

        def loss(ps):
            ws = [ps[k] for k in ps if k != "features"]
            pooled, cache = pool(ps["features"], *ws)
            # run eagerly: the gradients at the perturbed points must be finite too
            *grads, d_feats = pool_backward(cache, upstream, need_features=True)
            for g in (*grads, d_feats):
                assert np.all(np.isfinite(g))
            return (float(np.sum(pooled * upstream)),
                    lambda: {**dict(zip(ps, grads)), "features": d_feats})

        assert grad_check(loss, params) < 1e-4


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_weights_positive_and_normalizable(seed):
    rng, feats = _random_instance(seed)
    _, cache = _pool("self", feats, rng.uniform_vec(feats.shape[1], -3, 3))
    weights = cache.alpha[0]
    assert np.all(weights > 0.0)
    assert abs(np.sum(weights / np.sum(weights)) - 1.0) < 1e-12
