import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avfusion.checks import check_classifier
from avfusion.classifier import (DEFAULT_CLASS_WEIGHTS, SoftmaxParams, apply_class_weights,
                                 class_probs)
from avfusion.config import ExperimentConfig
from avfusion.errors import DimMismatch, InvalidConfig
from avfusion.experiment import descend
from avfusion.rng import Rng


def zero_params(classes=7, d_in=3):
    return SoftmaxParams(weight=np.zeros((classes, d_in)), bias=np.zeros(classes))


def fit_softmax(xs, ys, params, lr, epochs, rng=None, batch_size=0):
    """Softmax regression on the package's descent loop: (trained params, loss curve)."""
    xs, ys = np.array(xs, dtype=np.float64), np.array(ys, dtype=np.int64)
    clf = SoftmaxParams(weight=params.weight.copy(), bias=params.bias.copy())

    def step(batch):
        loss, cache = clf.loss(xs[batch], ys[batch])
        return loss, clf.backward(cache)[0]

    # descend updates clf's own arrays in place
    curve = descend(clf.params, len(ys), step, epochs, lr, rng, batch_size)
    return clf, curve


def probs_of(x, params):
    """Class probabilities of one input vector: ``class_probs`` at B=1."""
    return class_probs(x[None], params.weight, params.bias)[0]


class TestForward:
    def test_zero_weights_give_uniform(self):
        probs = probs_of(np.array([1.0, -2.0, 0.5]), zero_params())
        assert np.allclose(probs, np.full(7, 1.0 / 7.0), atol=1e-12)

    def test_shift_invariance(self):
        rng = Rng(1)
        params = SoftmaxParams(weight=rng.uniform_mat(4, 3, -1, 1), bias=rng.normal_vec(4))
        shifted = SoftmaxParams(weight=params.weight, bias=params.bias + 17.5)
        x = rng.normal_vec(3)
        a = probs_of(x, params)
        b = probs_of(x, shifted)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_against_naive_exponent_oracle(self):
        rng = Rng(2)
        params = SoftmaxParams(weight=rng.uniform_mat(5, 4, -1, 1), bias=rng.normal_vec(5))
        x = rng.normal_vec(4)
        probs = probs_of(x, params)
        logits = params.weight @ x + params.bias
        oracle = np.array([np.exp(z) for z in logits])
        oracle /= np.sum(oracle)
        assert np.max(np.abs(probs - oracle)) < 1e-12

    def test_huge_logits_do_not_nan(self):
        params = SoftmaxParams(weight=np.array([[1e4], [-1e4]]), bias=np.zeros(2))
        probs = probs_of(np.array([1.0]), params)
        assert np.all(np.isfinite(probs))
        assert abs(np.sum(probs) - 1.0) < 1e-9


class TestGradients:
    def test_gradient_at_uniform_probs_closed_form(self):
        # with zero params probs are uniform; d loss / d logit_y = 1/C - 1
        params = zero_params(classes=7, d_in=2)
        x = np.array([1.0, 0.0])
        _, cache = params.loss(x[None], np.array([3]))
        grads, _ = params.backward(cache)
        d_w, d_b = grads["weight"], grads["bias"]
        assert abs(d_b[3] - (1.0 / 7.0 - 1.0)) < 1e-12
        others = np.delete(d_b, 3)
        assert np.allclose(others, 1.0 / 7.0, atol=1e-12)
        # weight grad is outer(d_logits, x)
        assert np.allclose(d_w[:, 0], d_b, atol=1e-15)
        assert np.all(d_w[:, 1] == 0.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_gradcheck(self, seed):
        assert check_classifier(seed) < 1e-4


def separable_blobs(n_per_class=40, margin=4.0, seed=11):
    rng = Rng(seed)
    xs, ys = [], []
    for label, center in enumerate(((-margin, 0.0), (margin, 0.0))):
        for _ in range(n_per_class):
            xs.append(np.array(center) + rng.normal_vec(2, 0.0, 0.5))
            ys.append(label)
    return xs, ys


class TestTrain:
    def test_separable_blobs_reach_high_accuracy(self):
        xs, ys = separable_blobs()
        params, curve = fit_softmax(xs, ys, zero_params(classes=2, d_in=2),
                                    lr=0.5, epochs=200)
        preds = [int(np.argmax(probs_of(x, params))) for x in xs]
        acc = np.mean([p == y for p, y in zip(preds, ys)])
        assert acc >= 0.99

    def test_loss_curve_non_increasing_on_separable_data(self):
        xs, ys = separable_blobs()
        _, curve = fit_softmax(xs, ys, zero_params(classes=2, d_in=2), lr=0.1, epochs=50)
        diffs = np.diff(curve)
        assert np.all(diffs <= 1e-12)

    def test_zero_lr_leaves_params_unchanged(self):
        xs, ys = separable_blobs(n_per_class=5)
        rng = Rng(12)
        start = SoftmaxParams.init(2, 2, rng)
        params, _ = fit_softmax(xs, ys, start, lr=0.0, epochs=5)
        assert np.array_equal(params.weight, start.weight)
        assert np.array_equal(params.bias, start.bias)

    def test_minibatch_training_is_seeded_and_converges(self):
        xs, ys = separable_blobs()
        p1, c1 = fit_softmax(xs, ys, zero_params(classes=2, d_in=2), lr=0.3, epochs=50,
                             rng=Rng(5), batch_size=16)
        p2, c2 = fit_softmax(xs, ys, zero_params(classes=2, d_in=2), lr=0.3, epochs=50,
                             rng=Rng(5), batch_size=16)
        assert np.array_equal(p1.weight, p2.weight)
        assert c1 == c2
        assert c1[-1] < c1[0]


class TestClassWeights:
    def test_default_weights_on_uniform_probs_predict_index_6(self):
        probs = np.full(7, 1.0 / 7.0)
        weights = np.array(DEFAULT_CLASS_WEIGHTS)
        predicted = apply_class_weights(probs, weights)
        assert predicted == 6  # weight 0.215 dominates
        assert np.allclose(probs * weights, np.array(DEFAULT_CLASS_WEIGHTS) / 7.0)

    def test_uniform_weights_never_change_argmax(self):
        rng = Rng(13)
        uniform = np.full(7, 0.37)
        for _ in range(1000):
            probs = rng.uniform_vec(7, 0.01, 1.0)
            probs /= np.sum(probs)
            predicted = apply_class_weights(probs, uniform)
            assert predicted == int(np.argmax(probs))

    def test_one_hot_prediction_survives_any_weights(self):
        rng = Rng(14)
        for j in range(7):
            probs = np.zeros(7)
            probs[j] = 1.0
            weights = rng.uniform_vec(7, 0.05, 2.0)
            predicted = apply_class_weights(probs, weights)
            assert predicted == j

    def test_scaled_weights_give_same_argmax(self):
        rng = Rng(15)
        w = rng.uniform_vec(7, 0.1, 1.0)
        for _ in range(100):
            probs = rng.uniform_vec(7, 0.0, 1.0)
            probs /= np.sum(probs)
            p1 = apply_class_weights(probs, w)
            p2 = apply_class_weights(probs, 3.7 * w)
            assert p1 == p2

    def test_ties_break_to_lowest_index(self):
        probs = np.array([0.25, 0.25, 0.25, 0.25])
        predicted = apply_class_weights(probs, np.ones(4))
        assert predicted == 0

    def test_rounding_tie_breaks_to_higher_raw_score(self):
        # 2.5 * p4 and 2.5 * p5 round to the same value although p4 < p5
        probs = np.array([1.0, 1.3125, 1.6875, 6.5, 9.999999999999998, 10.0, 9.75])
        probs /= np.sum(probs)
        weights = np.full(7, 2.5)
        predicted = apply_class_weights(probs, weights)
        reweighted = probs * weights
        assert reweighted[4] == reweighted[5]
        assert predicted == 5

    def test_nonpositive_weights_rejected(self):
        # the rule lives in the config the weights come from
        with pytest.raises(InvalidConfig):
            ExperimentConfig(classes=3, class_weights=(0.5, 0.0, 0.5))

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            apply_class_weights(np.full(4, 0.25), np.ones(7))


@given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=7, max_size=7))
@settings(max_examples=100)
def test_uniform_weight_argmax_invariance_property(raw):
    probs = np.array(raw)
    probs /= np.sum(probs)
    predicted = apply_class_weights(probs, np.full(7, 2.5))
    assert predicted == int(np.argmax(probs))
