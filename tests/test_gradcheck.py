import numpy as np
import pytest

from avfusion.errors import NonDeterministicLoss
from avfusion.gradcheck import grad_check


def quadratic(params):
    theta = params["theta"]
    return float(np.sum(theta ** 2)), lambda: {"theta": 2.0 * theta}


def test_quadratic_is_exact_under_central_differences():
    params = {"theta": np.array([1.0, 2.0, 3.0])}
    assert grad_check(quadratic, params) < 1e-8


def test_corrupted_gradient_is_detected():
    def corrupted(params):
        loss, backward = quadratic(params)

        def wrong():
            grads = backward()
            grads["theta"][1] *= 2.0
            return grads

        return loss, wrong

    params = {"theta": np.array([1.0, 2.0, 3.0])}
    assert grad_check(corrupted, params) > 0.3


def test_params_are_restored_after_perturbation():
    params = {"theta": np.array([1.0, 2.0, 3.0])}
    grad_check(quadratic, params)
    assert np.array_equal(params["theta"], [1.0, 2.0, 3.0])


def test_backward_runs_once_on_the_unperturbed_params():
    params = {"a": np.array([[1.0, -2.0], [0.5, 4.0]]), "b": np.array([2.0, -1.0])}
    original = {k: v.copy() for k, v in params.items()}
    seen, losses = [], []

    def loss(ps):
        losses.append(1)

        def backward():
            seen.append({k: v.copy() for k, v in ps.items()})
            return {"a": 2.0 * ps["a"], "b": 3.0 * np.ones_like(ps["b"])}

        return float(np.sum(ps["a"] ** 2) + 3.0 * np.sum(ps["b"])), backward

    assert grad_check(loss, params) < 1e-8
    assert len(seen) == 1
    assert all(np.array_equal(seen[0][k], original[k]) for k in original)
    entries = sum(v.size for v in params.values())
    assert len(losses) == 2 + 2 * entries


def test_nondeterministic_loss_raises():
    state = {"calls": 0}

    def noisy(params):
        state["calls"] += 1
        return float(state["calls"]), lambda: {"theta": np.zeros(2)}

    with pytest.raises(NonDeterministicLoss):
        grad_check(noisy, {"theta": np.zeros(2)})


def test_epsilon_outside_allowed_range_rejected():
    params = {"theta": np.array([1.0])}
    with pytest.raises(ValueError):
        grad_check(quadratic, params, epsilon=1e-8)
    with pytest.raises(ValueError):
        grad_check(quadratic, params, epsilon=1e-2)


def test_multi_tensor_params():
    def loss(params):
        a, b = params["a"], params["b"]
        return (float(np.sum(a * a) + 3.0 * np.sum(b)),
                lambda: {"a": 2.0 * a, "b": 3.0 * np.ones_like(b)})

    params = {"a": np.array([[1.0, -2.0], [0.5, 4.0]]), "b": np.array([2.0, -1.0])}
    assert grad_check(loss, params) < 1e-8
