from functools import partial
from unittest import mock

import numpy as np
import pytest

from avfusion import checks
from avfusion.attention import POOLS
from avfusion.config import CROSS_FUSIONS, ExperimentConfig
from avfusion.errors import NonDeterministicLoss
from avfusion.experiment import FusionPipeline
from avfusion.gradcheck import grad_check
from avfusion.rng import Rng


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


def test_multi_tensor_params():
    def loss(params):
        a, b = params["a"], params["b"]
        return (float(np.sum(a * a) + 3.0 * np.sum(b)),
                lambda: {"a": 2.0 * a, "b": 3.0 * np.ones_like(b)})

    params = {"a": np.array([[1.0, -2.0], [0.5, 4.0]]), "b": np.array([2.0, -1.0])}
    assert grad_check(loss, params) < 1e-8


# --- the pipeline check against its one-call formulation --------------------

def _one_call_pipeline_check(seed, cross_mode, audio_fusion, visual_fusion) -> float:
    """``check_pipeline`` as one ``grad_check`` of every tensor through
    ``batch_loss``: the same instance, drawn in the same order."""
    rng = Rng(seed)
    cfg = ExperimentConfig(seed=seed, audio_dim=3, audio_frames=3, visual_dim=3,
                           visual_frames=2, audio_fusion=audio_fusion,
                           visual_fusion=visual_fusion, cross_mode=cross_mode,
                           fbp_k=2, fbp_o=4, fbp_dropout=0.0, attn_hidden=3,
                           classes=3, samples=3)
    model = FusionPipeline(cfg, rng)
    audio = rng.normal_mat(cfg.audio_frames, cfg.audio_dim)[None]
    visual = rng.normal_mat(cfg.visual_frames, cfg.visual_dim)[None]
    rows = model.check_rows(audio, visual, [rng.randint(cfg.classes)])
    return grad_check(lambda _: model.batch_loss(*rows), model.tensors())


@pytest.mark.parametrize("seed", [104000, 73000, 3000, 5000])
@pytest.mark.parametrize("cross", CROSS_FUSIONS)
@pytest.mark.parametrize("kind", list(POOLS))
def test_the_pipeline_check_equals_one_check_of_every_tensor(kind, cross, seed):
    # the pool tensors through batch_loss, the head tensors through head_loss
    # on rows pooled once: the same losses, so the same float to the bit
    got = checks.check_pipeline(seed, cross, kind, kind)
    assert got.hex() == _one_call_pipeline_check(seed, cross, kind, kind).hex()


@pytest.mark.parametrize("cross", CROSS_FUSIONS)
def test_the_pipeline_check_groups_every_tensor_once(cross):
    groups = []
    with mock.patch.object(checks, "grad_check",
                           lambda loss, params: groups.append(list(params)) or 0.0):
        checks.check_pipeline(104000, cross, "relation", "relation")
    pools, heads = groups
    cfg = ExperimentConfig(audio_fusion="relation", visual_fusion="relation", cross_mode=cross)
    assert pools + heads == list(FusionPipeline(cfg, Rng(1)).tensors())
    assert {name.split(".")[0] for name in heads} <= {"fbp", "clf"}


# --- mutation: every checker fails on a wrong gradient ----------------------

def _cases():
    """(id, run) for every module checker at instance 90000 and every
    check_pipeline(104000, cross, kind, kind) combination."""
    for name in checks.MODULES:
        yield name, partial(lambda name: checks.run_module_checks(name, 1)[name], name)
    for cross in CROSS_FUSIONS:
        for kind in POOLS:
            yield f"pipeline-{cross}-{kind}", partial(checks.check_pipeline, 104000, cross,
                                                      kind, kind)


def _tensor_names(run) -> list:
    """The names of the tensors that ``run``'s check perturbs, without checking."""
    names = []
    with mock.patch.object(checks, "grad_check", lambda loss, params: names.extend(params) or 0.0):
        run()
    return names


def _mutated_check(tensor, factor, loss_fn, params):
    """``grad_check`` with the analytic gradient of ``tensor`` times ``factor``
    in the call that checks ``tensor``; a call that does not check it (a
    pipeline check's other tensor group) runs unchanged."""
    if tensor not in params:
        return grad_check(loss_fn, params)

    def mutated(ps):
        loss, backward = loss_fn(ps)

        def wrong():
            grads = backward()
            return {**grads, tensor: grads[tensor] * factor}

        return loss, wrong

    return grad_check(mutated, params)


# At init the transformer's u is all zeros, so the analytic and numeric
# gradients of w2 and b are both exactly 0 and no mutation of them shows
# (ROADMAP item 5).
_ZERO_INIT_U = pytest.mark.xfail(strict=True, reason="zero-init transformer u: the gradients "
                                 "of w2 and b are 0 at the checked point (ROADMAP item 5)")
_ZERO_INIT_TENSORS = ("audio.w2", "audio.b", "visual.w2", "visual.b")


def _marks(case: str, tensor: str):
    transformer_pipeline = case.startswith("pipeline-") and case.endswith("-transformer")
    return _ZERO_INIT_U if transformer_pipeline and tensor in _ZERO_INIT_TENSORS else ()


MUTATION_CASES = [pytest.param(run, tensor, id=f"{case}-{tensor}", marks=_marks(case, tensor))
                  for case, run in _cases() for tensor in _tensor_names(run)]


@pytest.mark.parametrize("run, tensor", MUTATION_CASES)
def test_a_wrong_gradient_fails_its_check(run, tensor, monkeypatch):
    for factor in (1.0 + 1e-3, 0.0):
        monkeypatch.setattr(checks, "grad_check", partial(_mutated_check, tensor, factor))
        assert run() >= checks.GRAD_TOL, f"{tensor}'s gradient times {factor} passed"


# Instance 73000 returns 2.27e-4: at audio.w1[3] the gradient is about 7e-8,
# and central differences at epsilon 1e-5 lose it to round-off (ROADMAP
# item 5).  A mend of the comparison turns this into a strict-xfail failure.
@pytest.mark.xfail(strict=True, reason="round-off at tiny gradients (ROADMAP item 5)")
def test_the_round_off_instance_passes_its_check():
    assert checks.check_pipeline(73000, "concat", "relation", "relation") < checks.GRAD_TOL
