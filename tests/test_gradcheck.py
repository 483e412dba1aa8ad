from functools import partial
from unittest import mock

import numpy as np
import pytest

from avfusion import checks
from avfusion.attention import POOLS
from avfusion.config import CROSS_FUSIONS, ExperimentConfig
from avfusion.errors import NonDeterministicLoss, NumericalDivergence
from avfusion.experiment import FusionPipeline
from avfusion.fbp import FBPParams
from avfusion.gradcheck import EPSILON, grad_check
from avfusion.numeric import row_blocks
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


# --- the stacked losses against the per-entry loop ---------------------------

STACKED_MODULES = ("fbp", "classifier", "patch")


def _loop_losses(loss_fn, params) -> np.ndarray:
    """Every perturbed loss of the per-entry loop, in grad_check's order:
    tensor by tensor, entry by entry, the plus step before the minus step."""
    losses = []
    for theta in params.values():
        flat = theta.flat
        for i in range(theta.size):
            orig = flat[i]
            for value in (orig + EPSILON, orig - EPSILON):
                flat[i] = value
                losses.append(loss_fn(params)[0])
            flat[i] = orig
    return np.array(losses, dtype=np.float64)


def _stacked_and_loop_losses(run):
    """(stacked, loop): every perturbed loss of the checks ``run`` makes, as
    ``grad_check``'s stacked path takes them and from the per-entry loop.
    Each check's float must be the same on both paths."""
    stacked_out, loop_out = [], []

    def recorded(stacked_loss):
        def call(copies):
            losses = stacked_loss(copies)
            stacked_out.append(np.asarray(losses, dtype=np.float64))
            return losses
        return call

    def both(loss_fn, params, stacked):
        got = grad_check(loss_fn, params, {name: recorded(fn) for name, fn in stacked.items()})
        assert got.hex() == grad_check(loss_fn, params).hex()
        loop_out.append(_loop_losses(loss_fn, params))
        return got

    with mock.patch.object(checks, "grad_check", both):
        run()
    return np.concatenate(stacked_out), np.concatenate(loop_out)


@pytest.mark.parametrize("module", STACKED_MODULES)
def test_every_stacked_loss_is_the_loops_to_the_bit(module):
    # fbp's odd seeds run with a frozen dropout mask, its even seeds without
    for seed in range(90000, 90200):
        stacked, loop = _stacked_and_loop_losses(partial(checks._CHECKERS[module], seed))
        assert stacked.tobytes() == loop.tobytes(), f"{module} instance {seed}"


def _fbp_instance(k, o, scale):
    rng = Rng(7)
    fp = FBPParams.init(3, 4, k, o, 0.3, rng)
    return fp, scale * rng.normal_vec(3), scale * rng.normal_vec(4), rng.normal_vec(o)


@pytest.mark.parametrize("k, o, zeroed, scale, path", [
    (3, 2, slice(0, 3), 1.0, "ordinary"),     # the first of two windows zeroed
    (2, 1, slice(0, 2), 1.0, "zero"),         # the only window zeroed: a zero row
    (2, 3, slice(0, 0), 1e-78, "tiny"),       # |z|^2 underflows on a nonzero row
])
def test_guarded_fbp_blocks_take_the_stacked_path_with_the_loops_bytes(k, o, zeroed, scale, path):
    fp, a, v, upstream = _fbp_instance(k, o, scale)
    mask_scale = np.full((1, k * o), 1.0 / 0.7)
    mask_scale[0, zeroed] = 0.0
    _, cache = fp.fuse(a[None], v[None], mask_scale)
    assert path == ("tiny" if cache.tiny is not None else
                    "zero" if not cache.z.any() else "ordinary")
    stacked, loop = _stacked_and_loop_losses(
        partial(checks.fbp_check, fp, a, v, upstream, mask_scale))
    assert stacked.tobytes() == loop.tobytes()
    assert np.isfinite(loop).all()


@pytest.mark.parametrize("module", STACKED_MODULES)
def test_the_stacked_path_never_writes_the_parameter_arrays(module):
    def read_only(loss_fn, params, stacked):
        before = {name: theta.copy() for name, theta in params.items()}
        for theta in params.values():
            theta.flags.writeable = False  # a write raises ValueError
        try:
            return grad_check(loss_fn, params, stacked)
        finally:
            for name, theta in params.items():
                theta.flags.writeable = True
                assert theta.tobytes() == before[name].tobytes()

    with mock.patch.object(checks, "grad_check", read_only):
        assert checks.run_module_checks(module, 4)[module] < checks.GRAD_TOL


@pytest.mark.parametrize("module", checks.MODULES)
def test_the_fbp_classifier_and_patch_checks_stack_every_tensor(module):
    calls = []
    with mock.patch.object(checks, "grad_check", lambda loss, params, stacked=None:
                           calls.append((list(params), list(stacked or ()))) or 0.0):
        checks.run_module_checks(module, 1)
    [(params, stacked)] = calls
    assert stacked == (params if module in STACKED_MODULES else [])


def _weighted(params):
    theta = params["theta"]
    weights = np.arange(1.0, theta.size + 1.0).reshape(theta.shape)
    return float(np.sum(weights * theta ** 2)), lambda: {"theta": 2.0 * weights * theta}


@pytest.mark.parametrize("theta", [np.linspace(-3.0, 2.0, 100),  # two row blocks of entries
                                   np.array([[1.0, -2.0, 0.5], [4.0, 3.0, -1.0]]).T])
def test_the_stacked_copies_are_the_loops_perturbations(theta):
    calls = []

    def stacked(copies):
        calls.append(copies.copy())
        return [_weighted({"theta": copy})[0] for copy in copies]

    got = grad_check(_weighted, {"theta": theta}, {"theta": stacked})
    assert got.hex() == grad_check(_weighted, {"theta": theta}).hex()
    assert [len(c) for c in calls] == [2 * (b.stop - b.start)
                                       for b in row_blocks(0, theta.size, 2 * theta.size)]
    flat, entries = theta.reshape(-1), np.arange(theta.size)
    want = np.tile(flat, (2 * theta.size, 1))
    want[2 * entries, entries] = flat + EPSILON
    want[2 * entries + 1, entries] = flat - EPSILON
    assert np.concatenate(calls).reshape(want.shape).tobytes() == want.tobytes()


def test_a_tensor_without_a_stacked_loss_keeps_the_loop():
    params = {"a": np.array([[1.0, -2.0], [0.5, 4.0]]), "b": np.array([2.0, -1.0])}
    evals = []

    def loss(ps):
        evals.append(1)
        return (float(np.sum(ps["a"] ** 2) + 3.0 * np.sum(ps["b"])),
                lambda: {"a": 2.0 * ps["a"], "b": 3.0 * np.ones_like(ps["b"])})

    stacked = {"a": lambda copies: [float(np.sum(c ** 2) + 3.0 * np.sum(params["b"]))
                                    for c in copies]}
    assert grad_check(loss, params, stacked).hex() == grad_check(loss, params).hex()
    assert len(evals) == (2 + 2 * params["b"].size) + (2 + 2 * 6)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [1, slice(None)], ids=["one-side", "every-copy"])
def test_a_non_finite_stacked_loss_fails(bad, where):
    # as on the loop: one bad side, or bad on both sides (inf - inf is NaN, not 0)
    def stacked(copies):
        losses = np.array([quadratic({"theta": copy})[0] for copy in copies])
        losses[where] = bad
        return losses

    assert grad_check(quadratic, {"theta": np.array([1.0, 2.0, 3.0])},
                      {"theta": stacked}) == np.inf


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
    with mock.patch.object(checks, "grad_check",
                           lambda loss, params, stacked=None: names.extend(params) or 0.0):
        run()
    return names


def _mutated_check(tensor, factor, loss_fn, params, stacked=None):
    """``grad_check`` with the analytic gradient of ``tensor`` times ``factor``
    in the call that checks ``tensor``; a call that does not check it (a
    pipeline check's other tensor group) runs unchanged.  The checker's
    stacked losses go through as given."""
    if tensor not in params:
        return grad_check(loss_fn, params, stacked)

    def mutated(ps):
        loss, backward = loss_fn(ps)

        def wrong():
            grads = backward()
            return {**grads, tensor: grads[tensor] * factor}

        return loss, wrong

    return grad_check(mutated, params, stacked)


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


# --- non-finite values fail the check instead of passing it -----------------

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_analytic_gradient_fails(bad):
    def loss(params):
        value, backward = quadratic(params)
        return value, lambda: {"theta": np.where([False, True, False], bad, backward()["theta"])}

    assert grad_check(loss, {"theta": np.array([1.0, 2.0, 3.0])}) == np.inf


def test_a_loss_that_is_infinite_only_at_the_perturbed_points_fails():
    # inf on both sides makes the central difference inf - inf: NaN, not 0
    def loss(params):
        value, backward = quadratic(params)
        return (value if params["theta"][1] == 2.0 else np.inf), backward

    assert grad_check(loss, {"theta": np.array([1.0, 2.0, 3.0])}) == np.inf


def test_a_nan_loss_raises_numerical_divergence():
    def loss(params):
        return np.nan, lambda: {"theta": np.zeros(2)}

    with pytest.raises(NumericalDivergence, match="unperturbed loss is nan"):
        grad_check(loss, {"theta": np.zeros(2)})


def test_a_non_contiguous_parameter_is_perturbed_in_place():
    theta = np.array([[1.0, -2.0, 0.5], [4.0, 3.0, -1.0]]).T
    assert not theta.flags.c_contiguous
    assert grad_check(quadratic, {"theta": theta}) < 1e-8
    assert theta.tolist() == [[1.0, 4.0], [-2.0, 3.0], [0.5, -1.0]]
