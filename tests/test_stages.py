"""Every pipeline stage keeps one interface: ``params`` by checkpoint name, a
batched forward that returns (output, cache), and a backward that returns
(gradients keyed like ``params``, input gradient or None)."""

import numpy as np
import pytest

from avfusion.audio import PatchEmbedParams
from avfusion.classifier import SoftmaxParams
from avfusion.experiment import Concat, IntraStage
from avfusion.fbp import FBPParams
from avfusion.rng import Rng

B = 3


def _intra(kind):
    rng = Rng(1)
    stage = IntraStage(kind, 4, 3, rng)
    feats = rng.normal_mat(B * 5, 4).reshape(B, 5, 4)
    out, cache = stage.pool(feats)
    return stage, (feats,), stage.backward(cache, rng.normal_mat(*out.shape))


def _fbp(dropout_p):
    rng = Rng(2)
    stage = FBPParams.init(4, 5, 2, 3, dropout_p, rng)
    a, v = rng.normal_mat(B, 4), rng.normal_mat(B, 5)
    mask = stage.dropout_mask(rng.next_u64(), 0, B) if dropout_p else None
    out, cache = stage.fuse(a, v, mask)
    return stage, (a, v), stage.backward(cache, rng.normal_mat(*out.shape))


def _concat():
    rng = Rng(3)
    stage = Concat(4, 5)
    a, v = rng.normal_mat(B, 4), rng.normal_mat(B, 5)
    out, cache = stage.fuse(a, v, None, None)
    return stage, (a, v), stage.backward(cache, rng.normal_mat(*out.shape))


def _classifier():
    rng = Rng(4)
    stage = SoftmaxParams.init(7, 6, rng)
    x = rng.normal_mat(B, 6)
    _, cache = stage.loss(x, np.array([0, 3, 6]))
    return stage, (x,), stage.backward(cache)  # the loss ends the chain: no g


def _patch():
    rng = Rng(5)
    stage = PatchEmbedParams.init(2, 3, 4, 5, 6, rng)
    specs = rng.normal_mat(B * 9, 16).reshape(B, 9, 16)
    out, patches = stage.embed(specs)
    return stage, (specs,), stage.backward(patches, rng.normal_mat(B * 6, 6).reshape(out.shape))


STAGES = {
    **{f"intra-{kind}": (lambda kind=kind: _intra(kind))
       for kind in ("self", "relation", "transformer")},
    "fbp": lambda: _fbp(0.0),
    "fbp-masked": lambda: _fbp(0.3),
    "concat": _concat,
    "classifier": _classifier,
    "patch": _patch,
}


@pytest.mark.parametrize("build", STAGES.values(), ids=list(STAGES))
def test_stage_backward_matches_its_params_and_inputs(build):
    stage, inputs, (grads, d_input) = build()
    assert list(grads) == list(stage.params)
    for name, grad in grads.items():
        assert grad.shape == stage.params[name].shape, name
    if d_input is not None:
        d_inputs = d_input if isinstance(d_input, tuple) else (d_input,)
        assert [d.shape for d in d_inputs] == [x.shape for x in inputs]
