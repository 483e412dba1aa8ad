"""Seeded gradient-check instances for every trainable module.

Each checker builds randomized instances (sizes drawn from a seeded rng),
runs the hand-derived backward pass, and validates it against central
differences.  The CLI ``gradcheck`` subcommand and the acceptance tests both
run these.
"""

from functools import partial

import numpy as np

from . import attention, audio, fbp
from .classifier import SoftmaxParams
from .config import ExperimentConfig
from .experiment import FusionPipeline
from .gradcheck import grad_check
from .rng import Rng

GRAD_TOL = 1e-4


def _sizes(rng: Rng):
    return rng.randint(5) + 2, rng.randint(7) + 2  # n in [2,6], d in [2,8]


def check_attention(kind: str, seed: int) -> float:
    """Gradients of one attention kind's batched pooling at B=1."""
    rng = Rng(seed)
    n, d = _sizes(rng)
    hidden = rng.randint(5) + 2 if kind == "transformer" else 0
    feats = rng.normal_mat(n, d)[None]
    upstream = rng.normal_vec(2 * d if kind == "relation" else d)
    if kind == "transformer":
        params = {"w2": rng.uniform_mat(hidden, d, -0.5, 0.5),
                  "b": rng.normal_vec(hidden, 0.0, 0.3),
                  "u": rng.normal_vec(hidden, 0.0, 0.5)}
    else:
        params = {"w0": rng.uniform_vec(d, -0.5, 0.5)}
        if kind == "relation":
            params["w1"] = rng.uniform_vec(2 * d, -0.5, 0.5)
    _, pool, pool_backward, _ = attention.POOLS[kind]

    def loss(ps):
        pooled, cache = pool(feats, *ps.values())
        # the trailing d_features (None) falls off the zip
        return float(pooled[0] @ upstream), lambda: dict(zip(ps, pool_backward(
            cache, upstream[None])))

    return grad_check(loss, params)


def check_fbp(seed: int) -> float:
    """FBP gradients; odd seeds run with a frozen dropout mask."""
    rng = Rng(seed)
    with_dropout = bool(seed % 2)
    m, n = rng.randint(7) + 2, rng.randint(7) + 2
    k, o = rng.randint(4) + 1, rng.randint(3) + 1
    dropout_p = 0.3 if with_dropout else 0.0
    a = rng.normal_vec(m)
    v = rng.normal_vec(n)
    upstream = rng.normal_vec(o)
    fp = fbp.FBPParams(u_tilde=rng.uniform_mat(m, k * o, -0.5, 0.5),
                       v_tilde=rng.uniform_mat(n, k * o, -0.5, 0.5),
                       k=k, o=o, dropout_p=dropout_p)
    mask = (rng.uniform_vec(k * o) >= dropout_p).astype(np.float64) if with_dropout else None
    mask_scale = mask[None] / (1 - dropout_p) if with_dropout else None

    # grad_check perturbs fp's own arrays in place
    def loss(ps):
        out, cache = fp.fuse(a[None], v[None], mask_scale)
        return float(out[0] @ upstream), lambda: fp.backward(cache, upstream[None])[0]

    return grad_check(loss, fp.params)


def check_classifier(seed: int) -> float:
    rng = Rng(seed)
    classes, d_in = rng.randint(6) + 2, rng.randint(7) + 2
    x = rng.normal_vec(d_in)
    label = rng.randint(classes)
    clf = SoftmaxParams(weight=rng.uniform_mat(classes, d_in, -0.5, 0.5),
                        bias=rng.normal_vec(classes, 0.0, 0.3))

    # grad_check perturbs clf's own arrays in place
    def loss(ps):
        value, cache = clf.loss(x[None], np.array([label]))
        return value, lambda: clf.backward(cache)[0]

    return grad_check(loss, clf.params)


def check_patch_embed(seed: int) -> float:
    """Patch-embedding gradients of the batched stage at B=1."""
    rng = Rng(seed)
    grid_h, grid_w = rng.randint(3) + 1, rng.randint(3) + 1
    patch_h, patch_w = rng.randint(3) + 2, rng.randint(3) + 2
    channels = rng.randint(5) + 2
    spec = rng.normal_mat(grid_h * patch_h, grid_w * patch_w)[None]
    upstream = rng.normal_mat(grid_h * grid_w, channels)[None]
    embed = audio.PatchEmbedParams.init(grid_h, grid_w, patch_h, patch_w, channels, rng)

    # grad_check perturbs embed's own arrays in place
    def loss(ps):
        out, patches = embed.embed(spec)
        return float(np.sum(out * upstream)), lambda: embed.backward(patches, upstream)[0]

    return grad_check(loss, embed.params)


def check_pipeline(seed: int, cross_mode: str = "fbp",
                   audio_fusion: str = "transformer",
                   visual_fusion: str = "transformer") -> float:
    """End-to-end fusion -> classifier -> cross-entropy, dropout off."""
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
    pooled = model.audio.pool(rows[0])[0], model.visual.pool(rows[1])[0], rows[2], None, None
    tensors = model.tensors()
    heads = {name: tensors.pop(name) for name in list(tensors) if name.startswith(("fbp.", "clf."))}

    def head(_):
        loss, backward = model.head_loss(*pooled)
        return loss, lambda: backward()[0]

    # both perturb the model's own arrays in place; no head tensor moves the pooled rows
    return max(grad_check(lambda _: model.batch_loss(*rows), tensors), grad_check(head, heads))


_CHECKERS = {
    **{kind: partial(check_attention, kind) for kind in attention.POOLS},
    "fbp": check_fbp,
    "classifier": check_classifier,
    "patch": check_patch_embed,
}
MODULES = tuple(_CHECKERS)


def run_module_checks(module: str = "all", instances: int = 10) -> dict:
    """Max relative gradient error per requested module over the seeded
    instances 90000, 90001, ..."""
    names = MODULES if module == "all" else (module,)
    results = {}
    for name in names:
        checker = _CHECKERS[name]
        results[name] = max(checker(90000 + i) for i in range(instances))
    return results
