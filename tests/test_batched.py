"""The batched training path against its B=1 case, and the dropout stream."""

import numpy as np
import pytest

from avfusion import experiment, fbp
from avfusion.checks import GRAD_TOL
from avfusion.config import ExperimentConfig
from avfusion.errors import DimMismatch
from avfusion.experiment import FusionPipeline, prepare_dataset, stack_samples, train_pipeline
from avfusion.features import FeatureSet
from avfusion.gradcheck import grad_check
from avfusion.rng import Rng, _GOLDEN, _MASK64, _splitmix64, counter_uniform

KEY = 0x0123456789ABCDEF


def small_cfg(**overrides):
    base = dict(seed=5, data_mode="clustered", samples=21, classes=7,
                audio_dim=4, visual_dim=3, audio_frames=3, visual_frames=2,
                fbp_k=2, fbp_o=5, fbp_dropout=0.3, attn_hidden=3, noise=0.2)
    base.update(overrides)
    return ExperimentConfig(**base)


CONFIGS = [
    *[dict(audio_fusion=kind, visual_fusion=kind, cross_mode=cross)
      for kind in ("self", "relation", "transformer") for cross in ("fbp", "concat")],
    dict(audio_fusion="transformer", visual_fusion="relation", enhance_mode="meanstd"),
]


def _rows_of_update(overrides, count=9):
    cfg = small_cfg(**overrides)
    dataset, _, _, rngs = prepare_dataset(cfg)
    model = FusionPipeline(cfg, rngs["init"])
    samples = dataset.samples[:count]
    return model, samples, stack_samples(model, samples)


def _max_rel(a, b) -> float:
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


@pytest.mark.parametrize("overrides", CONFIGS)
@pytest.mark.parametrize("block_floats", [experiment.BLOCK_FLOATS, 40])
def test_batched_update_equals_sum_of_single_samples(overrides, block_floats, monkeypatch):
    monkeypatch.setattr(experiment, "BLOCK_FLOATS", block_floats)
    model, samples, (audio, visual, labels) = _rows_of_update(overrides)
    key = KEY if model.dropout_active else None
    if block_floats == 40:
        assert model.block_rows(audio, visual) < len(samples)  # several blocks
    loss, grads = model.update_loss(audio, visual, labels, key)

    masks = (fbp.dropout_scale(KEY, 0, len(samples), model.fbp_params) > 0.0
             if key is not None else [None] * len(samples))
    ref_loss, ref = 0.0, None
    for (audio_fs, visual_fs, label), mask in zip(samples, masks):
        one_loss, one = model.sample_loss(audio_fs, visual_fs, label, train=True,
                                          dropout_mask=mask)
        ref_loss += one_loss
        ref = one if ref is None else {k: ref[k] + one[k] for k in ref}
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert set(grads) == set(ref) == set(model.tensors())
    for name in ref:
        assert _max_rel(grads[name], ref[name]) <= 1e-12, name


@pytest.mark.parametrize("overrides", CONFIGS)
def test_batched_predictions_equal_single_sample_predictions(overrides):
    model, samples, (audio, visual, _) = _rows_of_update(overrides, count=21)
    batched = model.predict_rows(audio, visual)
    assert batched.tolist() == [model.predict(a, v) for a, v, _ in samples]


def test_counter_stream_is_splitmix64_under_the_key():
    got = counter_uniform(KEY, 3, 8)
    want = [(_splitmix64((KEY + i * _GOLDEN) & _MASK64) >> 11) / float(1 << 53)
            for i in range(3, 8)]
    assert got.tolist() == want


def test_row_mask_does_not_depend_on_block_split():
    params = fbp.FBPParams.init(3, 4, 3, 4, 0.3, Rng(1))
    whole = fbp.dropout_scale(KEY, 0, 10, params)
    split = np.vstack([fbp.dropout_scale(KEY, 0, 4, params),
                       fbp.dropout_scale(KEY, 4, 10, params)])
    assert np.array_equal(whole, split)
    assert np.array_equal(fbp.dropout_scale(KEY, 6, 7, params), whole[6:7])


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
def test_survival_rate_within_three_sigma(p):
    draws = 100_000
    kept = np.mean(counter_uniform(KEY + 1, 0, draws) >= p)
    sigma = np.sqrt(p * (1.0 - p) / draws)
    assert abs(kept - (1.0 - p)) <= 3.0 * sigma


def test_one_key_per_update():
    cfg = small_cfg()
    dataset, train_idx, _, rngs = prepare_dataset(cfg)
    model = FusionPipeline(cfg, rngs["init"])
    samples = [dataset.samples[i] for i in train_idx]
    used, reference = Rng(77), Rng(77)
    train_pipeline(model, samples, epochs=3, lr=0.1, rng=used)
    for _ in range(3):
        reference.next_u64()
    assert used.next_u64() == reference.next_u64()


def test_block_size_changes_nothing_but_summation_order(monkeypatch):
    cfg = small_cfg(epochs=4)
    dataset, train_idx, _, rngs = prepare_dataset(cfg)
    samples = [dataset.samples[i] for i in train_idx]
    curves, weights = [], []
    for block_floats in (experiment.BLOCK_FLOATS, 40):
        monkeypatch.setattr(experiment, "BLOCK_FLOATS", block_floats)
        model = FusionPipeline(cfg, Rng(3))
        curves.append(train_pipeline(model, samples, cfg.epochs, 0.3, Rng(4), batch_size=5))
        weights.append(model.tensors()["fbp.u_tilde"].copy())
    assert np.allclose(curves[0], curves[1], rtol=1e-12, atol=0.0)
    assert _max_rel(weights[1], weights[0]) <= 1e-12


def test_ragged_sets_raise_dim_mismatch():
    cfg = small_cfg()
    model = FusionPipeline(cfg, Rng(2))
    rng = Rng(3)
    samples = [(FeatureSet(rng.normal_mat(3, 4)), FeatureSet(rng.normal_mat(2, 3)), 0),
               (FeatureSet(rng.normal_mat(4, 4)), FeatureSet(rng.normal_mat(2, 3)), 1)]
    with pytest.raises(DimMismatch):
        train_pipeline(model, samples, epochs=1, lr=0.1, rng=Rng(4))


@pytest.mark.parametrize("label", [-1, 7])
def test_labels_outside_the_classes_raise_dim_mismatch(label):
    cfg = small_cfg()
    model = FusionPipeline(cfg, Rng(2))
    rng = Rng(3)
    samples = [(FeatureSet(rng.normal_mat(3, 4)), FeatureSet(rng.normal_mat(2, 3)), label)]
    with pytest.raises(DimMismatch):
        train_pipeline(model, samples, epochs=1, lr=0.1, rng=Rng(4))


@pytest.mark.parametrize("kind", ["self", "relation", "transformer"])
def test_pipeline_gradients_with_frozen_dropout_mask_at_b3(kind):
    model, _, (audio, visual, labels) = _rows_of_update(
        dict(audio_fusion=kind, visual_fusion="transformer", classes=3, samples=3), count=3)
    assert model.fbp_params.dropout_p == 0.3
    mask = fbp.dropout_scale(KEY, 0, 3, model.fbp_params)
    assert np.any(mask == 0.0) and np.any(mask > 0.0)

    def loss(ps):
        model.set_tensors(ps)
        return model.batch_loss(audio, visual, labels, mask)

    params = {k: v.copy() for k, v in model.tensors().items()}
    assert grad_check(loss, params) < GRAD_TOL
