"""The batched training path against its B=1 case, and the dropout stream."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from avfusion import experiment, fbp, numeric
from avfusion.checks import GRAD_TOL
from avfusion.config import ExperimentConfig
from avfusion.classifier import apply_class_weights, class_probs
from avfusion.errors import DimMismatch, NonFiniteValue
from avfusion.experiment import FusionPipeline, dataset_rows, prepare_dataset, train_pipeline
from avfusion.gradcheck import grad_check
from avfusion.numeric import check_finite
from avfusion.rng import Rng, _GOLDEN, _MASK64, _splitmix64, counter_u64

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
    return model, dataset_rows(model, dataset, range(count))


def _max_rel(a, b) -> float:
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


@pytest.mark.parametrize("overrides", CONFIGS)
@pytest.mark.parametrize("block_floats", [numeric.BLOCK_FLOATS, 40])
def test_batched_update_equals_sum_of_single_samples(overrides, block_floats, monkeypatch):
    monkeypatch.setattr(numeric, "BLOCK_FLOATS", block_floats)
    model, (audio, visual, labels) = _rows_of_update(overrides)
    key = KEY if model.cross.dropout_p > 0.0 else None
    if block_floats == 40:
        assert len(model.blocks(audio, visual)) > 1
    loss, grads = model.update_loss(audio, visual, labels, key)

    mask = None if key is None else model.cross.dropout_mask(KEY, 0, len(labels))
    ref_loss, ref = 0.0, None
    for r in range(len(labels)):
        rows = slice(r, r + 1)
        one_loss, backward = model.batch_loss(audio[rows], visual[rows], labels[rows],
                                              None if mask is None else mask[rows])
        one = backward()
        ref_loss += one_loss
        ref = one if ref is None else {k: ref[k] + one[k] for k in ref}
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert set(grads) == set(ref) == set(model.tensors())
    for name in ref:
        assert _max_rel(grads[name], ref[name]) <= 1e-12, name


@pytest.mark.parametrize("overrides", CONFIGS)
def test_pools_then_head_loss_is_batch_loss_to_the_byte(overrides):
    model, (audio, visual, labels) = _rows_of_update(overrides)
    scratch = numeric.Scratch()
    mask = (None if model.cross.dropout_p == 0.0
            else model.cross.dropout_mask(KEY, 0, len(labels), scratch))
    loss, backward = model.batch_loss(audio, visual, labels, mask, scratch)
    ref = {name: g.copy() for name, g in backward().items()}

    (a_vec, a_cache), (v_vec, v_cache) = model.audio.pool(audio), model.visual.pool(visual)
    head, head_backward = model.head_loss(a_vec, v_vec, labels, mask, scratch)
    grads, (d_a, d_v) = head_backward()
    assert {name.split(".")[0] for name in grads} <= {"fbp", "clf"}
    grads.update({f"audio.{name}": g for name, g in model.audio.backward(a_cache, d_a)[0].items()})
    grads.update({f"visual.{name}": g
                  for name, g in model.visual.backward(v_cache, d_v)[0].items()})
    assert repr(head) == repr(loss)
    assert set(grads) == set(ref) == set(model.tensors())
    for name, g in ref.items():
        assert grads[name].tobytes() == g.tobytes(), name


@pytest.mark.parametrize("overrides", CONFIGS)
def test_batched_predictions_equal_single_sample_predictions(overrides):
    model, (audio, visual, _) = _rows_of_update(overrides, count=21)
    batched = model.predict_rows(audio, visual)
    assert batched.tolist() == [model.predict_rows(audio[r:r + 1], visual[r:r + 1])[0]
                                for r in range(len(audio))]


def test_counter_stream_is_splitmix64_under_the_key():
    got = counter_u64(KEY, 3, 8)
    want = [_splitmix64((KEY + i * _GOLDEN) & _MASK64) for i in range(3, 8)]
    assert got.dtype == np.uint64 and got.tolist() == want


def _float_compare_mask(raw, p):
    """The mask as uniforms in [0, 1) compared with p: the integer threshold's reference."""
    u = (raw >> np.uint64(11)) * (1.0 / (1 << 53))
    return np.where(u >= p, 1.0 / (1.0 - p), 0.0)


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, np.nextafter(1.0, 0.0)])
def test_integer_threshold_mask_equals_float_compare_mask(p, monkeypatch):
    params = fbp.FBPParams.init(3, 4, 3, 4, p, Rng(1))
    ko = params.k * params.o
    got = params.dropout_mask(KEY, 5, 205)
    want = _float_compare_mask(counter_u64(KEY, 5 * ko, 205 * ko), p).reshape(-1, ko)
    assert got.tobytes() == want.tobytes()
    # raw outputs on either side of the threshold, where the two could part
    cut = int(np.ceil(p * 2.0 ** 53)) << 11
    edges = sorted({min(max(cut + d, 0), (1 << 64) - 1)
                    for d in (-2049, -2048, -1, 0, 1, 2047, 2048)} | {0, (1 << 64) - 1})
    raw = np.array(edges, dtype=np.uint64).repeat(ko)  # one edge per row
    monkeypatch.setattr(fbp, "counter_u64", lambda key, start, stop: raw[:stop - start])
    got = params.dropout_mask(KEY, 0, len(edges))
    assert got.tobytes() == _float_compare_mask(raw, p).reshape(-1, ko).tobytes()


def test_row_mask_does_not_depend_on_block_split():
    params = fbp.FBPParams.init(3, 4, 3, 4, 0.3, Rng(1))
    whole = params.dropout_mask(KEY, 0, 10)
    split = np.vstack([params.dropout_mask(KEY, 0, 4), params.dropout_mask(KEY, 4, 10)])
    assert np.array_equal(whole, split)
    assert np.array_equal(params.dropout_mask(KEY, 6, 7), whole[6:7])


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
def test_survival_rate_within_three_sigma(p):
    draws = 100_000
    params = fbp.FBPParams.init(1, 1, 1, 1, p, Rng(1))
    kept = np.mean(params.dropout_mask(KEY + 1, 0, draws) > 0.0)
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
    for block_floats in (numeric.BLOCK_FLOATS, 40):
        monkeypatch.setattr(numeric, "BLOCK_FLOATS", block_floats)
        model = FusionPipeline(cfg, Rng(3))
        curves.append(train_pipeline(model, samples, cfg.epochs, 0.3, Rng(4), batch_size=5))
        weights.append(model.tensors()["fbp.u_tilde"].copy())
    assert np.allclose(curves[0], curves[1], rtol=1e-12, atol=0.0)
    assert _max_rel(weights[1], weights[0]) <= 1e-12


def test_scratch_reuse_leaks_nothing_between_blocks(monkeypatch):
    # blocks of 2 rows: mini-batches of 5, 5, 5 and 2 walk blocks of 2, 2, 1
    # and 2, so the buffers shrink and grow again
    monkeypatch.setattr(numeric, "BLOCK_FLOATS", 40)
    cfg = small_cfg(audio_dim=3, audio_frames=2, fbp_o=4, epochs=3)
    dataset, train_idx, _, rngs = prepare_dataset(cfg)
    samples = [dataset.samples[i] for i in train_idx]
    model = FusionPipeline(cfg, Rng(3))
    audio, visual, labels = dataset_rows(model, dataset, train_idx)
    assert model.cross.dropout_p > 0.0 and len(labels) % 5 == 2
    assert model.blocks(audio, visual)[0] == slice(0, 2)
    curve = train_pipeline(model, samples, cfg.epochs, 0.3, Rng(4), batch_size=5)

    ref, rng = FusionPipeline(cfg, Rng(3)), Rng(4)

    def step(batch):  # a fresh array for every intermediate
        return ref.update_loss(audio[batch], visual[batch], labels[batch], rng.next_u64())

    assert curve == experiment.descend(ref.tensors(), len(labels), step, cfg.epochs, 0.3,
                                       rng, batch_size=5)
    for name, arr in ref.tensors().items():
        assert model.tensors()[name].tobytes() == arr.tobytes(), name


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_minflt counts minor page faults on Linux")
def test_training_does_not_fault_its_block_buffers_in_again():
    # A fresh process: earlier tests can raise glibc's dynamic mmap and trim
    # thresholds, which would hide the faults.  Before the buffers were
    # reused, a default-config update took 175 to 305 minor faults.
    code = textwrap.dedent("""
        import resource
        from avfusion.config import ExperimentConfig
        from avfusion.experiment import FusionPipeline, prepare_dataset, train_pipeline
        cfg = ExperimentConfig()
        dataset, train_idx, _, rngs = prepare_dataset(cfg)
        model = FusionPipeline(cfg, rngs["init"])
        samples = [dataset.samples[i] for i in train_idx]
        train_pipeline(model, samples, 2, cfg.lr, rngs["train"])
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train_pipeline(model, samples, 10, cfg.lr, rngs["train"])
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          check=True, capture_output=True, text=True, timeout=120)
    assert int(done.stdout) / 10 <= 60


def _predict_per_block(model, audio, visual):
    """Scoring as it was: fresh buffers, and a check and reweighting, per block."""
    preds = []
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in model.blocks(audio, visual):
            fused = model.fuse_rows(audio[rows], visual[rows])
            scores = check_finite(class_probs(fused, model.clf.weight, model.clf.bias),
                                  "class scores")
            preds.append(apply_class_weights(scores, model.class_weights))
    return np.concatenate(preds)


CRITERION_4_FBP = dict(seed=777, data_mode="interaction", samples=2000, classes=2,
                       audio_dim=6, visual_dim=6, audio_frames=3, visual_frames=3,
                       fbp_k=2, fbp_o=8, fbp_dropout=0.0, audio_fusion="self",
                       visual_fusion="self", noise=0.1)


@pytest.mark.parametrize("overrides", [
    {}, CRITERION_4_FBP,
    dict(audio_fusion="relation", visual_fusion="relation", enhance_mode="meanstd")])
def test_scoring_matches_the_per_block_loop(overrides):
    cfg = ExperimentConfig(**overrides)
    dataset, _, _, rngs = prepare_dataset(cfg)
    model = FusionPipeline(cfg, rngs["init"])
    rng = Rng(11)
    for arr in model.tensors().values():  # transformer's u starts at 0
        arr += rng.normal_vec(arr.size, 0.0, 0.5).reshape(arr.shape)
    audio, visual, _ = dataset_rows(model, dataset, range(len(dataset.labels)))
    assert len(model.blocks(audio, visual)) > 1
    preds = model.predict_rows(audio, visual)
    assert len(set(preds.tolist())) > 1
    assert preds.tobytes() == _predict_per_block(model, audio, visual).tobytes()
    # a non-finite score in the last block only raises as it did
    audio = audio.copy()
    audio[-1, 0] = np.inf
    for predict in (model.predict_rows, lambda a, v: _predict_per_block(model, a, v)):
        with pytest.raises(NonFiniteValue, match="^class scores contains NaN or Inf$"):
            predict(audio, visual)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_minflt counts minor page faults on Linux")
def test_scoring_does_not_fault_its_block_buffers_in_again():
    # As for training, in a fresh process.  Before scoring took a scratch, a
    # 350-row default evaluation took about 117 minor faults.
    code = textwrap.dedent("""
        import resource
        from avfusion.config import ExperimentConfig
        from avfusion.experiment import FusionPipeline, dataset_rows, prepare_dataset
        cfg = ExperimentConfig()
        dataset, _, _, rngs = prepare_dataset(cfg)
        model = FusionPipeline(cfg, rngs["init"])
        audio, visual, _ = dataset_rows(model, dataset, range(len(dataset.labels)))
        assert len(audio) == 350
        model.predict_rows(audio, visual)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(10):
            model.predict_rows(audio, visual)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          check=True, capture_output=True, text=True, timeout=120)
    assert int(done.stdout) / 10 <= 20


def test_scoring_while_the_models_scratch_is_held_makes_its_own(monkeypatch):
    # several blocks, so the buffers are reused within the call too
    monkeypatch.setattr(numeric, "BLOCK_FLOATS", 40)
    model, (audio, visual, _) = _rows_of_update(CONFIGS[0], count=21)
    want = model.predict_rows(audio, visual)
    buffers = model._score_scratch._flat
    assert set(buffers) == {"proj_a", "proj_v", "h"}
    for flat in buffers.values():
        flat.fill(np.nan)
    # free after each call; hold it, as a concurrent call would
    assert model._scoring.acquire(blocking=False)
    try:
        got = model.predict_rows(audio, visual)
    finally:
        model._scoring.release()
    assert all(np.isnan(flat).all() for flat in buffers.values())  # not written
    assert got.tolist() == want.tolist()
    assert model.predict_rows(audio, visual).tolist() == want.tolist()


def test_ragged_sets_raise_dim_mismatch():
    cfg = small_cfg()
    model = FusionPipeline(cfg, Rng(2))
    rng = Rng(3)
    samples = [(rng.normal_mat(3, 4), rng.normal_mat(2, 3), 0),
               (rng.normal_mat(4, 4), rng.normal_mat(2, 3), 1)]
    with pytest.raises(DimMismatch):
        train_pipeline(model, samples, epochs=1, lr=0.1, rng=Rng(4))


@pytest.mark.parametrize("label", [-1, 7])
def test_labels_outside_the_classes_raise_dim_mismatch(label):
    cfg = small_cfg()
    model = FusionPipeline(cfg, Rng(2))
    rng = Rng(3)
    samples = [(rng.normal_mat(3, 4), rng.normal_mat(2, 3), label)]
    with pytest.raises(DimMismatch):
        train_pipeline(model, samples, epochs=1, lr=0.1, rng=Rng(4))


@pytest.mark.parametrize("kind", ["self", "relation", "transformer"])
def test_pipeline_gradients_with_frozen_dropout_mask_at_b3(kind):
    model, (audio, visual, labels) = _rows_of_update(
        dict(audio_fusion=kind, visual_fusion="transformer", classes=3, samples=3), count=3)
    assert model.cross.dropout_p == 0.3
    mask = model.cross.dropout_mask(KEY, 0, 3)
    assert np.any(mask == 0.0) and np.any(mask > 0.0)

    assert grad_check(lambda _: model.batch_loss(audio, visual, labels, mask),
                      model.tensors()) < GRAD_TOL


@pytest.mark.parametrize("overrides", CONFIGS)
def test_in_place_tensor_changes_reach_the_forward(overrides):
    # check_pipeline perturbs the arrays of model.tensors() in place, with no
    # set_tensors: the forward must read those very arrays
    model, (audio, visual, labels) = _rows_of_update(overrides, count=4)
    rng = Rng(9)
    for arr in model.tensors().values():  # transformer's u starts at 0, hiding w2
        arr += rng.normal_vec(arr.size, 0.0, 0.5).reshape(arr.shape)
    base, _ = model.batch_loss(audio, visual, labels)
    for name, arr in model.tensors().items():
        orig = arr.flat[0]
        arr.flat[0] = orig + 1e-3
        bumped, _ = model.batch_loss(audio, visual, labels)
        arr.flat[0] = orig
        restored, _ = model.batch_loss(audio, visual, labels)
        assert bumped != base, name
        assert repr(restored) == repr(base), name


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("cross_mode", ["fbp", "concat"])
def test_transformer_gradients_away_from_the_zero_init(cross_mode, seed):
    # at init transformer's u is 0, so the scores are 0 and the w2 and b
    # gradients are exactly 0 on both sides: randomize every tensor first
    model, (audio, visual, labels) = _rows_of_update(
        dict(audio_fusion="transformer", visual_fusion="transformer", cross_mode=cross_mode,
             classes=3, samples=3), count=3)
    rng = Rng(100 + seed)
    for arr in model.tensors().values():
        arr[...] = rng.normal_vec(arr.size, 0.0, 0.5).reshape(arr.shape)
    grads = model.batch_loss(audio, visual, labels)[1]()
    for name in ("audio.w2", "audio.b", "visual.w2", "visual.b"):
        assert np.all(grads[name] != 0.0), name
    assert grad_check(lambda _: model.batch_loss(audio, visual, labels),
                      model.tensors()) < GRAD_TOL


def test_ragged_sets_keep_the_size_message():
    model = FusionPipeline(small_cfg(), Rng(2))
    rng = Rng(3)
    samples = [(rng.normal_mat(3, 4), rng.normal_mat(2, 3), 0),
               (rng.normal_mat(3, 5), rng.normal_mat(2, 3), 1)]
    with pytest.raises(DimMismatch, match=r"audio feature sets differ in size; "
                                          r"every set must be \(3, 4\)"):
        train_pipeline(model, samples, epochs=1, lr=0.1, rng=Rng(4))


@pytest.mark.parametrize("shape", [(4,), (1, 3, 4), (0, 4), (3, 0)])
def test_a_sample_that_is_not_n_by_d_raises_dim_mismatch(shape):
    # check_rows owns the shape rule for the stacked sets
    message = {(4,): r"audio features must be a \(B, n, d\) stack, got \(1, 4\)",
               (1, 3, 4): r"audio features must be a \(B, n, d\) stack, got \(1, 1, 3, 4\)",
               (0, 4): "audio feature sets need n >= 1 vectors",
               (3, 0): "audio features have dim 0"}[shape]
    model = FusionPipeline(small_cfg(), Rng(2))
    samples = [(np.ones(shape), Rng(3).normal_mat(2, 3), 0)]
    with pytest.raises(DimMismatch, match=message):
        train_pipeline(model, samples, epochs=1, lr=0.1, rng=Rng(4))


@pytest.mark.parametrize("case", ["visual-B", "audio-2d", "visual-2d", "labels-count",
                                  "labels-float"])
def test_mismatched_rows_are_refused_before_batch_loss(case):
    # numpy raised a bare ValueError (B) or IndexError (2-D), or the loss
    # summed over the first rows (count) or truncated the labels (float)
    model = FusionPipeline(small_cfg(), Rng(2))
    rng = Rng(3)
    audio, visual = rng.normal_mat(6, 4).reshape(2, 3, 4), rng.normal_mat(4, 3).reshape(2, 2, 3)
    rows, message = {
        "visual-B": ((audio, visual[:1], [0, 1]), "2 audio sets but 1 visual sets"),
        "audio-2d": ((audio[0], visual, [0, 1]), r"audio features must be a \(B, n, d\) stack"),
        "visual-2d": ((audio, visual[0], [0, 1]), r"visual features must be a \(B, n, d\) stack"),
        "labels-count": ((audio, visual, [0]), "labels must be 2 integers"),
        "labels-float": ((audio, visual, [0.7, 1.9]), "labels must be 2 integers"),
    }[case]
    with pytest.raises(DimMismatch, match=message):
        model.batch_loss(*model.check_rows(*rows))[1]()


@pytest.mark.parametrize("kind", ["self", "relation", "transformer"])
def test_empty_sets_are_refused_before_predict_rows_and_batch_loss(kind):
    # a (B, 0, d) stack reached numpy's zero-size reduction as a bare ValueError
    model = FusionPipeline(small_cfg(audio_fusion=kind, visual_fusion=kind), Rng(2))
    rng = Rng(3)
    audio, visual = rng.normal_mat(6, 4).reshape(2, 3, 4), rng.normal_mat(4, 3).reshape(2, 2, 3)
    for name, rows in (("audio", (np.zeros((2, 0, 4)), visual)),
                       ("visual", (audio, np.zeros((2, 0, 3))))):
        with pytest.raises(DimMismatch, match=f"{name} feature sets need n >= 1 vectors"):
            model.predict_rows(*model.check_rows(*rows)[:2])
        with pytest.raises(DimMismatch, match=f"{name} feature sets need n >= 1 vectors"):
            model.batch_loss(*model.check_rows(*rows, [0, 1]))
