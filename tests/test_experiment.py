import hashlib
import re

import numpy as np
import pytest

from avfusion.checks import check_pipeline
from avfusion.config import ExperimentConfig
from avfusion.errors import DimMismatch, EmptyDataset, InvalidConfig, NonFiniteValue
from avfusion.experiment import (FusionPipeline, IntraStage, compute_metrics, dataset_rows,
                                 evaluate_pipeline, experiment_rngs, prepare_dataset,
                                 run_experiment, split_indices, train_pipeline)
from avfusion.featfile import load_checkpoint, save_checkpoint
from avfusion.rng import Rng


def small_cfg(**overrides):
    base = dict(seed=61, data_mode="clustered", samples=70, classes=7,
                audio_dim=5, visual_dim=5, audio_frames=3, visual_frames=3,
                epochs=40, lr=0.5, fbp_k=2, fbp_o=12, fbp_dropout=0.1,
                attn_hidden=4, noise=0.1)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestMetrics:
    def test_confusion_and_accuracy(self):
        m = compute_metrics([0, 0, 1, 1, 2], [0, 1, 1, 1, 0], classes=3)
        assert m.confusion.tolist() == [[1, 1, 0], [0, 2, 0], [1, 0, 0]]
        assert m.accuracy == 3 / 5
        assert np.allclose(m.per_class_recall, [0.5, 1.0, 0.0])

    def test_precision_is_diag_over_column_sums(self):
        m = compute_metrics([0, 0, 1, 1, 2], [0, 1, 1, 1, 0], classes=4)
        # class 2 and class 3 are never predicted
        assert m.per_class_precision.tolist() == [0.5, 2 / 3, 0.0, 0.0]
        assert m.per_class_recall.tolist() == [0.5, 1.0, 0.0, 0.0]

    def test_accuracy_equals_trace_over_total(self):
        rng = Rng(62)
        y_true = [rng.randint(4) for _ in range(200)]
        y_pred = [rng.randint(4) for _ in range(200)]
        m = compute_metrics(y_true, y_pred, classes=4)
        assert m.accuracy == np.trace(m.confusion) / m.confusion.sum()
        assert m.confusion.sum(axis=1).tolist() == [y_true.count(c) for c in range(4)]

    @pytest.mark.parametrize("rows, classes", [(1, 2), (2000, 2), (350, 7)])
    def test_confusion_counts_as_add_at_does(self, rows, classes):
        rng = np.random.default_rng(rows)
        y_true, y_pred = rng.integers(0, classes, (2, rows))
        want = np.zeros((classes, classes), dtype=np.int64)
        np.add.at(want, (y_true, y_pred), 1)
        m = compute_metrics(y_true, y_pred, classes)
        assert m.confusion.dtype == np.int64
        assert m.confusion.tobytes() == want.tobytes()

    def test_no_labels(self):
        m = compute_metrics([], [], classes=3)
        assert m.confusion.tolist() == [[0] * 3] * 3
        assert m.accuracy == 0.0
        assert m.per_class_recall.tolist() == m.per_class_precision.tolist() == [0.0] * 3

    @pytest.mark.parametrize("y_true, y_pred", [([0, -1], [0, 1]), ([0, 1], [-1, 1]),
                                                ([0, 3], [0, 1]), ([0, 1], [3, 1]),
                                                ([0, 1], [0, 2**62])])
    def test_a_label_out_of_range_raises(self, y_true, y_pred):
        # unchecked, a prediction of 3 would count as class 0 of the next row
        with pytest.raises(DimMismatch, match=r"0\.\.2"):
            compute_metrics(y_true, y_pred, classes=3)


# tensor names and shapes of FusionPipeline(cfg, Rng(11)) for each attention
# kind and cross mode, with the sha256 of their float64 bytes in that order;
# a change to any init draw or to the tensor order changes checkpoints
PINNED_INIT = {
    ("self", "fbp"): (
        [("audio.w0", (5,)), ("visual.w0", (3,)), ("fbp.u_tilde", (5, 12)),
         ("fbp.v_tilde", (3, 12)), ("clf.weight", (3, 6)), ("clf.bias", (3,))],
        "762c3f150e5e0019d8ec7b76c50e5f5eefeebe5cfd651a895ec5b0ba96ca636a"),
    ("self", "concat"): (
        [("audio.w0", (5,)), ("visual.w0", (3,)), ("clf.weight", (3, 8)),
         ("clf.bias", (3,))],
        "9d7b34518d53c6f68e72dcc9341fb225d5c4652fc6aa15047119cb5fb070c30e"),
    ("relation", "fbp"): (
        [("audio.w0", (5,)), ("audio.w1", (10,)), ("visual.w0", (3,)), ("visual.w1", (6,)),
         ("fbp.u_tilde", (10, 12)), ("fbp.v_tilde", (6, 12)), ("clf.weight", (3, 6)),
         ("clf.bias", (3,))],
        "c59640183926ddfc133e2151ea9cf4d57518b278bab119518b71c18dbf0ba59b"),
    ("relation", "concat"): (
        [("audio.w0", (5,)), ("audio.w1", (10,)), ("visual.w0", (3,)), ("visual.w1", (6,)),
         ("clf.weight", (3, 16)), ("clf.bias", (3,))],
        "a71bb15a53124580ae362d77c68ba86cc57110ba71d436d3710a81e3212dd9ca"),
    ("transformer", "fbp"): (
        [("audio.w2", (4, 5)), ("audio.b", (4,)), ("audio.u", (4,)), ("visual.w2", (4, 3)),
         ("visual.b", (4,)), ("visual.u", (4,)), ("fbp.u_tilde", (5, 12)),
         ("fbp.v_tilde", (3, 12)), ("clf.weight", (3, 6)), ("clf.bias", (3,))],
        "d6a1b10350f315a708f23bacb1fb26ae6136a8f63748ef22780eca8f12766c61"),
    ("transformer", "concat"): (
        [("audio.w2", (4, 5)), ("audio.b", (4,)), ("audio.u", (4,)), ("visual.w2", (4, 3)),
         ("visual.b", (4,)), ("visual.u", (4,)), ("clf.weight", (3, 8)), ("clf.bias", (3,))],
        "53acb06e8c13273ae4c84907f80a30933276cd898d12d316b329ac442a920671"),
}


@pytest.mark.parametrize("kind, cross_mode", sorted(PINNED_INIT))
def test_init_draws_are_pinned(kind, cross_mode):
    cfg = ExperimentConfig(audio_dim=5, visual_dim=3, attn_hidden=4, fbp_k=2, fbp_o=6,
                           classes=3, audio_fusion=kind, visual_fusion=kind,
                           cross_mode=cross_mode)
    tensors = FusionPipeline(cfg, Rng(11)).tensors()
    digest = hashlib.sha256()
    for arr in tensors.values():
        digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    shapes, want = PINNED_INIT[kind, cross_mode]
    assert [(name, arr.shape) for name, arr in tensors.items()] == shapes
    assert digest.hexdigest() == want


class TestIntraStage:
    def test_an_unknown_kind_is_an_invalid_config(self):
        with pytest.raises(InvalidConfig, match="unknown intra fusion kind 'bogus'"):
            IntraStage("bogus", 3, 3, Rng(1))

    @pytest.mark.parametrize("kind", ["self", "relation", "transformer"])
    def test_forward_rejects_the_wrong_feature_dim(self, kind):
        stage = IntraStage(kind, 4, 3, Rng(12))
        with pytest.raises(DimMismatch):
            stage.forward(np.ones((2, 5)))

    @pytest.mark.parametrize("kind", ["self", "relation", "transformer"])
    def test_forward_rejects_a_set_that_holds_nan(self, kind):
        stage = IntraStage(kind, 4, 3, Rng(12))
        feats = np.ones((3, 4))
        feats[1, 2] = np.nan
        with pytest.raises(NonFiniteValue):
            stage.forward(feats)

    @pytest.mark.parametrize("kind", ["self", "relation", "transformer"])
    def test_forward_is_row_0_of_pool(self, kind):
        rng = Rng(13)
        stage = IntraStage(kind, 4, 3, rng)
        feats = rng.normal_mat(3, 4)
        pooled, _ = stage.forward(feats)
        rows, _ = stage.pool(feats[None])
        assert pooled.shape == (stage.out_dim,)
        assert pooled.tobytes() == rows[0].tobytes()


class TestSplit:
    def test_split_is_disjoint_and_complete(self):
        train_idx, test_idx = split_indices(100, Rng(63))
        assert len(train_idx) == 80 and len(test_idx) == 20
        assert sorted(train_idx + test_idx) == list(range(100))

    def test_split_is_seeded(self):
        assert split_indices(50, Rng(7)) == split_indices(50, Rng(7))


@pytest.mark.parametrize("audio_fusion", ["self", "relation", "transformer"])
@pytest.mark.parametrize("cross_mode", ["fbp", "concat"])
def test_pipeline_combinations_train_to_high_accuracy(audio_fusion, cross_mode):
    cfg = small_cfg(audio_fusion=audio_fusion, visual_fusion="transformer",
                    cross_mode=cross_mode)
    result = run_experiment(cfg)
    assert result.metrics.accuracy >= 0.95


@pytest.mark.parametrize("visual_fusion", ["self", "relation"])
def test_visual_fusion_variants_also_separate_clusters(visual_fusion):
    cfg = small_cfg(visual_fusion=visual_fusion)
    assert run_experiment(cfg).metrics.accuracy >= 0.95


@pytest.mark.parametrize("enhance", ["mean", "meanstd", "normfft", "ar_mean"])
def test_enhancement_modes_run_end_to_end(enhance):
    cfg = small_cfg(enhance_mode=enhance, epochs=60)
    result = run_experiment(cfg)
    assert result.metrics.accuracy >= 0.9


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, tmp_path):
        cfg = small_cfg(fbp_dropout=0.2)
        r1 = run_experiment(cfg, out_dir=tmp_path / "a")
        r2 = run_experiment(cfg, out_dir=tmp_path / "b")
        assert r1.metrics.accuracy == r2.metrics.accuracy
        ck1 = (tmp_path / "a" / "checkpoint.bin").read_bytes()
        ck2 = (tmp_path / "b" / "checkpoint.bin").read_bytes()
        assert ck1 == ck2
        assert (tmp_path / "a" / "report.txt").read_text() == \
               (tmp_path / "b" / "report.txt").read_text()

    def test_different_seeds_differ(self):
        r1 = run_experiment(small_cfg(seed=1, epochs=5))
        r2 = run_experiment(small_cfg(seed=2, epochs=5))
        assert r1.loss_curve != r2.loss_curve


class TestOutputs:
    def test_report_is_well_formed_even_with_zero_epochs(self, tmp_path):
        cfg = small_cfg(epochs=0)
        result = run_experiment(cfg, out_dir=tmp_path)
        text = (tmp_path / "report.txt").read_text()
        assert text.startswith("accuracy=")
        assert "[config]" in text
        assert result.loss_curve == []
        # accuracy must equal the untrained baseline (same seeded init)
        dataset, _, test_idx, rngs = prepare_dataset(cfg)
        baseline = FusionPipeline(cfg, rngs["init"])
        from avfusion.experiment import evaluate_pipeline
        assert result.metrics.accuracy == evaluate_pipeline(baseline, dataset,
                                                            test_idx).accuracy

    def test_confusion_csv_matches_metrics(self, tmp_path):
        cfg = small_cfg(epochs=10)
        result = run_experiment(cfg, out_dir=tmp_path)
        rows = [[int(v) for v in line.split(",")]
                for line in (tmp_path / "confusion.csv").read_text().splitlines()]
        assert np.array_equal(np.array(rows), result.metrics.confusion)

    def test_checkpoint_loads_back_into_model(self, tmp_path):
        cfg = small_cfg(epochs=10)
        result = run_experiment(cfg, out_dir=tmp_path)
        dataset, _, test_idx, rngs = prepare_dataset(cfg)
        model = FusionPipeline(cfg, rngs["init"])
        model.set_tensors(load_checkpoint(tmp_path / "checkpoint.bin"))
        from avfusion.experiment import evaluate_pipeline
        metrics = evaluate_pipeline(model, dataset, test_idx)
        assert metrics.accuracy == result.metrics.accuracy

    def test_checkpoint_name_mismatch_rejected(self, tmp_path):
        cfg = small_cfg()
        model = FusionPipeline(cfg, Rng(1))
        tensors = model.tensors()
        bad = {("x." + name): arr for name, arr in tensors.items()}
        with pytest.raises(DimMismatch):
            model.set_tensors(bad)

    def test_checkpoint_tensor_of_the_wrong_shape_rejected(self, tmp_path):
        cfg = small_cfg(audio_dim=3, attn_hidden=4)
        model = FusionPipeline(cfg, Rng(1))
        save_checkpoint(tmp_path / "ok.bin", model.tensors())
        FusionPipeline(cfg, Rng(2)).set_tensors(load_checkpoint(tmp_path / "ok.bin"))
        bad = model.tensors()
        bad["audio.w2"] = bad["audio.w2"].T
        assert bad["audio.w2"].shape == (3, 4)
        save_checkpoint(tmp_path / "bad.bin", bad)
        with pytest.raises(DimMismatch, match=re.escape(
                "tensor 'audio.w2' has shape (3, 4), model expects (4, 3)")):
            FusionPipeline(cfg, Rng(2)).set_tensors(load_checkpoint(tmp_path / "bad.bin"))

    def test_train_on_all_uses_every_sample(self):
        cfg = small_cfg(epochs=1)
        r = run_experiment(cfg, train_on_all=True)
        assert r.metrics is not None  # smoke: API accepts the flag


class TestTrainPipeline:
    def test_empty_dataset_rejected(self):
        cfg = small_cfg()
        model = FusionPipeline(cfg, Rng(2))
        with pytest.raises(EmptyDataset):
            train_pipeline(model, [], epochs=1, lr=0.1, rng=Rng(3))

    def test_minibatch_path_runs(self):
        cfg = small_cfg(batch_size=16, epochs=20)
        result = run_experiment(cfg)
        assert result.metrics.accuracy >= 0.9


class TestEndToEndGradients:
    @pytest.mark.parametrize("seed", range(10))
    def test_fbp_with_transformer_attention_both_modalities(self, seed):
        assert check_pipeline(seed, "fbp") < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_concat_with_mixed_attention(self, seed):
        assert check_pipeline(seed, "concat", audio_fusion="self",
                              visual_fusion="relation") < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_fbp_with_relation_attention(self, seed):
        assert check_pipeline(seed, "fbp", audio_fusion="relation",
                              visual_fusion="self") < 1e-4


def test_experiment_rngs_are_stable():
    a = experiment_rngs(99)
    b = experiment_rngs(99)
    for key in ("data", "split", "init", "train"):
        assert a[key].next_u64() == b[key].next_u64()


class TestEvaluateOnArrays:
    @pytest.mark.parametrize("enhance", ["none", "meanstd"])
    @pytest.mark.parametrize("data_mode", ["clustered", "interaction"])
    def test_matches_predictions_on_the_stacked_samples(self, data_mode, enhance):
        classes = 2 if data_mode == "interaction" else 7
        cfg = small_cfg(data_mode=data_mode, classes=classes, enhance_mode=enhance)
        dataset, train_idx, test_idx, rngs = prepare_dataset(cfg)
        model = FusionPipeline(cfg, rngs["init"])
        train_pipeline(model, [dataset.samples[i] for i in train_idx], 5, cfg.lr,
                       rngs["train"])
        for indices in (test_idx, range(len(dataset.labels)), [5, 5, 0]):
            samples = [dataset.samples[i] for i in indices]
            audio, visual, labels = map(np.array, zip(*samples))
            preds = model.predict_rows(audio, visual)
            assert len(indices) < 4 or len(set(preds.tolist())) > 1
            want = compute_metrics(labels, preds, classes)
            got = evaluate_pipeline(model, dataset, indices)
            assert np.array_equal(got.confusion, want.confusion)
            assert repr(got.accuracy) == repr(want.accuracy)
            assert got.per_class_recall.tobytes() == want.per_class_recall.tobytes()

    def test_a_contiguous_range_takes_views_and_other_indices_copy(self):
        cfg = small_cfg()
        dataset, _, _, rngs = prepare_dataset(cfg)
        model = FusionPipeline(cfg, rngs["init"])
        views = dataset_rows(model, dataset, range(2, 9))
        copies = dataset_rows(model, dataset, list(range(2, 9)))
        for view, copy, whole in zip(views, copies, (dataset.audio, dataset.visual,
                                                     dataset.labels)):
            assert np.shares_memory(view, whole) and not view.flags.writeable
            assert not np.shares_memory(copy, whole)
            assert view.tobytes() == copy.tobytes()
        # out of bounds still raises, as fancy indexing does
        with pytest.raises(IndexError):
            dataset_rows(model, dataset, range(len(dataset.labels) + 1))

    def test_no_indices_give_empty_metrics(self):
        cfg = small_cfg()
        dataset, _, _, rngs = prepare_dataset(cfg)
        metrics = evaluate_pipeline(FusionPipeline(cfg, rngs["init"]), dataset, [])
        assert metrics.confusion.shape == (7, 7) and metrics.confusion.sum() == 0

    @pytest.mark.parametrize("overrides", [dict(audio_dim=6), dict(visual_dim=4),
                                           dict(enhance_mode="meanstd"), dict(classes=3)])
    def test_a_model_that_does_not_fit_the_data_raises_dim_mismatch(self, overrides):
        cfg = small_cfg()
        dataset, _, test_idx, rngs = prepare_dataset(cfg)
        model = FusionPipeline(small_cfg(**overrides), rngs["init"])
        with pytest.raises(DimMismatch):
            evaluate_pipeline(model, dataset, range(len(dataset.labels)))
