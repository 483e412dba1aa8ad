import numpy as np
import pytest

from avfusion.classifier import SoftmaxParams, softmax_forward
from avfusion.config import ExperimentConfig
from avfusion.errors import InvalidConfig
from avfusion.rng import Rng
from avfusion.synthetic import enhanced_dim, gen_synthetic
from test_classifier import fit_softmax


def clustered_cfg(**overrides):
    base = dict(seed=51, data_mode="clustered", samples=35, classes=7,
                audio_dim=5, visual_dim=5, audio_frames=3, visual_frames=3,
                noise=0.1)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestClustered:
    def test_zero_noise_frames_equal_prototypes(self):
        cfg = clustered_cfg(noise=0.0)
        ds = gen_synthetic(cfg, Rng(cfg.seed))
        by_label = {}
        for audio_fs, visual_fs, label in ds.samples:
            frames = audio_fs.vectors
            assert np.all(frames == frames[0])  # all frames identical
            if label in by_label:
                assert np.array_equal(by_label[label], frames[0])
            else:
                by_label[label] = frames[0]
        assert len(by_label) == 7

    def test_every_class_present(self):
        ds = gen_synthetic(clustered_cfg(), Rng(1))
        labels = {label for _, _, label in ds.samples}
        assert labels == set(range(7))

    def test_same_seed_gives_identical_datasets(self):
        cfg = clustered_cfg()
        a = gen_synthetic(cfg, Rng(cfg.seed))
        b = gen_synthetic(cfg, Rng(cfg.seed))
        assert len(a.samples) == len(b.samples)
        for (fa, va, la), (fb, vb, lb) in zip(a.samples, b.samples):
            assert la == lb
            assert np.array_equal(fa.vectors, fb.vectors)
            assert np.array_equal(va.vectors, vb.vectors)

    def test_shapes_follow_config(self):
        cfg = clustered_cfg(audio_frames=4, visual_frames=2, audio_dim=3, visual_dim=6)
        ds = gen_synthetic(cfg, Rng(2))
        audio_fs, visual_fs, _ = ds.samples[0]
        assert (audio_fs.n, audio_fs.dim) == (4, 3)
        assert (visual_fs.n, visual_fs.dim) == (2, 6)

    def test_fewer_samples_than_classes_rejected(self):
        with pytest.raises(InvalidConfig):
            gen_synthetic(clustered_cfg(samples=3), Rng(3))


def interaction_cfg(**overrides):
    base = dict(seed=52, data_mode="interaction", samples=2000, classes=2,
                audio_dim=6, visual_dim=6, audio_frames=3, visual_frames=3,
                noise=0.1)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestInteraction:
    def test_both_classes_present_even_for_tiny_sets(self):
        ds = gen_synthetic(interaction_cfg(samples=2), Rng(4))
        assert {label for _, _, label in ds.samples} == {0, 1}

    def test_single_modality_is_uninformative(self):
        # oracle: train a logistic classifier on one modality's mean frame;
        # by the sign-product construction it cannot beat chance
        cfg = interaction_cfg()
        ds = gen_synthetic(cfg, Rng(cfg.seed))
        for modality in (0, 1):
            xs = [np.mean(sample[modality].vectors, axis=0) for sample in ds.samples]
            ys = [sample[2] for sample in ds.samples]
            params = SoftmaxParams(weight=np.zeros((2, 6)), bias=np.zeros(2))
            trained, _ = fit_softmax(xs, ys, params, lr=0.5, epochs=60)
            preds = [int(np.argmax(softmax_forward(x, trained).probs)) for x in xs]
            acc = float(np.mean([p == y for p, y in zip(preds, ys)]))
            assert 0.45 <= acc <= 0.55

    def test_labels_balanced_roughly(self):
        ds = gen_synthetic(interaction_cfg(), Rng(5))
        ones = sum(label for _, _, label in ds.samples)
        assert 850 <= ones <= 1150


class TestEnhancement:
    def test_enhanced_dims(self):
        assert enhanced_dim(5, "none") == 5
        assert enhanced_dim(5, "mean") == 5
        assert enhanced_dim(5, "meanstd") == 10
        assert enhanced_dim(5, "normfft") == 10
        assert enhanced_dim(5, "ar_mean") == 10

    @pytest.mark.parametrize("mode", ["none", "mean", "meanstd", "normfft", "ar_mean"])
    def test_generated_visual_dim_matches_contract(self, mode):
        cfg = clustered_cfg(enhance_mode=mode, samples=14, classes=7)
        ds = gen_synthetic(cfg, Rng(6))
        _, visual_fs, _ = ds.samples[0]
        assert visual_fs.dim == enhanced_dim(cfg.visual_dim, mode)

    def test_mean_enhancement_is_close_to_base_feature(self):
        # the identity transform is in the bag and perturbations are small
        cfg_none = clustered_cfg(noise=0.0, samples=7)
        cfg_mean = clustered_cfg(noise=0.0, samples=7, enhance_mode="mean")
        base = gen_synthetic(cfg_none, Rng(cfg_none.seed))
        enhanced = gen_synthetic(cfg_mean, Rng(cfg_mean.seed))
        v0 = base.samples[0][1].vectors[0]
        v1 = enhanced.samples[0][1].vectors[0]
        assert np.max(np.abs(v0 - v1)) < 0.5
