import numpy as np
import pytest

from avfusion import synthetic
from avfusion.classifier import SoftmaxParams, class_probs
from avfusion.config import ExperimentConfig
from avfusion.enhance import (ar_mean_rows, enumerate_tta, mean_rows, meanstd_rows,
                              normfft_rows)
from avfusion.errors import InvalidConfig, NonFiniteValue
from avfusion.rng import Rng
from avfusion.synthetic import SyntheticDataset, enhanced_dim, gen_synthetic
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
            frames = audio_fs
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
            assert np.array_equal(fa, fb)
            assert np.array_equal(va, vb)

    def test_shapes_follow_config(self):
        cfg = clustered_cfg(audio_frames=4, visual_frames=2, audio_dim=3, visual_dim=6)
        ds = gen_synthetic(cfg, Rng(2))
        audio_fs, visual_fs, _ = ds.samples[0]
        assert audio_fs.shape == (4, 3)
        assert visual_fs.shape == (2, 6)

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
            xs = [np.mean(sample[modality], axis=0) for sample in ds.samples]
            ys = [sample[2] for sample in ds.samples]
            params = SoftmaxParams(weight=np.zeros((2, 6)), bias=np.zeros(2))
            trained, _ = fit_softmax(xs, ys, params, lr=0.5, epochs=60)
            preds = np.argmax(class_probs(np.array(xs), trained.weight, trained.bias), axis=1)
            acc = float(np.mean(preds == np.array(ys)))
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
        assert visual_fs.shape[1] == enhanced_dim(cfg.visual_dim, mode)

    def test_mean_enhancement_is_close_to_base_feature(self):
        # the identity transform is in the bag and perturbations are small
        cfg_none = clustered_cfg(noise=0.0, samples=7)
        cfg_mean = clustered_cfg(noise=0.0, samples=7, enhance_mode="mean")
        base = gen_synthetic(cfg_none, Rng(cfg_none.seed))
        enhanced = gen_synthetic(cfg_mean, Rng(cfg_mean.seed))
        v0 = base.samples[0][1][0]
        v1 = enhanced.samples[0][1][0]
        assert np.max(np.abs(v0 - v1)) < 0.5


# --- loop oracle: the per-sample, per-frame generators -----------------------


class LoopConditioner:
    def __init__(self, dim, rng):
        self.rot_dir = rng.normal_vec(dim, 0.0, 0.02)
        self.flip_dir = rng.normal_vec(dim, 0.0, 0.05)

    def variant(self, x, t):
        out = t.scale * x + t.rotation_deg * self.rot_dir
        if t.flipped:
            out = out + self.flip_dir
        return out

    def bag(self, x, transforms):
        """The (1, T, d) stack of one frame's transform variants."""
        return np.array([[self.variant(x, t) for t in transforms]])


def loop_enhancer(cfg, rng):
    if cfg.enhance_mode == "none":
        return lambda x: x
    if cfg.enhance_mode == "normfft":
        return lambda x: normfft_rows(x[None])[0]
    transforms = enumerate_tta(cfg.tta_rotations, cfg.tta_scales)
    cond = LoopConditioner(cfg.visual_dim, rng)
    if cfg.enhance_mode == "mean":
        return lambda x: mean_rows(cond.bag(x, transforms))[0]
    if cfg.enhance_mode == "meanstd":
        return lambda x: meanstd_rows(cond.bag(x, transforms))[0]
    cond_r = LoopConditioner(cfg.visual_dim, rng)
    return lambda x: ar_mean_rows(mean_rows(cond.bag(x, transforms)),
                                  mean_rows(cond_r.bag(x, transforms)))[0]


def loop_gen_synthetic(cfg, rng):
    """One sample at a time, one scalar-sized draw at a time."""
    if cfg.data_mode == "clustered":
        protos_a = rng.normal_mat(cfg.classes, cfg.audio_dim)
        protos_v = rng.normal_mat(cfg.classes, cfg.visual_dim)
    else:
        p = rng.normal_vec(cfg.audio_dim)
        p /= np.linalg.norm(p)
        q = rng.normal_vec(cfg.visual_dim)
        q /= np.linalg.norm(q)
    enhancer = loop_enhancer(cfg, rng)
    samples = []
    for i in range(cfg.samples):
        if cfg.data_mode == "clustered":
            label = i % cfg.classes
            audio = protos_a[label] + cfg.noise * rng.normal_mat(cfg.audio_frames, cfg.audio_dim)
            visual_base = protos_v[label] + cfg.noise * rng.normal_mat(cfg.visual_frames,
                                                                       cfg.visual_dim)
        else:
            if i < 2:
                sign_a, sign_v = 1.0, (1.0 if i == 0 else -1.0)
            else:
                sign_a = 1.0 if rng.uniform() < 0.5 else -1.0
                sign_v = 1.0 if rng.uniform() < 0.5 else -1.0
            mag_a = rng.uniform(0.5, 1.5)
            mag_v = rng.uniform(0.5, 1.5)
            audio = sign_a * mag_a * p + cfg.noise * rng.normal_mat(cfg.audio_frames,
                                                                    cfg.audio_dim)
            visual_base = sign_v * mag_v * q + cfg.noise * rng.normal_mat(cfg.visual_frames,
                                                                          cfg.visual_dim)
            label = 1 if sign_a * sign_v > 0 else 0
        visual = np.array([enhancer(frame) for frame in visual_base])
        samples.append((audio, visual, label))
    return samples


def assert_same_dataset(cfg):
    bulk_rng, loop_rng = Rng(cfg.seed), Rng(cfg.seed)
    dataset = gen_synthetic(cfg, bulk_rng)
    want = loop_gen_synthetic(cfg, loop_rng)
    # the arrays, row by row
    visual_dim = enhanced_dim(cfg.visual_dim, cfg.enhance_mode)
    assert dataset.audio.shape == (len(want), cfg.audio_frames, cfg.audio_dim)
    assert dataset.visual.shape == (len(want), cfg.visual_frames, visual_dim)
    assert dataset.labels.dtype == np.int64
    assert dataset.labels.tolist() == [label for _, _, label in want]
    for row, (wa, wv, _) in enumerate(want):
        assert dataset.audio[row].tobytes() == wa.tobytes()
        assert dataset.visual[row].tobytes() == wv.tobytes()
    # the views indexed on access
    got = dataset.samples
    assert len(got) == len(want)
    for i, (wa, wv, wlabel) in enumerate(want):
        a, v, label = got[i]
        assert type(label) is int and label == wlabel
        assert a.shape == wa.shape and v.shape == wv.shape
        assert a.tobytes() == wa.tobytes()
        assert v.tobytes() == wv.tobytes()
    # both leave the stream at the same point
    assert bulk_rng.next_u64() == loop_rng.next_u64()


@pytest.mark.parametrize("block_floats", [synthetic.BLOCK_FLOATS, 700])
@pytest.mark.parametrize("mode", ["none", "mean", "meanstd", "normfft", "ar_mean"])
@pytest.mark.parametrize("data_mode", ["clustered", "interaction"])
def test_bulk_generators_match_the_loop_oracle(data_mode, mode, block_floats, monkeypatch):
    monkeypatch.setattr(synthetic, "BLOCK_FLOATS", block_floats)
    classes = 2 if data_mode == "interaction" else 3
    # odd dims and frame counts, 1-d frames, and sample counts that no block
    # size divides
    for dims in ((5, 3, 3, 7), (1, 1, 1, 5), (3, 9, 2, 1)):
        audio_dim, visual_dim, audio_frames, visual_frames = dims
        assert_same_dataset(ExperimentConfig(
            seed=19 + visual_dim, data_mode=data_mode, classes=classes, samples=83,
            audio_dim=audio_dim, visual_dim=visual_dim, audio_frames=audio_frames,
            visual_frames=visual_frames, enhance_mode=mode))


@pytest.mark.parametrize("samples", [2, 3])
def test_tiny_interaction_sets_match_the_loop_oracle(samples):
    # the first two labels are pinned and draw no signs; the config refuses
    # fewer samples than classes
    assert_same_dataset(interaction_cfg(samples=samples, seed=23))


def test_criterion_4_data_matches_the_loop_oracle():
    assert_same_dataset(ExperimentConfig(
        seed=777, data_mode="interaction", samples=2000, classes=2, audio_dim=6,
        visual_dim=6, audio_frames=3, visual_frames=3, noise=0.1))


# --- the dataset as arrays ----------------------------------------------------


class TestArrays:
    def test_arrays_are_read_only(self):
        ds = gen_synthetic(clustered_cfg(), Rng(7))
        for arr in (ds.audio, ds.visual, ds.labels):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        a, _, _ = ds.samples[0]
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1.0

    @pytest.mark.parametrize("name", ["audio", "visual"])
    def test_non_finite_arrays_are_rejected_once_at_the_dataset(self, name):
        arrays = {"audio": np.zeros((2, 3, 4)), "visual": np.zeros((2, 2, 5)),
                  "labels": np.array([0, 1])}
        arrays[name][1, 0, 2] = np.nan
        with pytest.raises(NonFiniteValue, match=f"synthetic {name}"):
            SyntheticDataset(classes=2, **arrays)

    def test_samples_are_a_sequence_built_on_access(self):
        ds = gen_synthetic(clustered_cfg(), Rng(8))
        samples = ds.samples
        n = len(samples)
        assert n == 35 == len(ds.labels)

        def same(x, y):
            return (x[0].tobytes() == y[0].tobytes()
                    and x[1].tobytes() == y[1].tobytes() and x[2] == y[2])

        assert all(same(samples[-k], samples[n - k]) for k in range(1, n + 1))
        for sl in (slice(None, 4), slice(-3, None), slice(1, 30, 7), slice(None, None, -5),
                   slice(40, 50)):
            got = samples[sl]
            assert isinstance(got, list)
            want = [samples[i] for i in range(n)[sl]]
            assert len(got) == len(want) and all(map(same, got, want))
        listed = list(samples)
        assert len(listed) == n and all(same(listed[i], samples[i]) for i in range(n))
        with pytest.raises(IndexError):
            samples[n]
        with pytest.raises(IndexError):
            samples[-n - 1]
