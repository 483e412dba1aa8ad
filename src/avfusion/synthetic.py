"""Synthetic two-modality labeled datasets for desk-scale experiments.

Two generator modes:

* ``clustered``: each class gets a Gaussian prototype per modality and every
  frame is prototype + noise, so any fusion scheme separates the classes.
* ``interaction``: each sample carries a signed latent along a fixed
  direction per modality and the (binary) label is the sign of the product
  of the two latents.  Neither modality alone predicts the label; only a
  model that can represent the cross-modal product can.

Visual frames are optionally enhanced at generation time: each base frame
feature spawns a bag of per-transform variants (conditioned deterministically
on the rotation/scale/flip descriptors) which the configured aggregator
collapses.  The identity transform reproduces the base feature exactly.

The generators trust their ``ExperimentConfig``, which checks its own rules
(known modes, at least one sample per class, two classes for interaction
data).  A dataset is three read-only arrays, filled block by block and
checked finite once, when generated: audio (N, n_a, d_a), visual
(N, n_v, d_v) and int64 labels (N,).  ``samples`` indexes per-sample (n, d)
views on access.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .enhance import ar_mean_rows, enumerate_tta, mean_rows, meanstd_rows, normfft_rows
from .numeric import check_finite, row_blocks
from .rng import Rng


@dataclass(frozen=True)
class SyntheticDataset:
    audio: np.ndarray   # (N, n_a, d_a)
    visual: np.ndarray  # (N, n_v, d_v), enhanced
    labels: np.ndarray  # (N,) int64
    classes: int

    def __post_init__(self):  # the one finite check; read-only keeps it valid
        for name in ("audio", "visual", "labels"):
            arr = check_finite(getattr(self, name), f"synthetic {name}")
            arr.flags.writeable = False

    @property
    def samples(self) -> "_Samples":
        """The (audio view, visual view, int label) triples, indexed on access."""
        return _Samples(self)


class _Samples(Sequence):
    def __init__(self, dataset: SyntheticDataset):
        self._dataset = dataset

    def __len__(self) -> int:
        return len(self._dataset.labels)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        ds = self._dataset
        return ds.audio[i], ds.visual[i], int(ds.labels[i])


def enhanced_dim(base_dim: int, mode: str) -> int:
    """Feature dimension after the enhancement ``mode``, one of the config's
    ``ENHANCEMENTS``: "none" and "mean" keep it, the others double it."""
    return base_dim if mode in ("none", "mean") else 2 * base_dim


class _TtaConditioner:
    """Deterministic per-transform feature perturbations.

    Stands in for re-extracting CNN features from warped frames: scaling
    multiplies the feature, rotation and flipping shift it along fixed
    dataset-level directions.  The identity descriptor is a no-op.
    """

    def __init__(self, dim: int, transforms, rng: Rng):
        self.rot_dir = rng.normal_vec(dim, 0.0, 0.02)
        self.flip_dir = rng.normal_vec(dim, 0.0, 0.05)
        self.scale = np.array([t.scale for t in transforms])[:, None]
        self.turn = np.array([t.rotation_deg for t in transforms])[:, None] * self.rot_dir
        self.flipped = np.array([t.flipped for t in transforms])

    def bags(self, frames: np.ndarray) -> np.ndarray:
        """(M, d) frames -> (M, T, d): each frame's variant under every transform."""
        out = self.scale * frames[:, None, :] + self.turn
        out[:, self.flipped] += self.flip_dir
        return out


def _make_enhancer(cfg: ExperimentConfig, rng: Rng):
    """(enhance, floats): enhance maps (M, d) base visual frames to their
    enhanced rows; floats is the width of its widest temporary per frame."""
    dim = cfg.visual_dim
    if cfg.enhance_mode == "none":
        return (lambda x: x), dim
    if cfg.enhance_mode == "normfft":
        return normfft_rows, 2 * dim
    transforms = enumerate_tta(cfg.tta_rotations, cfg.tta_scales)
    cond = _TtaConditioner(dim, transforms, rng)
    floats = len(transforms) * dim
    if cfg.enhance_mode == "mean":
        return (lambda x: mean_rows(cond.bags(x))), floats
    if cfg.enhance_mode == "meanstd":
        return (lambda x: meanstd_rows(cond.bags(x))), floats
    # ar_mean: two extractor views with their own conditioning directions
    cond_r = _TtaConditioner(dim, transforms, rng)
    return (lambda x: ar_mean_rows(mean_rows(cond.bags(x)), mean_rows(cond_r.bags(x)))), floats


def _empty(cfg: ExperimentConfig):
    """Unfilled (audio, visual, labels) arrays of cfg.samples rows."""
    visual_dim = enhanced_dim(cfg.visual_dim, cfg.enhance_mode)
    return (np.empty((cfg.samples, cfg.audio_frames, cfg.audio_dim)),
            np.empty((cfg.samples, cfg.visual_frames, visual_dim)),
            np.empty(cfg.samples, dtype=np.int64))


def _block_samples(cfg: ExperimentConfig, enhance, center_a, center_v, z):
    """A block's (rows, n, d) audio and visual arrays: frames are the (rows, d)
    centers plus noise times the (rows, frames * d) normals z, audio first."""
    na = cfg.audio_frames * cfg.audio_dim
    audio = center_a[:, None, :] + cfg.noise * z[:, :na].reshape(-1, cfg.audio_frames,
                                                                  cfg.audio_dim)
    visual = center_v[:, None, :] + cfg.noise * z[:, na:].reshape(-1, cfg.visual_frames,
                                                                   cfg.visual_dim)
    visual = enhance(visual.reshape(-1, cfg.visual_dim)).reshape(len(z), cfg.visual_frames, -1)
    return audio, visual


def gen_synthetic(cfg: ExperimentConfig, rng: Rng) -> SyntheticDataset:
    """Generate a dataset; identical config and rng seed give identical bytes.

    Samples are drawn in blocks, one bulk draw per block, in the order of a
    loop over samples.
    """
    if cfg.data_mode == "clustered":
        return _gen_clustered(cfg, rng)
    return _gen_interaction(cfg, rng)


def _gen_clustered(cfg: ExperimentConfig, rng: Rng) -> SyntheticDataset:
    protos_a = rng.normal_mat(cfg.classes, cfg.audio_dim)
    protos_v = rng.normal_mat(cfg.classes, cfg.visual_dim)
    enhance, frame_floats = _make_enhancer(cfg, rng)
    nz = cfg.audio_frames * cfg.audio_dim + cfg.visual_frames * cfg.visual_dim
    audio, visual, labels = _empty(cfg)
    for rows in row_blocks(0, cfg.samples, max(2 * nz, cfg.visual_frames * frame_floats)):
        labels[rows] = np.arange(rows.start, rows.stop) % cfg.classes
        audio[rows], visual[rows] = _block_samples(
            cfg, enhance, protos_a[labels[rows]], protos_v[labels[rows]],
            rng.normal_mat(rows.stop - rows.start, nz))
    return SyntheticDataset(audio, visual, labels, cfg.classes)


def _gen_interaction(cfg: ExperimentConfig, rng: Rng) -> SyntheticDataset:
    p = rng.normal_vec(cfg.audio_dim)
    p /= np.linalg.norm(p)
    q = rng.normal_vec(cfg.visual_dim)
    q /= np.linalg.norm(q)
    enhance, frame_floats = _make_enhancer(cfg, rng)
    nz = cfg.audio_frames * cfg.audio_dim + cfg.visual_frames * cfg.visual_dim
    # the first two samples are pinned to one label each, so both classes are
    # always present, and draw no signs; the config has samples >= classes = 2
    audio, visual, labels = _empty(cfg)
    for signs, start, stop in ((0, 0, 2), (2, 2, cfg.samples)):
        row_floats = max(signs + 2 + 2 * nz, cfg.visual_frames * frame_floats)
        for rows in row_blocks(start, stop, row_floats):
            lo, hi = rows.start, rows.stop
            # per sample: sign uniforms, two magnitude uniforms, noise normals
            draws = rng.draws(np.tile([False] * (signs + 2) + [True] * nz, hi - lo))
            draws = draws.reshape(hi - lo, signs + 2 + nz)
            if signs:
                sign_a = np.where(draws[:, 0] < 0.5, 1.0, -1.0)
                sign_v = np.where(draws[:, 1] < 0.5, 1.0, -1.0)
            else:
                sign_a, sign_v = np.ones(hi - lo), np.where(np.arange(lo, hi) == 0, 1.0, -1.0)
            mag_a = 0.5 + (1.5 - 0.5) * draws[:, signs]
            mag_v = 0.5 + (1.5 - 0.5) * draws[:, signs + 1]
            labels[rows] = np.where(sign_a * sign_v > 0, 1, 0)
            audio[rows], visual[rows] = _block_samples(
                cfg, enhance, (sign_a * mag_a)[:, None] * p, (sign_v * mag_v)[:, None] * q,
                draws[:, signs + 2:])
    return SyntheticDataset(audio, visual, labels, 2)
