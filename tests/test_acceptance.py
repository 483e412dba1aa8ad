"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Budgeted criteria assert their own wall-clock limits.
"""

import time
from dataclasses import replace

import numpy as np

from avfusion.attention import POOLS
from avfusion.checks import GRAD_TOL, MODULES, run_module_checks
from avfusion.classifier import (DEFAULT_CLASS_WEIGHTS, ClassScores, ClassWeights,
                                 apply_class_weights)
from avfusion.config import ExperimentConfig
from avfusion.enhance import (ar_mean_rows, enumerate_tta, mean_rows, meanstd_rows,
                              normfft_rows)
from avfusion.experiment import run_experiment
from avfusion.audio import AudioClip, log_mel_3d, speech_spectrogram
from avfusion.fbp import FBPParams, fbp_fuse
from avfusion.rng import Rng
from test_fbp import fbp_expand


def _report(criterion: int, text: str) -> None:
    print(f"\n[PASS] criterion {criterion}: {text}")


def test_criterion_1_gradient_integrity():
    from avfusion.cli import main

    start = time.time()
    results = run_module_checks("all", instances=10)
    assert main(["gradcheck", "--module", "all"]) == 0  # the CLI surface agrees
    elapsed = time.time() - start
    assert set(results) == set(MODULES)
    for name, err in results.items():
        assert err < GRAD_TOL, f"{name} gradcheck failed: {err}"
    assert elapsed < 60.0, f"gradcheck took {elapsed:.1f}s"
    worst = max(results.values())
    _report(1, f"all module gradients < 1e-4 (worst {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_fbp_factorization_equivalence():
    rng = Rng(20_002)
    worst = 0.0
    for _ in range(100):
        m, n = rng.randint(8) + 1, rng.randint(8) + 1
        k, o = rng.randint(4) + 1, rng.randint(3) + 1
        params = FBPParams.init(m, n, k, o, 0.0, rng)
        a, v = rng.normal_vec(m), rng.normal_vec(n)
        z = fbp_fuse(a, v, params).cache.z[0]
        explicit = np.array([a @ w @ v for w in fbp_expand(params)])
        worst = max(worst, float(np.max(np.abs(z - explicit))))
    assert worst < 1e-9
    _report(2, f"100 random factorizations match the explicit bilinear model "
               f"(worst {worst:.2e})")


def _random_attention_instance(seed: int):
    """(rng, (n, d) features, parameters by kind); relation reuses self's w0."""
    rng = Rng(seed)
    n, d = rng.randint(6) + 2, rng.randint(7) + 2
    feats = rng.normal_mat(n, d)
    w0 = rng.uniform_vec(d, -1, 1)
    w1 = rng.uniform_vec(2 * d, -1, 1)
    transformer = (rng.uniform_mat(3, d, -1, 1), rng.normal_vec(3), rng.normal_vec(3))
    return rng, feats, {"self": (w0,), "relation": (w0, w1), "transformer": transformer}


def _pool_one(kind: str, feats: np.ndarray, params) -> np.ndarray:
    """One (n, d) set pooled by ``POOLS[kind]`` at B=1."""
    pooled, _ = POOLS[kind][1](feats[None], *params)
    return pooled[0]


def test_criterion_3_attention_invariants():
    instances = 200
    for i in range(instances):
        rng, feats, params = _random_attention_instance(30_000 + i)
        pooled = {kind: _pool_one(kind, feats, ps) for kind, ps in params.items()}

        # permutation invariance within 1e-12
        perm = list(range(len(feats)))
        rng.shuffle(perm)
        for kind, ps in params.items():
            assert np.max(np.abs(_pool_one(kind, feats[perm], ps) - pooled[kind])) < 1e-12

        # n=1 identity, exact
        single = feats[:1]
        assert np.array_equal(_pool_one("self", single, params["self"]), feats[0])
        assert np.array_equal(_pool_one("relation", single, params["relation"]),
                              np.concatenate([feats[0], feats[0]]))
        assert np.array_equal(_pool_one("transformer", single, params["transformer"]),
                              feats[0])

        # convex hull containment for the d-dimensional poolers
        lo = feats.min(axis=0) - 1e-12
        hi = feats.max(axis=0) + 1e-12
        for kind in ("self", "transformer"):
            assert np.all(pooled[kind] >= lo) and np.all(pooled[kind] <= hi)

        # relation trailing block equals the self-attention global vector
        assert np.array_equal(pooled["relation"][feats.shape[1]:], pooled["self"])
    _report(3, f"permutation/identity/hull/trailing-block invariants over "
               f"{instances} instances")


def test_criterion_4_bilinear_interaction_experiment():
    base = ExperimentConfig(seed=777, data_mode="interaction", samples=2000,
                            classes=2, audio_dim=6, visual_dim=6,
                            audio_frames=3, visual_frames=3, epochs=80, lr=0.5,
                            fbp_k=2, fbp_o=8, fbp_dropout=0.0,
                            audio_fusion="self", visual_fusion="self", noise=0.1)
    start = time.time()
    acc_concat = run_experiment(replace(base, cross_mode="concat")).metrics.accuracy
    acc_fbp = run_experiment(replace(base, cross_mode="fbp")).metrics.accuracy
    elapsed = time.time() - start
    assert acc_concat <= 0.60, f"concat fusion reached {acc_concat}"
    assert acc_fbp >= 0.90, f"fbp fusion only reached {acc_fbp}"
    assert elapsed < 300.0, f"experiment took {elapsed:.0f}s"
    _report(4, f"interaction data: concat {acc_concat:.3f} <= 0.60 < 0.90 <= "
               f"fbp {acc_fbp:.3f} ({elapsed:.0f}s)")


def test_criterion_5_audio_frontend():
    sr = 16000
    t = np.arange(sr) / sr
    tone = AudioClip(samples=0.5 * np.sin(2 * np.pi * 1000.0 * t), sample_rate=sr)
    spec = speech_spectrogram(tone)
    assert (spec.frames, spec.bins) == (97, 200)
    assert np.all(np.argmax(spec.values, axis=1) == 64)
    cube = log_mel_3d(tone, bands=40)
    assert cube.values.shape == (40, 97, 3)
    const = AudioClip(samples=np.full(sr, 0.25), sample_rate=sr)
    const_cube = log_mel_3d(const, bands=40)
    assert np.all(const_cube.values[:, :, 1] == 0.0)  # delta
    assert np.all(const_cube.values[:, :, 2] == 0.0)  # delta-delta
    _report(5, "97x200 spectrogram, 40x97x3 mel cube, 1 kHz peak at bin 64, "
               "zero deltas on constant input")


def test_criterion_6_class_reweighting():
    weights = ClassWeights(np.array(DEFAULT_CLASS_WEIGHTS))
    uniform_probs = ClassScores(probs=np.full(7, 1.0 / 7.0))
    _, predicted = apply_class_weights(uniform_probs, weights)
    assert predicted == 6

    rng = Rng(60_006)
    uniform_weights = ClassWeights(np.full(7, 0.5))
    for _ in range(1000):
        probs = rng.uniform_vec(7, 1e-3, 1.0)
        probs /= np.sum(probs)
        _, pred = apply_class_weights(ClassScores(probs=probs), uniform_weights)
        assert pred == int(np.argmax(probs))
    _report(6, "square-root-frequency weights pick index 6 on uniform scores; "
               "uniform weights never move the argmax (1000 cases)")


def test_criterion_7_enhancement_aggregators():
    assert len(enumerate_tta()) == 18
    rng = Rng(70_007)
    for _ in range(50):
        n, d = rng.randint(17) + 2, rng.randint(7) + 2
        bag = rng.normal_mat(n, d)
        mean = mean_rows(bag[None])
        meanstd = meanstd_rows(bag[None])
        normfft = normfft_rows(bag[:1])
        ar = ar_mean_rows(mean, mean)
        assert mean.shape == (1, d)
        assert meanstd.shape == (1, 2 * d)
        assert normfft.shape == (1, 2 * d)
        assert ar.shape == (1, 2 * d)
        assert abs(np.linalg.norm(normfft) - 1.0) < 1e-9

        perm = list(range(n))
        rng.shuffle(perm)
        shuffled = bag[perm][None]
        assert np.max(np.abs(mean_rows(shuffled) - mean)) < 1e-12
        assert np.max(np.abs(meanstd_rows(shuffled) - meanstd)) < 1e-12

        identical = np.tile(bag[0], (18, 1))[None]
        assert np.max(np.abs(meanstd_rows(identical)[:, d:])) < 1e-12
    _report(7, "aggregator dimension contracts, permutation invariance, "
               "zero std on identical bags, unit-norm FFT, 18 default transforms")


def test_criterion_8_training_determinism(tmp_path):
    cfg = ExperimentConfig(seed=80_008, data_mode="clustered", samples=70,
                           classes=7, audio_dim=5, visual_dim=5, audio_frames=3,
                           visual_frames=3, epochs=25, lr=0.5, fbp_k=2, fbp_o=12,
                           fbp_dropout=0.25, attn_hidden=4, noise=0.1)
    run_experiment(cfg, out_dir=tmp_path / "r1")
    run_experiment(cfg, out_dir=tmp_path / "r2")
    for name in ("checkpoint.bin", "report.txt", "confusion.csv"):
        b1 = (tmp_path / "r1" / name).read_bytes()
        b2 = (tmp_path / "r2" / name).read_bytes()
        assert b1 == b2, f"{name} differs between identical runs"
    _report(8, "repeated training runs produce byte-identical checkpoints "
               "and metrics")
