"""Command-line experiment harness.

Subcommands: spectrogram, fuse, train, eval, gradcheck, synth.  Every
command exits 0 on success and 1 with a one-line diagnostic on invalid input,
usage errors included.  The env var AVF_SEED overrides the config seed.
"""

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .audio import PatchEmbedParams, patch_embed, read_wav, speech_spectrogram, log_mel_3d
from .checks import GRAD_TOL, MODULES, run_module_checks
from .config import load_config
from .errors import AvfusionError
from .experiment import (FusionPipeline, evaluate_pipeline, experiment_rngs,
                         prepare_dataset, run_experiment)
from .featfile import load_checkpoint, load_features, save_features


def _cmd_spectrogram(args) -> int:
    clip = read_wav(args.wav)
    if args.mel:
        cube = log_mel_3d(clip)
        # one row per frame: [static : delta : delta-delta] per band
        rows = np.hstack([cube.values[:, :, c].T for c in range(3)])
    else:
        rows = speech_spectrogram(clip).values
    save_features(args.out, rows)
    print(f"wrote {rows.shape[0]}x{rows.shape[1]} features to {args.out}")
    return 0


def _load_modality(path, cfg, rng):
    """(n, d) feature set of a feature file, or of a WAV routed through
    spectrogram + patch embedding."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == b"RIFF":
        spec = speech_spectrogram(read_wav(path))
        patch_h = spec.frames // cfg.patch_grid_h
        patch_w = spec.bins // cfg.patch_grid_w
        params = PatchEmbedParams.init(cfg.patch_grid_h, cfg.patch_grid_w,
                                       patch_h, patch_w, cfg.patch_channels, rng)
        return patch_embed(spec, params)[0]
    return load_features(path)


def _cmd_fuse(args) -> int:
    cfg = load_config(args.config)
    rng = experiment_rngs(cfg.seed)["init"]
    audio = _load_modality(args.audio, cfg, rng)[None]
    visual = _load_modality(args.visual, cfg, rng)[None]
    # stages sized to the inputs; the classifier is drawn last and not used
    model = FusionPipeline(replace(cfg, audio_dim=audio.shape[2], visual_dim=visual.shape[2],
                                   enhance_mode="none"), rng)
    audio, visual, _ = model.check_rows(audio, visual)
    fused = model.fuse_rows(audio, visual)[0]
    save_features(args.out, fused.reshape(1, -1))
    print(f"wrote fused vector of dim {fused.shape[0]} to {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    result = run_experiment(cfg, out_dir=args.out_dir, train_on_all=args.train_on_all)
    print(f"accuracy={result.metrics.accuracy!r}")
    print(f"report={result.report_path}")
    print(f"checkpoint={result.checkpoint_path}")
    return 0


def _cmd_eval(args) -> int:
    cfg = load_config(args.config)
    dataset, _, test_idx, rngs = prepare_dataset(cfg)
    model = FusionPipeline(cfg, rngs["init"])
    model.set_tensors(load_checkpoint(args.checkpoint))
    metrics = evaluate_pipeline(model, dataset, test_idx)
    print(f"accuracy={metrics.accuracy!r}")
    for c, r in enumerate(metrics.per_class_recall):
        print(f"recall.{c}={float(r)!r}")
    for c, row in enumerate(metrics.confusion):
        print(f"confusion.{c}=" + ",".join(str(int(v)) for v in row))
    for c, p in enumerate(metrics.per_class_precision):
        print(f"precision.{c}={float(p)!r}")
    return 0


def _cmd_gradcheck(args) -> int:
    results = run_module_checks(args.module)
    failed = False
    for name, err in results.items():
        status = "PASS" if err < GRAD_TOL else "FAIL"
        failed = failed or status == "FAIL"
        print(f"{name}: max_rel_err={err:.3e} {status}")
    return 1 if failed else 0


def _cmd_synth(args) -> int:
    cfg = load_config(args.config)
    dataset, _, _, _ = prepare_dataset(cfg)
    os.makedirs(os.path.join(args.out, "audio"), exist_ok=True)
    os.makedirs(os.path.join(args.out, "visual"), exist_ok=True)
    with open(os.path.join(args.out, "labels.tsv"), "w", encoding="utf-8") as fh:
        for i, (audio_fs, visual_fs, label) in enumerate(dataset.samples):
            save_features(os.path.join(args.out, "audio", f"{i:06d}.avf"), audio_fs)
            save_features(os.path.join(args.out, "visual", f"{i:06d}.avf"), visual_fs)
            fh.write(f"{i:06d}\t{label}\n")
    print(f"wrote {len(dataset.samples)} samples to {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error, so ``main`` prints it as one line and returns 1."""

    def error(self, message):
        raise AvfusionError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="avfusion",
        description="Audio-visual feature fusion experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrogram", help="WAV to speech spectrogram (or mel cube)")
    p.add_argument("wav")
    p.add_argument("--out", required=True)
    p.add_argument("--mel", action="store_true",
                   help="log-mel with deltas instead of the speech spectrogram")
    p.set_defaults(func=_cmd_spectrogram)

    p = sub.add_parser("fuse", help="fuse one audio and one visual input")
    p.add_argument("--config", required=True)
    p.add_argument("--audio", required=True, help="feature file or WAV")
    p.add_argument("--visual", required=True, help="feature file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("train", help="train a fusion pipeline on synthetic data")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--train-on-all", action="store_true",
                   help="train on the full dataset instead of the 80%% split")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the config's test split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient validation")
    p.add_argument("--module", default="all", choices=("all",) + MODULES)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("synth", help="write a synthetic dataset to a directory")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    # every ValueError the package raises is an input check, like NonFiniteValue
    except (AvfusionError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
