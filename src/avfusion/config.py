"""Experiment configuration: key=value files with dotted keys.

Format: UTF-8 lines, ``#`` starts a comment, blank lines ignored, one
``key=value`` pair per line.  Unknown and duplicate keys are rejected, enum
values are validated at load time.  The env var ``AVF_SEED`` overrides the
seed.  See the README for the full key table.
"""

import math
import os
from dataclasses import dataclass, replace

from .classifier import DEFAULT_CLASS_WEIGHTS
from .errors import InvalidConfig

INTRA_FUSIONS = ("self", "relation", "transformer")
CROSS_FUSIONS = ("fbp", "concat")
ENHANCEMENTS = ("none", "mean", "meanstd", "normfft", "ar_mean")
DATA_MODES = ("clustered", "interaction")


@dataclass
class ExperimentConfig:
    seed: int = 12345
    audio_dim: int = 8
    audio_frames: int = 4
    audio_fusion: str = "transformer"
    visual_dim: int = 8
    visual_frames: int = 4
    visual_fusion: str = "transformer"
    cross_mode: str = "fbp"
    fbp_k: int = 4
    fbp_o: int = 64
    fbp_dropout: float = 0.3
    enhance_mode: str = "none"
    attn_hidden: int = 8
    classes: int = 7
    lr: float = 0.1
    epochs: int = 150
    batch_size: int = 0  # 0 = full batch
    class_weights: tuple = ()  # empty = default for the class count
    data_mode: str = "clustered"
    samples: int = 350
    noise: float = 0.1
    tta_rotations: tuple = (-2.0, 0.0, 2.0)
    tta_scales: tuple = (1.0, 1.03, 1.07)
    patch_grid_h: int = 4
    patch_grid_w: int = 4
    patch_channels: int = 8


def _parse_int(v):
    try:
        return int(v)
    except ValueError:
        raise InvalidConfig(f"expected an integer, got {v!r}") from None


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _parse_float(v):
    try:
        return _finite(v)
    except ValueError:
        raise InvalidConfig(f"expected a finite number, got {v!r}") from None


def _parse_float_list(v):
    try:
        return tuple(_finite(part) for part in v.split(",") if part.strip() != "")
    except ValueError:
        raise InvalidConfig(f"expected comma-separated finite numbers, got {v!r}") from None


def _parse_enum(options):
    def parse(v):
        if v not in options:
            raise InvalidConfig(f"{v!r} is not one of {options}")
        return v
    return parse


# config key -> (attribute, parser)
_KEYS = {
    "seed": ("seed", _parse_int),
    "audio.dim": ("audio_dim", _parse_int),
    "audio.frames": ("audio_frames", _parse_int),
    "audio.fusion": ("audio_fusion", _parse_enum(INTRA_FUSIONS)),
    "visual.dim": ("visual_dim", _parse_int),
    "visual.frames": ("visual_frames", _parse_int),
    "visual.fusion": ("visual_fusion", _parse_enum(INTRA_FUSIONS)),
    "cross.mode": ("cross_mode", _parse_enum(CROSS_FUSIONS)),
    "fbp.k": ("fbp_k", _parse_int),
    "fbp.o": ("fbp_o", _parse_int),
    "fbp.dropout": ("fbp_dropout", _parse_float),
    "enhance.mode": ("enhance_mode", _parse_enum(ENHANCEMENTS)),
    "attn.hidden": ("attn_hidden", _parse_int),
    "classifier.classes": ("classes", _parse_int),
    "classifier.lr": ("lr", _parse_float),
    "classifier.epochs": ("epochs", _parse_int),
    "classifier.batch": ("batch_size", _parse_int),
    "class_weights": ("class_weights", _parse_float_list),
    "data.mode": ("data_mode", _parse_enum(DATA_MODES)),
    "data.samples": ("samples", _parse_int),
    "data.noise": ("noise", _parse_float),
    "tta.rotations": ("tta_rotations", _parse_float_list),
    "tta.scales": ("tta_scales", _parse_float_list),
    "patch.grid_h": ("patch_grid_h", _parse_int),
    "patch.grid_w": ("patch_grid_w", _parse_int),
    "patch.channels": ("patch_channels", _parse_int),
}


def parse_config(text: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfig(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise InvalidConfig(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise InvalidConfig(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        attr, parser = _KEYS[key]
        cfg = replace(cfg, **{attr: parser(value)})
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    positive = ["audio_dim", "audio_frames", "visual_dim", "visual_frames",
                "fbp_k", "fbp_o", "attn_hidden", "classes", "samples",
                "patch_grid_h", "patch_grid_w", "patch_channels"]
    for name in positive:
        if getattr(cfg, name) < 1:
            raise InvalidConfig(f"{name} must be >= 1")
    if cfg.epochs < 0:
        raise InvalidConfig("epochs must be >= 0")
    if cfg.batch_size < 0:
        raise InvalidConfig("classifier.batch must be >= 0 (0 = full batch)")
    if cfg.lr < 0:
        raise InvalidConfig("lr must be >= 0")
    if not (0.0 <= cfg.fbp_dropout < 1.0):
        raise InvalidConfig("fbp.dropout must lie in [0, 1)")
    if cfg.noise < 0:
        raise InvalidConfig("data.noise must be >= 0")
    if cfg.data_mode == "interaction" and cfg.classes != 2:
        raise InvalidConfig("interaction data is binary; set classifier.classes=2")
    if cfg.samples < cfg.classes:
        raise InvalidConfig("need at least one sample per class")
    if cfg.class_weights:
        if len(cfg.class_weights) != cfg.classes:
            raise InvalidConfig(
                f"class_weights has {len(cfg.class_weights)} entries for {cfg.classes} classes")
        if any(w <= 0 for w in cfg.class_weights):
            raise InvalidConfig("class_weights must be strictly positive")
    if not cfg.tta_rotations or not cfg.tta_scales:
        raise InvalidConfig("tta.rotations and tta.scales must be non-empty")


def resolved_class_weights(cfg: ExperimentConfig) -> tuple:
    """Configured weights, or the square-root-frequency default (7 classes) /
    uniform weights for other class counts."""
    if cfg.class_weights:
        return cfg.class_weights
    if cfg.classes == len(DEFAULT_CLASS_WEIGHTS):
        return DEFAULT_CLASS_WEIGHTS
    return tuple(1.0 for _ in range(cfg.classes))


def load_config(path, apply_env: bool = True) -> ExperimentConfig:
    """Parse a config file; AVF_SEED overrides the seed unless disabled."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidConfig(f"cannot read config {path}: {exc}") from None
    cfg = parse_config(text)
    if apply_env and "AVF_SEED" in os.environ:
        cfg = replace(cfg, seed=_parse_int(os.environ["AVF_SEED"]))
    return cfg


def config_summary(cfg: ExperimentConfig) -> str:
    """Canonical key=value rendering (used in reports)."""
    lines = []
    for key, (attr, _) in _KEYS.items():
        value = getattr(cfg, attr)
        if isinstance(value, tuple):
            value = ",".join(repr(v) if not isinstance(v, float) else format(v, "g")
                             for v in value)
        lines.append(f"{key}={value}")
    return "\n".join(lines)
