"""Experiment configuration: key=value files with dotted keys.

Format: UTF-8 lines, ``#`` starts a comment, blank lines ignored, one
``key=value`` pair per line.  The parser rejects unknown and duplicate keys
and values that do not cast; every other rule, finiteness included, is
checked by ``ExperimentConfig``, a frozen dataclass, each time one is built
(directly, by ``dataclasses.replace`` or from a file).  The
env var ``AVF_SEED`` overrides the seed.  See the README for the key table.
"""

import math
import os
from dataclasses import dataclass, replace

from .attention import POOLS
from .classifier import DEFAULT_CLASS_WEIGHTS
from .enhance import DEFAULT_ROTATIONS, DEFAULT_SCALES
from .errors import InvalidConfig

INTRA_FUSIONS = tuple(POOLS)
CROSS_FUSIONS = ("fbp", "concat")
ENHANCEMENTS = ("none", "mean", "meanstd", "normfft", "ar_mean")
DATA_MODES = ("clustered", "interaction")


@dataclass(frozen=True)
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
    tta_rotations: tuple = DEFAULT_ROTATIONS
    tta_scales: tuple = DEFAULT_SCALES
    patch_grid_h: int = 4
    patch_grid_w: int = 4
    patch_channels: int = 8

    def __post_init__(self):
        for name, options in (("audio_fusion", INTRA_FUSIONS), ("visual_fusion", INTRA_FUSIONS),
                              ("cross_mode", CROSS_FUSIONS), ("enhance_mode", ENHANCEMENTS),
                              ("data_mode", DATA_MODES)):
            if getattr(self, name) not in options:
                raise InvalidConfig(f"{name}: {getattr(self, name)!r} is not one of {options}")
        for name in ("audio_dim", "audio_frames", "visual_dim", "visual_frames", "fbp_k", "fbp_o",
                     "attn_hidden", "classes", "samples", "patch_grid_h", "patch_grid_w",
                     "patch_channels"):
            if getattr(self, name) < 1:
                raise InvalidConfig(f"{name} must be >= 1")
        if self.epochs < 0:
            raise InvalidConfig("epochs must be >= 0")
        if self.batch_size < 0:
            raise InvalidConfig("classifier.batch must be >= 0 (0 = full batch)")
        # each range test below is False for NaN
        if not 0.0 <= self.lr < math.inf:
            raise InvalidConfig("lr must be >= 0 and finite")
        if not 0.0 <= self.fbp_dropout < 1.0:
            raise InvalidConfig("fbp.dropout must lie in [0, 1) and be finite")
        if not 0.0 <= self.noise < math.inf:
            raise InvalidConfig("data.noise must be >= 0 and finite")
        if self.data_mode == "interaction" and self.classes != 2:
            raise InvalidConfig("interaction data is binary; set classifier.classes=2")
        if self.samples < self.classes:
            raise InvalidConfig("need at least one sample per class")
        if self.class_weights:
            if len(self.class_weights) != self.classes:
                raise InvalidConfig(f"class_weights has {len(self.class_weights)} entries "
                                    f"for {self.classes} classes")
            if not all(0.0 < w < math.inf for w in self.class_weights):
                raise InvalidConfig("class_weights must be finite and strictly positive")
        if not (self.tta_rotations and self.tta_scales
                and all(map(math.isfinite, (*self.tta_rotations, *self.tta_scales)))):
            raise InvalidConfig("tta.rotations and tta.scales must be non-empty and finite")


def _parser(cast, what: str):
    """A value parser: ``cast(text)``, with its ValueError as InvalidConfig."""
    def parse(text: str):
        try:
            return cast(text)
        except ValueError:
            raise InvalidConfig(f"expected {what}, got {text!r}") from None
    return parse


_parse_int = _parser(int, "an integer")
_parse_float = _parser(float, "a number")
_parse_float_list = _parser(
    lambda text: tuple(float(part) for part in text.split(",") if part.strip() != ""),
    "comma-separated numbers")


# config key -> (attribute, parser)
_KEYS = {
    "seed": ("seed", _parse_int),
    "audio.dim": ("audio_dim", _parse_int),
    "audio.frames": ("audio_frames", _parse_int),
    "audio.fusion": ("audio_fusion", str),
    "visual.dim": ("visual_dim", _parse_int),
    "visual.frames": ("visual_frames", _parse_int),
    "visual.fusion": ("visual_fusion", str),
    "cross.mode": ("cross_mode", str),
    "fbp.k": ("fbp_k", _parse_int),
    "fbp.o": ("fbp_o", _parse_int),
    "fbp.dropout": ("fbp_dropout", _parse_float),
    "enhance.mode": ("enhance_mode", str),
    "attn.hidden": ("attn_hidden", _parse_int),
    "classifier.classes": ("classes", _parse_int),
    "classifier.lr": ("lr", _parse_float),
    "classifier.epochs": ("epochs", _parse_int),
    "classifier.batch": ("batch_size", _parse_int),
    "class_weights": ("class_weights", _parse_float_list),
    "data.mode": ("data_mode", str),
    "data.samples": ("samples", _parse_int),
    "data.noise": ("noise", _parse_float),
    "tta.rotations": ("tta_rotations", _parse_float_list),
    "tta.scales": ("tta_scales", _parse_float_list),
    "patch.grid_h": ("patch_grid_h", _parse_int),
    "patch.grid_w": ("patch_grid_w", _parse_int),
    "patch.channels": ("patch_channels", _parse_int),
}


def parse_config(text: str) -> ExperimentConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfig(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise InvalidConfig(f"line {lineno}: unknown key {key!r}")
        attr, parser = _KEYS[key]
        if attr in values:
            raise InvalidConfig(f"line {lineno}: duplicate key {key!r}")
        values[attr] = parser(value)
    return ExperimentConfig(**values)


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
    except (OSError, UnicodeDecodeError) as exc:
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
