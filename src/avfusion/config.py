"""Experiment configuration: key=value files with dotted keys.

Format: UTF-8 lines, ``#`` starts a comment, blank lines ignored, one
``key=value`` pair per line.  Each ``ExperimentConfig`` field declares its
key once, with ``_key``, and with it its ``least`` value or its ``options``;
its annotation picks the cast and the type rule, and ``_KEYS`` is derived
from the fields.  The parser rejects unknown and duplicate keys and values
that do not cast.  ``ExperimentConfig``, a frozen dataclass, checks every
other rule, types and finiteness included, each time one is built (directly,
by ``dataclasses.replace`` or from a file); each message names the key.  The
env var ``AVF_SEED`` overrides the seed.  See the README for the key table.
"""

import math
import os
from dataclasses import dataclass, field, fields, replace

from .attention import POOLS
from .classifier import DEFAULT_CLASS_WEIGHTS
from .enhance import DEFAULT_ROTATIONS, DEFAULT_SCALES
from .errors import InvalidConfig

INTRA_FUSIONS = tuple(POOLS)
CROSS_FUSIONS = ("fbp", "concat")
ENHANCEMENTS = ("none", "mean", "meanstd", "normfft", "ar_mean")
DATA_MODES = ("clustered", "interaction")


# field annotation -> (cast of a file's value, the Python types a value may have, their name)
_KINDS = {
    int: (int, int, "an integer"),
    float: (float, (int, float), "a number"),
    tuple: (lambda text: tuple(float(part) for part in text.split(",") if part.strip() != ""),
            tuple, "a tuple of numbers"),
    str: (str, str, "a string"),
}


def _cast(kind, text: str, name: str):
    """``text`` cast to a ``kind`` value; a ValueError becomes InvalidConfig naming ``name``."""
    cast, _, what = _KINDS[kind]
    try:
        return cast(text)
    except ValueError:
        raise InvalidConfig(f"{name} must be {what}, got {text!r}") from None


def _typed(value, types) -> bool:
    """``isinstance(value, types)``, refusing bools, and a tuple's items numbers."""
    if isinstance(value, bool) or not isinstance(value, types):
        return False
    return types is not tuple or all(_typed(v, (int, float)) for v in value)


def _key(key: str, default, **rule):
    """A field declared by its config key, with its ``least`` value or ``options``."""
    return field(default=default, metadata={"key": key, **rule})


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = _key("seed", 12345)
    audio_dim: int = _key("audio.dim", 8, least=1)
    audio_frames: int = _key("audio.frames", 4, least=1)
    audio_fusion: str = _key("audio.fusion", "transformer", options=INTRA_FUSIONS)
    visual_dim: int = _key("visual.dim", 8, least=1)
    visual_frames: int = _key("visual.frames", 4, least=1)
    visual_fusion: str = _key("visual.fusion", "transformer", options=INTRA_FUSIONS)
    cross_mode: str = _key("cross.mode", "fbp", options=CROSS_FUSIONS)
    fbp_k: int = _key("fbp.k", 4, least=1)
    fbp_o: int = _key("fbp.o", 64, least=1)
    fbp_dropout: float = _key("fbp.dropout", 0.3)
    enhance_mode: str = _key("enhance.mode", "none", options=ENHANCEMENTS)
    attn_hidden: int = _key("attn.hidden", 8, least=1)
    classes: int = _key("classifier.classes", 7, least=1)
    lr: float = _key("classifier.lr", 0.1)
    epochs: int = _key("classifier.epochs", 150, least=0)
    batch_size: int = _key("classifier.batch", 0, least=0)  # 0 = full batch
    class_weights: tuple = _key("class_weights", ())  # empty = default for the class count
    data_mode: str = _key("data.mode", "clustered", options=DATA_MODES)
    samples: int = _key("data.samples", 350, least=1)
    noise: float = _key("data.noise", 0.1)
    tta_rotations: tuple = _key("tta.rotations", DEFAULT_ROTATIONS)
    tta_scales: tuple = _key("tta.scales", DEFAULT_SCALES)
    patch_grid_h: int = _key("patch.grid_h", 4, least=1)
    patch_grid_w: int = _key("patch.grid_w", 4, least=1)
    patch_channels: int = _key("patch.channels", 8, least=1)

    def __post_init__(self):
        for name, key, types, what, least, options in _RULES:
            value = getattr(self, name)
            if not _typed(value, types):
                raise InvalidConfig(f"{key} must be {what}, got {value!r}")
            if options is not None and value not in options:
                raise InvalidConfig(f"{key}: {value!r} is not one of {options}")
            if least is not None and value < least:
                raise InvalidConfig(f"{key} must be >= {least}")
        # each range test below is False for NaN
        if not 0.0 <= self.lr < math.inf:
            raise InvalidConfig("classifier.lr must be >= 0 and finite")
        if not 0.0 <= self.fbp_dropout < 1.0:
            raise InvalidConfig("fbp.dropout must lie in [0, 1) and be finite")
        if not 0.0 <= self.noise < math.inf:
            raise InvalidConfig("data.noise must be >= 0 and finite")
        if self.data_mode == "interaction" and self.classes != 2:
            raise InvalidConfig("interaction data is binary; set classifier.classes=2")
        if self.samples < self.classes:
            raise InvalidConfig("data.samples must be >= classifier.classes: "
                                "need at least one sample per class")
        if self.class_weights:
            if len(self.class_weights) != self.classes:
                raise InvalidConfig(f"class_weights has {len(self.class_weights)} entries "
                                    f"for {self.classes} classes")
            if not all(0.0 < w < math.inf for w in self.class_weights):
                raise InvalidConfig("class_weights must be finite and strictly positive")
        if not (self.tta_rotations and self.tta_scales
                and all(map(math.isfinite, (*self.tta_rotations, *self.tta_scales)))):
            raise InvalidConfig("tta.rotations and tta.scales must be non-empty and finite")


# (attribute, key, value types, their name, least, options) per field, and
# config key -> (attribute, annotation); both in field order
_RULES = tuple((f.name, f.metadata["key"], *_KINDS[f.type][1:], f.metadata.get("least"),
                f.metadata.get("options")) for f in fields(ExperimentConfig))
_KEYS = {f.metadata["key"]: (f.name, f.type) for f in fields(ExperimentConfig)}


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
        attr, kind = _KEYS[key]
        if attr in values:
            raise InvalidConfig(f"line {lineno}: duplicate key {key!r}")
        values[attr] = _cast(kind, value, f"line {lineno}: {key}")
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
        cfg = replace(cfg, seed=_cast(int, os.environ["AVF_SEED"], "AVF_SEED"))
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
