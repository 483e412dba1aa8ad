import math
import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from avfusion.classifier import DEFAULT_CLASS_WEIGHTS
from avfusion.config import (ExperimentConfig, config_summary, load_config,
                             parse_config, resolved_class_weights)
from avfusion.errors import InvalidConfig

GOOD = """
# experiment setup
seed = 99
audio.dim = 6
audio.fusion = self
visual.fusion = relation
cross.mode = concat
fbp.k = 2          # inline comment
enhance.mode = meanstd
classifier.classes = 7
data.mode = clustered
data.samples = 70
"""


def test_parse_good_config():
    cfg = parse_config(GOOD)
    assert cfg.seed == 99
    assert cfg.audio_dim == 6
    assert cfg.audio_fusion == "self"
    assert cfg.visual_fusion == "relation"
    assert cfg.cross_mode == "concat"
    assert cfg.fbp_k == 2
    assert cfg.enhance_mode == "meanstd"


def test_defaults_cover_unset_keys():
    cfg = parse_config("seed=1\n")
    assert cfg.fbp_k == 4 and cfg.fbp_o == 64
    assert cfg.fbp_dropout == 0.3
    assert cfg.lr == 0.1
    assert cfg.classes == 7


def test_unknown_key_rejected():
    with pytest.raises(InvalidConfig, match="unknown key"):
        parse_config("nonsense.key=1\n")


def test_duplicate_key_rejected():
    with pytest.raises(InvalidConfig, match="duplicate"):
        parse_config("seed=1\nseed=2\n")


def test_bad_enum_rejected():
    with pytest.raises(InvalidConfig):
        parse_config("cross.mode=average\n")


def test_bad_int_rejected():
    with pytest.raises(InvalidConfig):
        parse_config("seed=abc\n")


def test_missing_equals_rejected():
    with pytest.raises(InvalidConfig, match="key=value"):
        parse_config("just a line\n")


def test_interaction_requires_two_classes():
    with pytest.raises(InvalidConfig, match="binary"):
        parse_config("data.mode=interaction\n")
    cfg = parse_config("data.mode=interaction\nclassifier.classes=2\n")
    assert cfg.classes == 2


def test_class_weights_length_checked():
    with pytest.raises(InvalidConfig, match="class_weights"):
        parse_config("class_weights=0.5,0.5\n")


def test_class_weights_positivity_checked():
    with pytest.raises(InvalidConfig):
        parse_config("classifier.classes=2\nclass_weights=0.5,-0.1\n")


def test_negative_dropout_rejected():
    with pytest.raises(InvalidConfig):
        parse_config("fbp.dropout=1.5\n")


def test_resolved_class_weights_defaults():
    assert resolved_class_weights(ExperimentConfig()) == DEFAULT_CLASS_WEIGHTS
    cfg2 = parse_config("data.mode=interaction\nclassifier.classes=2\n")
    assert resolved_class_weights(cfg2) == (1.0, 1.0)
    cfg3 = parse_config("class_weights=1,2,3,4,5,6,7\n")
    assert resolved_class_weights(cfg3) == (1, 2, 3, 4, 5, 6, 7)


def test_env_seed_override(tmp_path, monkeypatch):
    path = tmp_path / "cfg.txt"
    path.write_text("seed=5\n")
    monkeypatch.setenv("AVF_SEED", "777")
    assert load_config(path).seed == 777
    monkeypatch.delenv("AVF_SEED")
    assert load_config(path).seed == 5


def test_missing_file_is_invalid_config(tmp_path):
    with pytest.raises(InvalidConfig):
        load_config(tmp_path / "absent.cfg")


def test_summary_round_trips_through_parser():
    cfg = parse_config("seed=11\naudio.fusion=relation\nfbp.o=16\n")
    again = parse_config(config_summary(cfg))
    assert again == cfg


def test_the_default_summary_has_every_key_in_field_order():
    assert config_summary(ExperimentConfig()) == """\
seed=12345
audio.dim=8
audio.frames=4
audio.fusion=transformer
visual.dim=8
visual.frames=4
visual.fusion=transformer
cross.mode=fbp
fbp.k=4
fbp.o=64
fbp.dropout=0.3
enhance.mode=none
attn.hidden=8
classifier.classes=7
classifier.lr=0.1
classifier.epochs=150
classifier.batch=0
class_weights=
data.mode=clustered
data.samples=350
data.noise=0.1
tta.rotations=-2,0,2
tta.scales=1,1.03,1.07
patch.grid_h=4
patch.grid_w=4
patch.channels=8"""


def test_a_number_field_takes_ints_and_numpy_floats():
    cfg = ExperimentConfig(lr=1, noise=np.float64(0.05), fbp_dropout=0, tta_scales=(1, 1.5),
                           class_weights=(1,) * 7)
    assert parse_config(config_summary(cfg)) == cfg


@pytest.mark.parametrize("line", ["data.noise=inf", "classifier.lr=nan", "fbp.dropout=-inf",
                                  "class_weights=nan,1,1,1,1,1,1", "tta.scales=1,inf"])
def test_non_finite_numbers_rejected(line):
    with pytest.raises(InvalidConfig, match="finite"):
        parse_config(line + "\n")


# attribute -> the config key its messages name
_POSITIVE = {"audio_dim": "audio.dim", "audio_frames": "audio.frames", "visual_dim": "visual.dim",
             "visual_frames": "visual.frames", "fbp_k": "fbp.k", "fbp_o": "fbp.o",
             "attn_hidden": "attn.hidden", "classes": "classifier.classes",
             "samples": "data.samples", "patch_grid_h": "patch.grid_h",
             "patch_grid_w": "patch.grid_w", "patch_channels": "patch.channels"}
_ENUMS = ("audio_fusion", "visual_fusion", "cross_mode", "enhance_mode", "data_mode")

# (overrides of the default config, message): every rule the config checks
# on construction, and each enum
BAD_CONFIGS = [
    *[({name: "nope"}, "'nope' is not one of") for name in _ENUMS],
    *[({name: 0}, f"{re.escape(key)} must be >= 1") for name, key in _POSITIVE.items()],
    ({"epochs": -1}, "epochs must be >= 0"),
    ({"batch_size": -1}, "classifier.batch must be >= 0"),
    ({"lr": -0.5}, "lr must be >= 0"),
    ({"fbp_dropout": -0.1}, "fbp.dropout must lie in"),
    ({"fbp_dropout": 1.0}, "fbp.dropout must lie in"),
    ({"noise": -1.0}, "data.noise must be >= 0"),
    ({"data_mode": "interaction"}, "interaction data is binary"),
    ({"data_mode": "interaction", "classes": 2, "samples": 1}, "at least one sample per class"),
    ({"samples": 6}, "at least one sample per class"),
    ({"class_weights": (1.0,) * 6}, "class_weights has 6 entries for 7 classes"),
    ({"class_weights": (1.0,) * 6 + (0.0,)}, "strictly positive"),
    ({"class_weights": (1.0,) * 6 + (-2.0,)}, "strictly positive"),
    ({"class_weights": (1.0,) * 6 + (math.nan,)}, "finite"),
    ({"class_weights": (1.0,) * 6 + (math.inf,)}, "finite"),
    ({"tta_rotations": ()}, "must be non-empty"),
    ({"tta_scales": ()}, "must be non-empty"),
    # non-finite numbers, which the parser casts without a check
    ({"lr": math.inf}, "lr must be >= 0 and finite"),
    ({"lr": math.nan}, "lr must be >= 0 and finite"),
    ({"noise": math.inf}, "data.noise must be >= 0 and finite"),
    ({"noise": math.nan}, "data.noise must be >= 0 and finite"),
    ({"fbp_dropout": math.nan}, r"fbp.dropout must lie in \[0, 1\) and be finite"),
    ({"tta_scales": (math.inf,)}, "must be non-empty and finite"),
    ({"tta_rotations": (0.0, math.nan)}, "must be non-empty and finite"),
    ({"tta_rotations": (-math.inf,)}, "must be non-empty and finite"),
    # values of the wrong type, which numpy, the trainer or the report met later
    ({"samples": 20.5, "classes": 2}, "data.samples must be an integer, got 20.5"),
    ({"epochs": 1.5}, "classifier.epochs must be an integer, got 1.5"),
    ({"fbp_k": 2.0}, "fbp.k must be an integer, got 2.0"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"lr": "0.1"}, "classifier.lr must be a number, got '0.1'"),
    ({"lr": False}, "classifier.lr must be a number, got False"),
    ({"class_weights": [1.0] * 7}, r"class_weights must be a tuple of numbers, got \[1.0, "),
    ({"class_weights": ("1",) * 7}, "class_weights must be a tuple of numbers"),
    ({"tta_scales": (1.0, True)}, r"tta.scales must be a tuple of numbers, got \(1.0, True\)"),
    ({"tta_rotations": [0.0]}, "tta.rotations must be a tuple of numbers"),
]


@pytest.mark.parametrize("overrides, message", BAD_CONFIGS,
                         ids=[",".join(f"{k}={v!r}" for k, v in o.items()) for o, _ in BAD_CONFIGS])
def test_every_rule_holds_however_the_config_is_built(overrides, message):
    with pytest.raises(InvalidConfig, match=message):
        ExperimentConfig(**overrides)
    with pytest.raises(InvalidConfig, match=message):
        replace(ExperimentConfig(), **overrides)
    # and a valid config cannot be edited into a bad one
    cfg = ExperimentConfig()
    for name, value in overrides.items():
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, name, value)
