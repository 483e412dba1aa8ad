import math
from dataclasses import FrozenInstanceError, replace

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


@pytest.mark.parametrize("line", ["data.noise=inf", "classifier.lr=nan", "fbp.dropout=-inf",
                                  "class_weights=nan,1,1,1,1,1,1", "tta.scales=1,inf"])
def test_non_finite_numbers_rejected(line):
    with pytest.raises(InvalidConfig, match="finite"):
        parse_config(line + "\n")


_POSITIVE = ("audio_dim", "audio_frames", "visual_dim", "visual_frames", "fbp_k", "fbp_o",
             "attn_hidden", "classes", "samples", "patch_grid_h", "patch_grid_w",
             "patch_channels")
_ENUMS = ("audio_fusion", "visual_fusion", "cross_mode", "enhance_mode", "data_mode")

# (overrides of the default config, message): every rule the config checks
# on construction, and each enum
BAD_CONFIGS = [
    *[({name: "nope"}, "'nope' is not one of") for name in _ENUMS],
    *[({name: 0}, f"{name} must be >= 1") for name in _POSITIVE],
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
