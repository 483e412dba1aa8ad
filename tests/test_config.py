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
