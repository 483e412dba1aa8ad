import struct

import numpy as np
import pytest

from avfusion.audio import AudioClip, write_wav
from avfusion.cli import main
from avfusion.featfile import load_features, save_features
from avfusion.features import FeatureSet
from avfusion.rng import Rng

CFG_SMALL = """
seed=71
data.mode=clustered
data.samples=35
classifier.classes=7
classifier.epochs=10
audio.dim=4
visual.dim=4
audio.frames=2
visual.frames=2
fbp.k=2
fbp.o=8
attn.hidden=3
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CFG_SMALL)
    return path


@pytest.fixture
def wav_path(tmp_path):
    sr = 16000
    t = np.arange(sr) / sr
    clip = AudioClip(samples=0.4 * np.sin(2 * np.pi * 440 * t), sample_rate=sr)
    path = tmp_path / "tone.wav"
    write_wav(path, clip)
    return path


class TestSpectrogram:
    def test_writes_speech_spectrogram(self, wav_path, tmp_path, capsys):
        out = tmp_path / "spec.avf"
        assert main(["spectrogram", str(wav_path), "--out", str(out)]) == 0
        fs = load_features(out)
        assert (fs.n, fs.dim) == (97, 200)

    def test_mel_flag(self, wav_path, tmp_path):
        out = tmp_path / "mel.avf"
        assert main(["spectrogram", str(wav_path), "--out", str(out), "--mel"]) == 0
        fs = load_features(out)
        assert (fs.n, fs.dim) == (97, 120)  # 40 bands x 3 channels per frame

    def test_missing_wav_fails_with_diagnostic(self, tmp_path, capsys):
        rc = main(["spectrogram", str(tmp_path / "none.wav"),
                   "--out", str(tmp_path / "o.avf")])
        assert rc != 0
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1


class TestFuse:
    def test_fuse_feature_files(self, cfg_path, tmp_path):
        rng = Rng(72)
        save_features(tmp_path / "a.avf", FeatureSet(rng.normal_mat(3, 4)))
        save_features(tmp_path / "v.avf", FeatureSet(rng.normal_mat(5, 4)))
        out = tmp_path / "fused.avf"
        rc = main(["fuse", "--config", str(cfg_path), "--audio", str(tmp_path / "a.avf"),
                   "--visual", str(tmp_path / "v.avf"), "--out", str(out)])
        assert rc == 0
        fused = load_features(out)
        assert (fused.n, fused.dim) == (1, 8)  # fbp.o from the config

    def test_fuse_accepts_wav_audio(self, cfg_path, wav_path, tmp_path):
        rng = Rng(73)
        save_features(tmp_path / "v.avf", FeatureSet(rng.normal_mat(5, 4)))
        out = tmp_path / "fused.avf"
        rc = main(["fuse", "--config", str(cfg_path), "--audio", str(wav_path),
                   "--visual", str(tmp_path / "v.avf"), "--out", str(out)])
        assert rc == 0
        assert load_features(out).dim == 8

    def test_corrupt_feature_file_fails(self, cfg_path, tmp_path, capsys):
        (tmp_path / "bad.avf").write_bytes(b"garbage")
        rc = main(["fuse", "--config", str(cfg_path), "--audio", str(tmp_path / "bad.avf"),
                   "--visual", str(tmp_path / "bad.avf"), "--out", str(tmp_path / "o.avf")])
        assert rc != 0
        assert capsys.readouterr().err.startswith("error:")


class TestTrainEval:
    def test_train_then_eval_round_trip(self, cfg_path, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 0
        train_out = capsys.readouterr().out
        assert "accuracy=" in train_out
        assert (out_dir / "report.txt").exists()
        assert (out_dir / "confusion.csv").exists()
        rc = main(["eval", "--checkpoint", str(out_dir / "checkpoint.bin"),
                   "--config", str(cfg_path)])
        assert rc == 0
        eval_out = capsys.readouterr().out
        train_acc = train_out.splitlines()[0].split("=", 1)[1]
        eval_acc = eval_out.splitlines()[0].split("=", 1)[1]
        assert train_acc == eval_acc

    def test_invalid_config_fails(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("unknown.key=1\n")
        rc = main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc != 0
        assert capsys.readouterr().err.startswith("error:")

    def test_env_seed_override(self, cfg_path, tmp_path, monkeypatch, capsys):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        monkeypatch.setenv("AVF_SEED", "424242")
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(out1)]) == 0
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(out2)]) == 0
        assert (out1 / "checkpoint.bin").read_bytes() == (out2 / "checkpoint.bin").read_bytes()
        monkeypatch.delenv("AVF_SEED")
        out3 = tmp_path / "r3"
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(out3)]) == 0
        assert (out1 / "checkpoint.bin").read_bytes() != (out3 / "checkpoint.bin").read_bytes()


class TestGradcheckCommand:
    def test_single_module(self, capsys):
        assert main(["gradcheck", "--module", "self"]) == 0
        out = capsys.readouterr().out
        assert "self: max_rel_err=" in out
        assert "PASS" in out

    def test_all_modules(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        for name in ("self", "relation", "transformer", "fbp", "classifier", "patch"):
            assert f"{name}: max_rel_err=" in out
        assert "FAIL" not in out


class TestErrorSurface:
    def test_unknown_gradcheck_module_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--module", "everything"])
        assert exc.value.code != 0

    def test_eval_with_corrupt_checkpoint_fails(self, cfg_path, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"not a checkpoint")
        rc = main(["eval", "--checkpoint", str(bad), "--config", str(cfg_path)])
        assert rc != 0
        assert capsys.readouterr().err.startswith("error:")


def _single_error_line(capsys) -> bool:
    err = capsys.readouterr().err
    return err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


class TestNonFiniteAndBadNames:
    def test_fuse_with_nan_feature_file(self, cfg_path, tmp_path, capsys):
        values = np.array([[1.0, np.nan, 0.5, 2.0]], dtype="<f4")
        (tmp_path / "nan.avf").write_bytes(b"AVF1" + struct.pack("<II", 1, 4) + values.tobytes())
        save_features(tmp_path / "v.avf", FeatureSet(np.ones((2, 4))))
        rc = main(["fuse", "--config", str(cfg_path), "--audio", str(tmp_path / "nan.avf"),
                   "--visual", str(tmp_path / "v.avf"), "--out", str(tmp_path / "o.avf")])
        assert rc == 1
        assert _single_error_line(capsys)

    @pytest.mark.parametrize("line", ["class_weights=nan,1,1,1,1,1,1", "data.noise=inf"])
    def test_train_with_non_finite_config_value(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CFG_SMALL + line + "\n")
        rc = main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert _single_error_line(capsys)

    def test_eval_with_checkpoint_name_that_is_not_utf8(self, cfg_path, tmp_path, capsys):
        bad = tmp_path / "name.bin"
        body = struct.pack("<H", 2) + b"\xc3\x28" + struct.pack("<II", 1, 1) + b"\x00" * 8
        bad.write_bytes(b"AVFCKPT1" + body)
        rc = main(["eval", "--checkpoint", str(bad), "--config", str(cfg_path)])
        assert rc == 1
        assert _single_error_line(capsys)


class TestSynth:
    def test_writes_dataset_files(self, cfg_path, tmp_path):
        out = tmp_path / "data"
        assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
        labels = (out / "labels.tsv").read_text().splitlines()
        assert len(labels) == 35
        fs = load_features(out / "audio" / "000000.avf")
        assert (fs.n, fs.dim) == (2, 4)
        assert load_features(out / "visual" / "000034.avf").n == 2
