import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from avfusion.audio import AudioClip, write_wav
from avfusion.cli import main
from avfusion.featfile import load_features, save_features
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
        assert fs.shape == (97, 200)

    def test_mel_flag(self, wav_path, tmp_path):
        out = tmp_path / "mel.avf"
        assert main(["spectrogram", str(wav_path), "--out", str(out), "--mel"]) == 0
        fs = load_features(out)
        assert fs.shape == (97, 120)  # 40 bands x 3 channels per frame

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
        save_features(tmp_path / "a.avf", rng.normal_mat(3, 4))
        save_features(tmp_path / "v.avf", rng.normal_mat(5, 4))
        out = tmp_path / "fused.avf"
        rc = main(["fuse", "--config", str(cfg_path), "--audio", str(tmp_path / "a.avf"),
                   "--visual", str(tmp_path / "v.avf"), "--out", str(out)])
        assert rc == 0
        fused = load_features(out)
        assert fused.shape == (1, 8)  # fbp.o from the config

    def test_fuse_accepts_wav_audio(self, cfg_path, wav_path, tmp_path):
        rng = Rng(73)
        save_features(tmp_path / "v.avf", rng.normal_mat(5, 4))
        out = tmp_path / "fused.avf"
        rc = main(["fuse", "--config", str(cfg_path), "--audio", str(wav_path),
                   "--visual", str(tmp_path / "v.avf"), "--out", str(out)])
        assert rc == 0
        assert load_features(out).shape[1] == 8

    def test_corrupt_feature_file_fails(self, cfg_path, tmp_path, capsys):
        (tmp_path / "bad.avf").write_bytes(b"garbage")
        rc = main(["fuse", "--config", str(cfg_path), "--audio", str(tmp_path / "bad.avf"),
                   "--visual", str(tmp_path / "bad.avf"), "--out", str(tmp_path / "o.avf")])
        assert rc != 0
        assert capsys.readouterr().err.startswith("error:")


class TestFuseConcat:
    """``fuse`` with cross.mode=concat: a single feature pools to itself exactly."""

    def _fuse(self, tmp_path, audio_fusion, visual_fusion, a, v):
        cfg = tmp_path / "concat.cfg"
        cfg.write_text(f"cross.mode=concat\naudio.fusion={audio_fusion}\n"
                       f"visual.fusion={visual_fusion}\n")
        save_features(tmp_path / "a.avf", a)
        save_features(tmp_path / "v.avf", v)
        out = tmp_path / "fused.avf"
        rc = main(["fuse", "--config", str(cfg), "--audio", str(tmp_path / "a.avf"),
                   "--visual", str(tmp_path / "v.avf"), "--out", str(out)])
        assert rc == 0
        return out.read_bytes()[12:]  # float32 payload after magic, n and dim

    @pytest.mark.parametrize("fusion", ["self", "transformer"])
    def test_basic(self, fusion, tmp_path):
        rng = Rng(74)
        a, v = rng.normal_mat(1, 3), rng.normal_mat(1, 5)
        got = self._fuse(tmp_path, fusion, fusion, a, v)
        # [a : v] in order, not normalized
        assert got == np.concatenate([a, v], axis=1).astype("<f4").tobytes()

    def test_relation_audio_repeats_its_global_vector(self, tmp_path):
        rng = Rng(75)
        a, v = rng.normal_mat(1, 3), rng.normal_mat(1, 5)
        got = self._fuse(tmp_path, "relation", "self", a, v)
        assert got == np.concatenate([a, a, v], axis=1).astype("<f4").tobytes()

    def test_saturated_self_gates_pool_to_the_set(self, tmp_path, capsys):
        # every gate of 1e30 features against the default seed's w0 underflows
        # to 0; the set still pools to its (common) feature, with no warning
        a, v = np.full((2, 3), 1e30), Rng(76).normal_mat(1, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = self._fuse(tmp_path, "self", "self", a, v)
        assert got == np.concatenate([a[:1], v], axis=1).astype("<f4").tobytes()
        assert capsys.readouterr().err == ""

    def test_empty_modality_rejected(self, tmp_path, capsys):
        save_features(tmp_path / "v.avf", np.ones((1, 2)))
        (tmp_path / "a.avf").write_bytes(b"AVF1" + struct.pack("<II", 0, 3))
        (tmp_path / "concat.cfg").write_text("cross.mode=concat\n")
        rc = main(["fuse", "--config", str(tmp_path / "concat.cfg"),
                   "--audio", str(tmp_path / "a.avf"), "--visual", str(tmp_path / "v.avf"),
                   "--out", str(tmp_path / "o.avf")])
        assert rc == 1
        assert _single_error_line(capsys)


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

    def test_eval_prints_confusion_and_precision(self, cfg_path, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 0
        report = (out_dir / "report.txt").read_text()
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(out_dir / "checkpoint.bin"),
                     "--config", str(cfg_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("accuracy=")
        values = dict(line.split("=", 1) for line in lines)
        rows = np.array([[int(v) for v in values[f"confusion.{t}"].split(",")]
                         for t in range(7)])
        test_size = int(report.split("samples.test=")[1].split("\n")[0])
        assert rows.sum() == test_size == 7
        csv = (out_dir / "confusion.csv").read_text().splitlines()
        assert [values[f"confusion.{t}"] for t in range(7)] == csv
        for c in range(7):
            column = rows[:, c].sum()
            want = rows[c, c] / column if column else 0.0
            assert values[f"precision.{c}"] == repr(float(want))
        assert lines[1 + 7:] == ([f"confusion.{t}={values[f'confusion.{t}']}" for t in range(7)]
                                 + [f"precision.{c}={values[f'precision.{c}']}"
                                    for c in range(7)])

    def test_train_is_byte_identical_across_processes(self, cfg_path, tmp_path):
        # string hashing is salted per process; no artifact may depend on it
        src = Path(__file__).resolve().parents[1] / "src"
        outputs = []
        for hash_seed in ("0", "1"):
            out_dir = tmp_path / f"run{hash_seed}"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
            env.pop("AVF_SEED", None)
            subprocess.run([sys.executable, "-m", "avfusion.cli", "train", "--config",
                            str(cfg_path), "--out-dir", str(out_dir)],
                           env=env, check=True, capture_output=True, timeout=120)
            outputs.append([(out_dir / name).read_bytes()
                            for name in ("report.txt", "confusion.csv", "checkpoint.bin")])
        assert outputs[0] == outputs[1]

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
        save_features(tmp_path / "v.avf", np.ones((2, 4)))
        rc = main(["fuse", "--config", str(cfg_path), "--audio", str(tmp_path / "nan.avf"),
                   "--visual", str(tmp_path / "v.avf"), "--out", str(tmp_path / "o.avf")])
        assert rc == 1
        assert _single_error_line(capsys)

    @pytest.mark.parametrize("line", ["class_weights=nan,1,1,1,1,1,1", "data.noise=inf",
                                      "classifier.lr=nan", "tta.scales=1,inf"])
    def test_train_with_non_finite_config_value(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CFG_SMALL + line + "\n")
        rc = main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert _single_error_line(capsys)

    @pytest.mark.parametrize("line, error", [
        ("audio.dim=0", "audio.dim must be >= 1"),
        ("visual.fusion=bogus",
         "visual.fusion: 'bogus' is not one of ('self', 'relation', 'transformer')")])
    def test_a_broken_rule_names_the_key_of_the_file(self, tmp_path, capsys, line, error):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"seed=3\n{line}\n")
        assert main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_eval_with_checkpoint_name_that_is_not_utf8(self, cfg_path, tmp_path, capsys):
        bad = tmp_path / "name.bin"
        body = struct.pack("<H", 2) + b"\xc3\x28" + struct.pack("<II", 1, 1) + b"\x00" * 8
        bad.write_bytes(b"AVFCKPT1" + body)
        rc = main(["eval", "--checkpoint", str(bad), "--config", str(cfg_path)])
        assert rc == 1
        assert _single_error_line(capsys)


class TestHighRateWav:
    """A 40 ms window at 44.1/48 kHz is longer than the 1024-point FFT."""

    @pytest.fixture(params=[44100, 48000])
    def high_rate_wav(self, request, tmp_path):
        path = tmp_path / "high.wav"
        rate = request.param
        t = np.arange(rate // 10) / rate
        write_wav(path, AudioClip(samples=0.3 * np.sin(2 * np.pi * 440 * t), sample_rate=rate))
        return path

    @pytest.mark.parametrize("mel", [[], ["--mel"]], ids=["speech", "mel"])
    def test_spectrogram(self, high_rate_wav, tmp_path, capsys, mel):
        rc = main(["spectrogram", str(high_rate_wav), "--out", str(tmp_path / "s.avf")] + mel)
        assert rc == 1
        assert _single_error_line(capsys)

    def test_fuse_with_wav_audio(self, high_rate_wav, cfg_path, tmp_path, capsys):
        save_features(tmp_path / "v.avf", np.ones((3, 4)))
        rc = main(["fuse", "--config", str(cfg_path), "--audio", str(high_rate_wav),
                   "--visual", str(tmp_path / "v.avf"), "--out", str(tmp_path / "o.avf")])
        assert rc == 1
        assert _single_error_line(capsys)


class TestPatchGridTooFine:
    """A WAV whose spectrogram is smaller than the patch grid leaves empty patches."""

    def _fuse(self, cfg, wav, tmp_path):
        save_features(tmp_path / "v.avf", np.ones((3, 4)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["fuse", "--config", str(cfg), "--audio", str(wav),
                       "--visual", str(tmp_path / "v.avf"), "--out", str(tmp_path / "o.avf")])
        assert [str(w.message) for w in caught] == []
        return rc

    def test_clip_with_fewer_frames_than_grid_rows(self, cfg_path, tmp_path, capsys):
        wav = tmp_path / "short.wav"
        t = np.arange(1000) / 16000  # 3 frames against patch.grid_h=4
        write_wav(wav, AudioClip(samples=0.3 * np.sin(2 * np.pi * 440 * t), sample_rate=16000))
        assert self._fuse(cfg_path, wav, tmp_path) == 1
        assert _single_error_line(capsys)

    def test_grid_wider_than_the_spectrogram(self, wav_path, tmp_path, capsys):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(CFG_SMALL + "patch.grid_w=300\n")  # 200 bins
        assert self._fuse(cfg, wav_path, tmp_path) == 1
        assert _single_error_line(capsys)


class TestDivergence:
    def test_diverging_run_prints_one_error_line_and_no_warnings(self, tmp_path, capsys):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(CFG_SMALL + "classifier.lr=1e300\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err == "error: training loss became nan at epoch 1\n"


class TestSynth:
    def test_writes_dataset_files(self, cfg_path, tmp_path):
        out = tmp_path / "data"
        assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
        labels = (out / "labels.tsv").read_text().splitlines()
        assert len(labels) == 35
        fs = load_features(out / "audio" / "000000.avf")
        assert fs.shape == (2, 4)
        assert load_features(out / "visual" / "000034.avf").shape[0] == 2
