"""Byte-mutation fuzzing of the CLI error contract.

Small valid inputs (WAV, feature file, checkpoint, config) get up to four
bytes overwritten and are run through ``main()``.  Every run must exit 0,
or exit 1 with exactly one ``error:`` line on stderr; nothing may raise, and
no numpy warning may reach stderr.
"""

import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from avfusion.audio import AudioClip, write_wav
from avfusion.cli import main
from avfusion.featfile import save_features
from avfusion.rng import Rng

# tiny on purpose: 14 samples, 3 epochs; a 100 ms WAV gives 7 frames, so the
# patch grid is 1 x 2
CFG = """seed=5
data.samples=14
classifier.classes=7
classifier.epochs=3
audio.dim=4
visual.dim=4
audio.frames=2
visual.frames=2
fbp.k=2
fbp.o=4
attn.hidden=3
patch.grid_h=1
patch.grid_w=2
patch.channels=4
"""

# (file to mutate, command line); names refer to files in the example's directory
SCENARIOS = {
    "spectrogram": ("clip.wav", ["spectrogram", "clip.wav", "--out", "out.avf"]),
    "spectrogram-mel": ("clip.wav", ["spectrogram", "clip.wav", "--out", "out.avf", "--mel"]),
    "fuse-wav": ("clip.wav", ["fuse", "--config", "exp.cfg", "--audio", "clip.wav",
                              "--visual", "visual.avf", "--out", "out.avf"]),
    "fuse-avf": ("audio.avf", ["fuse", "--config", "exp.cfg", "--audio", "audio.avf",
                               "--visual", "visual.avf", "--out", "out.avf"]),
    "eval-checkpoint": ("ckpt.bin", ["eval", "--checkpoint", "ckpt.bin",
                                     "--config", "exp.cfg"]),
    "train-config": ("exp.cfg", ["train", "--config", "exp.cfg", "--out-dir", "run"]),
    "fuse-config": ("exp.cfg", ["fuse", "--config", "exp.cfg", "--audio", "audio.avf",
                                "--visual", "visual.avf", "--out", "out.avf"]),
}


@pytest.fixture(scope="module")
def seed_files(tmp_path_factory):
    """Valid inputs every scenario starts from, as name -> bytes."""
    root = tmp_path_factory.mktemp("seeds")
    rng = Rng(17)
    t = np.arange(1600) / 16000
    write_wav(root / "clip.wav", AudioClip(samples=0.4 * np.sin(2 * np.pi * 440 * t),
                                           sample_rate=16000))
    save_features(root / "audio.avf", rng.normal_mat(3, 4))
    save_features(root / "visual.avf", rng.normal_mat(2, 4))
    (root / "exp.cfg").write_text(CFG)
    assert main(["train", "--config", str(root / "exp.cfg"), "--out-dir", str(root / "run")]) == 0
    (root / "ckpt.bin").write_bytes((root / "run" / "checkpoint.bin").read_bytes())
    return {name: (root / name).read_bytes()
            for name in ("clip.wav", "audio.avf", "visual.avf", "exp.cfg", "ckpt.bin")}


# hypothesis leans toward small positions, where the headers are
mutations = st.lists(st.tuples(st.integers(min_value=0, max_value=4095),
                               st.integers(min_value=0, max_value=255)),
                     min_size=1, max_size=4)


def mutate(data: bytes, edits) -> bytes:
    """Overwrite one byte per (position, value) edit; positions wrap around."""
    out = bytearray(data)
    for where, value in edits:
        out[where % len(out)] = value
    return bytes(out)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@settings(max_examples=50, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=mutations)
def test_mutated_input_exits_0_or_with_one_error_line(seed_files, capsys, scenario, edits):
    target, argv = SCENARIOS[scenario]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, data in seed_files.items():
            (root / name).write_bytes(mutate(data, edits) if name == target else data)
        args = [str(root / a) if a in seed_files or a in ("out.avf", "run") else a
                for a in argv]
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(args)
        err = capsys.readouterr().err
    assert [str(w.message) for w in caught] == []
    assert rc in (0, 1)
    if rc == 1:
        assert err.startswith("error:") and err.count("\n") == 1, err
    else:
        assert err == ""
