"""The benchmark's four workloads, their inputs and their correctness gates.

Every workload drives avfusion through the public entry points the CLI uses
(``load_config`` on a written config file, ``prepare_dataset``,
``FusionPipeline``, ``train_pipeline``, ``evaluate_pipeline``,
``save_checkpoint``/``load_checkpoint``, ``read_wav``, ``speech_spectrogram``,
``log_mel_3d``, ``patch_embed``, ``IntraStage`` plus ``fbp_fuse`` and
``run_module_checks``/``check_pipeline``).  One process calls them
sequentially as a closed loop with a single caller: a *job* runs, and the next
one starts when it has returned.

A job is what a user runs for that workload, from fresh set-up:

* training workloads: ``avfusion train`` (set-up, train, save the checkpoint),
  then ``avfusion eval`` (set-up, load the checkpoint, score the test split
  and the whole generated dataset), then gradient-check rounds over the
  modules the config uses;
* ``audio-frontend``: set-up of the embedders and fusion stages, then one
  pass over the generated WAV clips, then gradient-check rounds.

Calls go through module attributes (``experiment.train_pipeline``) so that the
traced run's rebinding reaches them.  Inputs come only from the seed: config
files and WAV bytes are written here, not by avfusion.
"""

import hashlib
import math
import struct
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from avfusion import audio, checks, config, experiment, fbp, featfile

# --- sizes -------------------------------------------------------------------


@dataclass(frozen=True)
class Sizes:
    default_epochs: int
    interaction_samples: int
    interaction_epochs: int
    small_epochs: int
    chunk_epochs: dict       # workload -> epochs per train_pipeline call
    clips_per_rate: int
    clip_seconds: tuple      # shortest and longest clip
    gradcheck_instances: int
    # Scoring and gradient checks repeat within a job until this much time is
    # spent, so their medians rest on more than one short call.
    repeat_seconds: float
    accuracy_gates: bool = True            # smoke sizes train too briefly for them
    clustered_samples: int | None = None   # None keeps the config default


FULL = Sizes(default_epochs=60, interaction_samples=2000, interaction_epochs=6,
             small_epochs=4,
             chunk_epochs={"train-default": 5, "train-interaction": 1, "small-batch": 1},
             clips_per_rate=6, clip_seconds=(0.5, 8.0), gradcheck_instances=10,
             repeat_seconds=0.4)
# Smoke sizes: every code path in about a second per workload.
TINY = Sizes(default_epochs=2, interaction_samples=200, interaction_epochs=2,
             small_epochs=2,
             chunk_epochs={"train-default": 1, "train-interaction": 1, "small-batch": 1},
             clips_per_rate=1, clip_seconds=(0.5, 0.6), gradcheck_instances=1,
             repeat_seconds=0.0, accuracy_gates=False, clustered_samples=35)

# Criterion 4 of the acceptance suite: concatenation stays at chance on
# interaction data while FBP separates it.
CONCAT_MAX_ACC = 0.60
FBP_MIN_ACC = 0.90
# The concat bound is seed-dependent: the sigmoid gates of self attention make
# each pooled vector an uneven function of its latent sign, so concatenation
# plus a linear classifier learns part of the XOR (0.625 at 6 epochs and 0.66
# at criterion 4's 80 on seed 260376077).  Such a breach is a known defect,
# counted and named.  A sum of per-modality terms gets at most three of the
# four sign quadrants right, so concat above this ceiling is unexpected.
CONCAT_ADDITIVE_MAX_ACC = 0.80
# Floors the seed code meets on clustered data at these epoch counts (chance
# is 1/7); they catch broken training, not slow convergence.
DEFAULT_MIN_ACC = 0.20
SMALL_MIN_ACC = 0.50

RATES = (8000, 16000, 44100, 48000)
WINDOW_MS, HOP_MS = 40.0, 10.0
PATCH_FRAMES = 16      # frames per patch row: clips of any length share one embedder
PATCH_COLUMNS = 4
MEL_BANDS = 40

# --- timing ------------------------------------------------------------------

# The shared host this benchmark was built on switches between speed regimes
# (up to about 1.7x apart) every few seconds, and every code path slows
# alike.  Each timed sample is therefore bracketed by a calibration kernel of
# plain interpreter work, whose time tracks the workloads' slowdowns about
# one for one there, and the end-to-end metrics are scaled to the speed at
# which that kernel takes CAL_REF_S.  Raw values are kept in the result file.
CAL_REF_S = 2.0e-4


def calibrate() -> float:
    """Seconds for a fixed loop of interpreter arithmetic, best of 3."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(3000):
            acc += (i * 7) % 13
        best = min(best, time.perf_counter() - t0)
    return best


@dataclass
class Sample:
    value: float    # as measured: a rate (1/s) or a duration (s)
    cal: float      # calibration seconds around the measurement

    def adjusted(self, rate: bool) -> float:
        """The value at reference speed: a slow moment lowers rates, lengthens times."""
        factor = self.cal / CAL_REF_S
        return self.value * factor if rate else self.value / factor


class Stopwatch:
    """Times a block and calibrates the machine just before and after it."""

    def __enter__(self):
        self.cal = calibrate()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0
        self.cal = (self.cal + calibrate()) / 2

    def sample(self, work: float | None = None) -> Sample:
        """Duration sample, or a rate sample of ``work`` units per second."""
        return Sample(self.seconds if work is None else work / self.seconds, self.cal)


# --- records -----------------------------------------------------------------


@dataclass
class JobRecord:
    """Samples, counts and gate results of one job."""
    setup: list = field(default_factory=list)      # Sample per set-up block (s)
    work: list = field(default_factory=list)       # Sample per train chunk or clip pass (1/s)
    score: list = field(default_factory=list)      # Sample per scoring call or clip pass (1/s)
    gradcheck: list = field(default_factory=list)  # Sample per gradient-check round (s)
    work_units: float = 0.0     # sample-steps, or seconds of audio from good clips
    score_items: int = 0        # predictions, or clips fused
    updates: int = 0
    audio_s_attempted: float = 0.0
    clip_ms: list = field(default_factory=list)
    gradcheck_max_err: float = 0.0
    attempted: int = 0
    failed: int = 0
    expected_failures: int = 0  # failures that match the known high-rate defect
    failures: dict = field(default_factory=dict)   # "stage:ExceptionType" or gate -> n
    digests: dict = field(default_factory=dict)
    accuracies: dict = field(default_factory=dict)
    traced: bool = False

    def fail(self, what: str):
        self.failed += 1
        self.failures[what] = self.failures.get(what, 0) + 1


class Phase:
    """Tells the tracer (if any) which phase the job is in."""

    def __init__(self, tracer):
        self.tracer = tracer

    def __call__(self, name: str):
        if self.tracer is not None:
            self.tracer.phase = name


# --- inputs ------------------------------------------------------------------


def wav_bytes(samples: np.ndarray, rate: int) -> bytes:
    """PCM 16-bit mono little-endian WAV container for float samples in [-1, 1]."""
    pcm = np.clip(np.rint(samples * 32767.0), -32768, 32767).astype("<i2").tobytes()
    fmt = struct.pack("<4sIHHIIHH", b"fmt ", 16, 1, 1, rate, 2 * rate, 2, 16)
    data = b"data" + struct.pack("<I", len(pcm)) + pcm
    return b"RIFF" + struct.pack("<I", 4 + len(fmt) + len(data)) + b"WAVE" + fmt + data


@dataclass
class Clip:
    path: Path
    rate: int
    n: int
    tone_bin: int          # FFT bin of the tone; the spectrogram must peak there

    @property
    def seconds(self) -> float:
        return self.n / self.rate


def make_clips(seed: int, sizes: Sizes, workdir: Path) -> list:
    """Clips at every supported rate, short to long, interleaved by rate.

    Each holds one tone centred on an FFT bin plus faint noise, so the
    expected spectrogram peak is known.  Durations are log-spaced between the
    two size limits and jittered by the seed, except the longest, which sets
    peak memory and so stays the same for every seed.
    """
    gen = np.random.default_rng(seed)
    lo, hi = sizes.clip_seconds
    clips = []
    for j, seconds in enumerate(np.geomspace(lo, hi, sizes.clips_per_rate)):
        for rate in RATES:
            jitter = gen.uniform(0.9, 1.1) if seconds < hi else 1.0
            n = int(rate * seconds * jitter)
            tone_bin = int(gen.integers(8, 190))
            t = np.arange(n) / rate
            freq = tone_bin * rate / audio.FFT_SIZE
            samples = 0.4 * np.sin(2.0 * np.pi * freq * t + gen.uniform(0, 2 * np.pi))
            samples += 0.01 * gen.standard_normal(n)
            path = workdir / f"clip{j:02d}-{rate}.wav"
            path.write_bytes(wav_bytes(samples, rate))
            clips.append(Clip(path, rate, n, tone_bin))
    return clips


def config_keys(name: str, seed: int, sizes: Sizes) -> list:
    """Config files (as key dicts) for one workload."""
    samples = {} if sizes.clustered_samples is None else {"data.samples": sizes.clustered_samples}
    if name == "train-default":
        return [{"seed": seed, "classifier.epochs": sizes.default_epochs, **samples}]
    if name == "train-interaction":
        common = {"seed": seed, "data.mode": "interaction",
                  "data.samples": sizes.interaction_samples, "classifier.classes": 2,
                  "audio.dim": 6, "visual.dim": 6, "audio.frames": 3, "visual.frames": 3,
                  "classifier.epochs": sizes.interaction_epochs, "classifier.lr": 0.5,
                  "fbp.k": 2, "fbp.o": 8, "fbp.dropout": 0.0, "audio.fusion": "self",
                  "visual.fusion": "self", "data.noise": 0.1}
        return [{**common, "cross.mode": "concat"}, {**common, "cross.mode": "fbp"}]
    if name == "small-batch":
        return [{"seed": seed, "audio.fusion": "relation", "visual.fusion": "relation",
                 "enhance.mode": "meanstd", "classifier.batch": 8,
                 "classifier.epochs": sizes.small_epochs, **samples}]
    if name == "audio-frontend":
        return [{"seed": seed, "audio.fusion": "relation", "visual.fusion": "self",
                 "patch.channels": 8}]
    raise KeyError(name)


# Gradient-check round per workload: the modules its jobs use, plus
# end-to-end pipeline checks as (cross mode, audio kind, visual kind).
GRADCHECK = {
    "train-default": (("transformer", "fbp", "classifier"),
                      (("fbp", "transformer", "transformer"),)),
    "train-interaction": (("self", "fbp", "classifier"),
                          (("concat", "self", "self"), ("fbp", "self", "self"))),
    "small-batch": (("all",),
                    (("fbp", "relation", "relation"), ("concat", "relation", "relation"))),
    "audio-frontend": (("patch", "relation", "self", "fbp"), ()),
}


@dataclass
class Inputs:
    name: str
    seed: int
    sizes: Sizes
    configs: list
    clips: list


def make_inputs(name: str, seed: int, sizes: Sizes, workdir: Path) -> Inputs:
    workdir.mkdir(parents=True, exist_ok=True)
    configs = []
    for i, keys in enumerate(config_keys(name, seed, sizes)):
        path = workdir / f"{name}-{i}.cfg"
        path.write_text("".join(f"{k}={v}\n" for k, v in keys.items()), encoding="utf-8")
        configs.append(path)
    clips = make_clips(seed, sizes, workdir) if name == "audio-frontend" else []
    return Inputs(name, seed, sizes, configs, clips)


# --- jobs --------------------------------------------------------------------


def run_job(inputs: Inputs, tracer=None) -> JobRecord:
    rec = JobRecord(traced=tracer is not None)
    phase = Phase(tracer)
    if inputs.name == "audio-frontend":
        _audio_job(inputs, rec, phase)
    else:
        for cfg_path in inputs.configs:
            _train_eval(inputs, cfg_path, rec, phase)
    _gradcheck_rounds(inputs, rec, phase)
    phase("setup")
    return rec


def _train_eval(inputs: Inputs, cfg_path: Path, rec: JobRecord, phase: Phase):
    """``avfusion train`` then ``avfusion eval`` on one config file."""
    ckpt = cfg_path.with_suffix(".ckpt")
    rec.attempted += 2
    try:
        phase("setup")
        with Stopwatch() as sw:
            cfg = config.load_config(cfg_path, apply_env=False)
            dataset, train_idx, test_idx, rngs = experiment.prepare_dataset(cfg)
            model = experiment.FusionPipeline(cfg, rngs["init"])
        rec.setup.append(sw.sample())
        phase("train")
        train_samples = [dataset.samples[i] for i in train_idx]
        # Chunks of epochs on one model and one RNG do the same arithmetic and
        # draw the same stream as a single call; each chunk is one rate sample.
        chunk = inputs.sizes.chunk_epochs[inputs.name]
        curve = []
        for _ in range(0, cfg.epochs, chunk):
            with Stopwatch() as sw:
                curve += experiment.train_pipeline(model, train_samples, chunk, cfg.lr,
                                                   rngs["train"], cfg.batch_size)
            rec.work.append(sw.sample(len(train_samples) * chunk))
        phase("io")
        featfile.save_checkpoint(ckpt, model.tensors())
    except Exception as exc:  # a raising entry point is a failed operation
        rec.fail(f"train:{type(exc).__name__}")
        rec.fail("eval:skipped")
        return
    rec.work_units += len(train_samples) * cfg.epochs
    batch = cfg.batch_size or len(train_samples)
    rec.updates += cfg.epochs * math.ceil(len(train_samples) / batch)
    rec.digests[cfg_path.name] = hashlib.sha256(ckpt.read_bytes()).hexdigest()

    try:
        phase("setup")
        with Stopwatch() as sw:
            cfg = config.load_config(cfg_path, apply_env=False)
            dataset, _, test_idx, rngs = experiment.prepare_dataset(cfg)
            restored = experiment.FusionPipeline(cfg, rngs["init"])
            restored.set_tensors(featfile.load_checkpoint(ckpt))
        rec.setup.append(sw.sample())
        phase("eval")
        with Stopwatch() as sw:
            test_metrics = experiment.evaluate_pipeline(restored, dataset, test_idx)
        rec.score.append(sw.sample(len(test_idx)))
        rec.score_items += len(test_idx)
        everything = range(len(dataset.samples))
        spent, calls = sw.seconds, 1
        while spent < inputs.sizes.repeat_seconds or calls < 2:
            with Stopwatch() as sw:
                experiment.evaluate_pipeline(restored, dataset, everything)
            rec.score.append(sw.sample(len(everything)))
            rec.score_items += len(everything)
            spent, calls = spent + sw.seconds, calls + 1
    except Exception as exc:
        rec.fail(f"eval:{type(exc).__name__}")
        return

    phase("verify")
    rec.accuracies[cfg_path.name] = test_metrics.accuracy
    gate = (_accuracy_gate(inputs.name, cfg, test_metrics.accuracy)
            if inputs.sizes.accuracy_gates else None)
    in_memory = experiment.evaluate_pipeline(model, dataset, test_idx)
    if gate:
        rec.fail(gate)
        rec.expected_failures += int(_known_concat_defect(cfg, test_metrics.accuracy))
    elif not np.array_equal(in_memory.confusion, test_metrics.confusion):
        rec.fail("gate:checkpoint-roundtrip")
    elif not (np.isfinite(curve[-1]) and curve[-1] < curve[0]):
        rec.fail("gate:loss-decrease")


def _accuracy_gate(name: str, cfg, accuracy: float):
    """Name of the accuracy gate this run broke, or None."""
    if name == "train-interaction":
        if cfg.cross_mode == "concat" and accuracy > CONCAT_MAX_ACC:
            return f"gate:concat-accuracy<={CONCAT_MAX_ACC}"
        if cfg.cross_mode == "fbp" and accuracy < FBP_MIN_ACC:
            return f"gate:fbp-accuracy>={FBP_MIN_ACC}"
    elif name == "train-default" and accuracy < DEFAULT_MIN_ACC:
        return f"gate:accuracy>={DEFAULT_MIN_ACC}"
    elif name == "small-batch" and accuracy < SMALL_MIN_ACC:
        return f"gate:accuracy>={SMALL_MIN_ACC}"
    return None


def _known_concat_defect(cfg, accuracy: float) -> bool:
    """The documented defect: concat above CONCAT_MAX_ACC, within what a sum of
    per-modality terms can reach on interaction data."""
    return (cfg.cross_mode == "concat" and cfg.data_mode == "interaction"
            and CONCAT_MAX_ACC < accuracy <= CONCAT_ADDITIVE_MAX_ACC)


def _audio_job(inputs: Inputs, rec: JobRecord, phase: Phase):
    """Set up embedders and stages once, then featurize and fuse every clip."""
    phase("setup")
    with Stopwatch() as sw:
        cfg = config.load_config(inputs.configs[0], apply_env=False)
        rng = experiment.experiment_rngs(cfg.seed)["init"]
        speech_embed = audio.PatchEmbedParams.init(1, PATCH_COLUMNS, PATCH_FRAMES,
                                                   audio.SPEECH_BINS // PATCH_COLUMNS,
                                                   cfg.patch_channels, rng)
        mel_embed = audio.PatchEmbedParams.init(1, PATCH_COLUMNS, PATCH_FRAMES,
                                                3 * MEL_BANDS // PATCH_COLUMNS,
                                                cfg.patch_channels, rng)
        speech_stage = experiment.IntraStage(cfg.audio_fusion, cfg.patch_channels,
                                             cfg.attn_hidden, rng)
        mel_stage = experiment.IntraStage(cfg.visual_fusion, cfg.patch_channels,
                                          cfg.attn_hidden, rng)
        fusion = fbp.FBPParams.init(speech_stage.out_dim, mel_stage.out_dim, cfg.fbp_k,
                                    cfg.fbp_o, cfg.fbp_dropout, rng)
    rec.setup.append(sw.sample())

    clip_s = score_s = cal_weighted = good_audio_s = 0.0
    fused_clips = 0
    for clip in inputs.clips:
        rec.attempted += 1
        rec.audio_s_attempted += clip.seconds
        cal = calibrate()
        phase("clip")
        c0 = time.perf_counter()
        errors = []
        try:
            decoded = audio.read_wav(clip.path)
        except Exception as exc:
            errors.append(f"read_wav:{type(exc).__name__}")
        else:
            try:
                spec = audio.speech_spectrogram(decoded, WINDOW_MS, HOP_MS)
            except Exception as exc:
                errors.append(f"speech_spectrogram:{type(exc).__name__}")
            try:
                cube = audio.log_mel_3d(decoded, MEL_BANDS, WINDOW_MS, HOP_MS)
            except Exception as exc:
                errors.append(f"log_mel_3d:{type(exc).__name__}")
        if not errors:
            try:
                s0 = time.perf_counter()
                # whole rows of PATCH_FRAMES frames, so one embedder fits every length
                grid_h = spec.frames // PATCH_FRAMES
                rows = grid_h * PATCH_FRAMES
                mel_rows = np.hstack([cube.values[:, :rows, c].T for c in range(3)])
                speech_fs, _ = audio.patch_embed(audio.Spectrogram(spec.values[:rows]),
                                                 replace(speech_embed, grid_h=grid_h))
                mel_fs, _ = audio.patch_embed(audio.Spectrogram(mel_rows),
                                              replace(mel_embed, grid_h=grid_h))
                a_vec, _ = speech_stage.forward(speech_fs)
                v_vec, _ = mel_stage.forward(mel_fs)
                fused = fbp.fbp_fuse(a_vec, v_vec, fusion, mode="eval").fused.values
                s1 = time.perf_counter()
            except Exception as exc:
                errors.append(f"fuse:{type(exc).__name__}")
        c1 = time.perf_counter()
        clip_s += c1 - c0          # failed clips count against throughput too
        cal_weighted += cal * (c1 - c0)
        phase("verify")
        if errors:
            rec.failed += 1
            rec.expected_failures += int(_known_high_rate_defect(clip, errors))
            for what in errors:
                rec.failures[what] = rec.failures.get(what, 0) + 1
            continue
        gate = _clip_gate(clip, spec, cube, fused)
        if gate:
            rec.fail(gate)
            continue
        good_audio_s += clip.seconds
        fused_clips += 1
        score_s += s1 - s0
        rec.clip_ms.append(1e3 * (c1 - c0))
    cal = cal_weighted / clip_s
    rec.work.append(Sample(good_audio_s / clip_s, cal))
    rec.work_units += good_audio_s
    if fused_clips:
        rec.score.append(Sample(fused_clips / score_s, cal))
        rec.score_items += fused_clips


def _known_high_rate_defect(clip: Clip, errors: list) -> bool:
    """The documented defect: at 44.1/48 kHz the 40 ms window exceeds FFT_SIZE.

    ``speech_spectrogram`` then raises ValueError and ``log_mel_3d`` a numpy
    broadcast ValueError.  Any other failure is unexpected.
    """
    window = int(round(clip.rate * WINDOW_MS / 1000.0))
    return (window > audio.FFT_SIZE
            and sorted(errors) == ["log_mel_3d:ValueError", "speech_spectrogram:ValueError"])


def _clip_gate(clip: Clip, spec, cube, fused):
    win = int(round(clip.rate * WINDOW_MS / 1000.0))
    hop = int(round(clip.rate * HOP_MS / 1000.0))
    frames = (clip.n - win) // hop + 1
    if spec.values.shape != (frames, audio.SPEECH_BINS) or not np.all(np.isfinite(spec.values)):
        return "gate:spectrogram-shape"
    if not np.all(np.argmax(spec.values, axis=1) == clip.tone_bin):
        return "gate:spectrogram-peak"
    if cube.values.shape != (MEL_BANDS, frames, 3) or not np.all(np.isfinite(cube.values)):
        return "gate:mel-shape"
    if not (np.all(np.isfinite(fused)) and abs(float(np.linalg.norm(fused)) - 1.0) < 1e-9):
        return "gate:fused-unit-norm"
    return None


def _gradcheck_rounds(inputs: Inputs, rec: JobRecord, phase: Phase):
    """One ``avfusion gradcheck`` operation, its round repeated for timing.

    Module checks use ``run_module_checks``' own instance seeds, as the CLI
    does; pipeline checks are seeded by the workload.  Rounds repeat until
    ``repeat_seconds`` are spent; the operation fails if any round does.
    """
    modules, pipelines = GRADCHECK[inputs.name]
    phase("gradcheck")
    rec.attempted += 1
    spent = 0.0
    while not rec.gradcheck or spent < inputs.sizes.repeat_seconds:
        errors = {}
        try:
            with Stopwatch() as sw:
                for module in modules:
                    errors.update(checks.run_module_checks(
                        module, inputs.sizes.gradcheck_instances))
                for j, (cross, audio_kind, visual_kind) in enumerate(pipelines):
                    errors[f"pipeline-{cross}-{audio_kind}"] = checks.check_pipeline(
                        1000 * inputs.seed + j, cross, audio_kind, visual_kind)
        except Exception as exc:
            rec.fail(f"gradcheck:{type(exc).__name__}")
            return
        rec.gradcheck.append(sw.sample())
        spent += sw.seconds
        rec.gradcheck_max_err = max([rec.gradcheck_max_err, *errors.values()])
        broken = sorted(name for name, err in errors.items() if not err < checks.GRAD_TOL)
        if broken:
            rec.fail(f"gate:gradcheck<{checks.GRAD_TOL}:" + ",".join(broken))
            return
