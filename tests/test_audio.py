import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avfusion import audio
from avfusion.audio import (AudioClip, PatchEmbedParams, Spectrogram, deltas,
                            log_mel_3d, mel_filterbank, patch_embed, read_wav,
                            speech_spectrogram, write_wav)
from avfusion.checks import check_patch_embed
from avfusion.errors import (ClipTooShort, CorruptHeader, DimMismatch,
                             GridTooFineForInput, NonFiniteValue, UnsupportedFormat)
from avfusion.rng import Rng

SR = 16000


def tone(freq=440.0, seconds=1.0, amplitude=0.5, sr=SR):
    t = np.arange(int(sr * seconds)) / sr
    return AudioClip(samples=amplitude * np.sin(2 * np.pi * freq * t), sample_rate=sr)


class TestWav:
    def test_silence_round_trip(self, tmp_path):
        path = tmp_path / "silence.wav"
        write_wav(path, AudioClip(samples=np.zeros(SR), sample_rate=SR))
        clip = read_wav(path)
        assert clip.sample_rate == SR
        assert len(clip) == SR
        assert np.all(clip.samples == 0.0)

    def test_full_scale_square_wave_stays_in_range(self, tmp_path):
        path = tmp_path / "square.wav"
        square = np.where(np.arange(1000) % 2 == 0, 32767, -32767).astype("<i2")
        payload = square.tobytes()
        with open(path, "wb") as fh:
            fh.write(b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE")
            fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, SR, SR * 2, 2, 16))
            fh.write(b"data" + struct.pack("<I", len(payload)) + payload)
        clip = read_wav(path)
        assert np.min(clip.samples) >= -1.0
        assert np.max(clip.samples) < 1.0

    def test_sine_round_trip_error_below_one_lsb(self, tmp_path):
        path = tmp_path / "sine.wav"
        clip = tone()
        write_wav(path, clip)
        back = read_wav(path)
        assert np.max(np.abs(back.samples - clip.samples)) < 1.0 / 32768.0

    def test_samples_equal_the_copying_decode_after_an_odd_chunk(self, tmp_path):
        # a 3-byte chunk and its pad byte precede the data chunk
        path = tmp_path / "odd.wav"
        raw = Rng(40).uniform_vec(999, -32768, 32768).astype("<i2")
        raw[:2] = -32768, 32767
        payload = raw.tobytes()
        with open(path, "wb") as fh:
            fh.write(b"RIFF" + struct.pack("<I", 48 + len(payload)) + b"WAVE")
            fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, SR, SR * 2, 2, 16))
            fh.write(b"LIST" + struct.pack("<I", 3) + b"abc\x00")
            fh.write(b"data" + struct.pack("<I", len(payload)) + payload)
        clip = read_wav(path)
        oracle = np.frombuffer(payload, dtype="<i2").astype(np.float64) / 32768.0
        assert clip.samples.dtype == np.float64
        assert clip.samples.tobytes() == oracle.tobytes()

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        payload = b"\x00\x00" * 400
        with open(path, "wb") as fh:
            fh.write(b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE")
            fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, 1, 2, SR, SR * 4, 4, 16))
            fh.write(b"data" + struct.pack("<I", len(payload)) + payload)
        with pytest.raises(UnsupportedFormat):
            read_wav(path)

    def test_float_format_rejected(self, tmp_path):
        path = tmp_path / "float.wav"
        payload = b"\x00" * 64
        with open(path, "wb") as fh:
            fh.write(b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE")
            fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, 3, 1, SR, SR * 4, 4, 32))
            fh.write(b"data" + struct.pack("<I", len(payload)) + payload)
        with pytest.raises(UnsupportedFormat):
            read_wav(path)

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"NOTWAVDATA")
        with pytest.raises(CorruptHeader):
            read_wav(path)

    def test_truncated_data_chunk_rejected(self, tmp_path):
        path = tmp_path / "trunc.wav"
        with open(path, "wb") as fh:
            fh.write(b"RIFF" + struct.pack("<I", 1000) + b"WAVE")
            fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, SR, SR * 2, 2, 16))
            fh.write(b"data" + struct.pack("<I", 5000) + b"\x00" * 10)
        with pytest.raises(CorruptHeader):
            read_wav(path)

    def test_unsupported_rate_rejected(self, tmp_path):
        path = tmp_path / "rate.wav"
        payload = b"\x00\x00" * 100
        with open(path, "wb") as fh:
            fh.write(b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE")
            fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 11025, 22050, 2, 16))
            fh.write(b"data" + struct.pack("<I", len(payload)) + payload)
        with pytest.raises(UnsupportedFormat):
            read_wav(path)


class TestClip:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_raise_non_finite_value(self, bad):
        samples = np.zeros(100)
        samples[7] = bad
        with pytest.raises(NonFiniteValue, match="audio samples"):
            AudioClip(samples=samples, sample_rate=SR)


def sliced_loop_oracle(clip, window_ms, hop_ms, bands=40):
    """(speech values, mel cube) from every frame at once: the explicit
    slicing loop times the periodic Hamming formula, then one whole-array rfft."""
    rate = clip.sample_rate
    win = int(round(rate * window_ms / 1000.0))
    hop = int(round(rate * hop_ms / 1000.0))
    count = (len(clip) - win) // hop + 1
    window = 0.54 - 0.46 * np.cos(2 * np.pi * np.arange(win) / win)
    frames = np.array([clip.samples[i * hop:i * hop + win] for i in range(count)]) * window
    spectrum = np.fft.rfft(frames, n=1024)
    speech = np.log(np.maximum(np.abs(spectrum[:, :200]), 1e-10))
    power = np.abs(spectrum) ** 2
    static = np.log(np.maximum(power @ mel_filterbank(bands, 1024, rate).T, 1e-10)).T
    d1 = deltas(static)
    return speech, np.stack([static, d1, deltas(d1)], axis=-1)


def noise_clip(samples, rate=SR, seed=37):
    return AudioClip(samples=np.clip(Rng(seed).normal_vec(samples, 0.0, 0.3), -1.0, 1.0),
                     sample_rate=rate)


def assert_features_equal_the_oracle(clip, window_ms=40.0, hop_ms=10.0):
    speech, mel = sliced_loop_oracle(clip, window_ms, hop_ms)
    spec = speech_spectrogram(clip, window_ms, hop_ms)
    cube = log_mel_3d(clip, 40, window_ms, hop_ms)
    assert spec.values.shape == speech.shape and cube.values.shape == mel.shape
    assert spec.values.tobytes() == speech.tobytes()
    assert cube.values.tobytes() == mel.tobytes()
    return spec.frames


class TestFraming:
    """Both features frame, window and transform a clip in blocks of 16
    frames; the oracle does it all at once, and the bytes must agree."""

    def test_frames_equal_the_sliced_loop(self):
        assert assert_features_equal_the_oracle(noise_clip(5000), 25.0, 10.0) == 29

    @pytest.mark.parametrize("window_ms, hop_ms", [(40.0, 10.0), (25.0, 10.0), (20.0, 5.0)])
    @pytest.mark.parametrize("rate", [8000, 16000])
    @pytest.mark.parametrize("frames", [1, 15, 16, 17, 31, 32, 33, "8s"])
    def test_every_block_split_equals_the_whole_array_oracle(self, frames, rate,
                                                             window_ms, hop_ms):
        win = int(round(rate * window_ms / 1000.0))
        hop = int(round(rate * hop_ms / 1000.0))
        # hop - 1 trailing samples that fill no window
        n = 8 * rate if frames == "8s" else win + (frames - 1) * hop + hop - 1
        count = assert_features_equal_the_oracle(noise_clip(n, rate), window_ms, hop_ms)
        assert count == (n - win) // hop + 1
        if frames != "8s":
            assert count == frames

    def test_one_second_gives_97_frames(self):
        assert speech_spectrogram(tone()).frames == 97
        assert log_mel_3d(tone()).values.shape[1] == 97

    def test_exactly_one_window(self):
        clip = AudioClip(samples=np.ones(640) * 0.5, sample_rate=SR)
        assert speech_spectrogram(clip).frames == 1
        assert log_mel_3d(clip).values.shape[1] == 1

    def test_too_short_raises(self):
        clip = AudioClip(samples=np.zeros(639), sample_rate=SR)
        for featurize in (speech_spectrogram, log_mel_3d):
            with pytest.raises(ClipTooShort):
                featurize(clip)

    def test_constant_signal_first_frame_is_the_window(self):
        # oracle: periodic Hamming formula 0.54 - 0.46 cos(2 pi t / win)
        clip = AudioClip(samples=np.ones(SR), sample_rate=SR)
        t = np.arange(640)
        window = 0.54 - 0.46 * np.cos(2 * np.pi * t / 640)
        oracle = np.log(np.maximum(np.abs(np.fft.rfft(window, n=1024)[:200]), 1e-10))
        assert np.array_equal(speech_spectrogram(clip).values[0], oracle)

    @given(st.integers(min_value=640, max_value=20000),
           st.integers(min_value=2, max_value=80),
           st.integers(min_value=1, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_frame_count_formula(self, n, window_ms, hop_ms):
        clip = AudioClip(samples=np.zeros(n), sample_rate=SR)
        win = int(round(SR * window_ms / 1000.0))
        hop = int(round(SR * hop_ms / 1000.0))
        if n < win:
            with pytest.raises(ClipTooShort):
                speech_spectrogram(clip, window_ms, hop_ms)
            return
        if win > 1024:
            with pytest.raises(ValueError, match="exceeds FFT size"):
                speech_spectrogram(clip, window_ms, hop_ms)
            return
        # oracle: count frames with an explicit loop
        count, start = 0, 0
        while start + win <= n:
            count += 1
            start += hop
        assert speech_spectrogram(clip, window_ms, hop_ms).frames == count


def test_peak_memory_stays_near_the_output():
    # 30 s at 16 kHz: 2,997 frames, whose whole-clip spectra would be 24.6 MB
    clip = noise_clip(30 * SR)
    tracemalloc.start()
    try:
        spec = speech_spectrogram(clip)
        speech_peak = tracemalloc.get_traced_memory()[1]
        del spec
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        log_mel_3d(clip)
        mel_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    frames = (30 * SR - 640) // 160 + 1
    assert speech_peak <= frames * 200 * 8 + 2 * 2**20
    assert mel_peak <= 2 * frames * 513 * 8


class TestSpeechSpectrogram:
    def test_shape_one_second(self):
        spec = speech_spectrogram(tone())
        assert (spec.frames, spec.bins) == (97, 200)

    def test_silence_is_all_floor(self):
        spec = speech_spectrogram(AudioClip(samples=np.zeros(SR), sample_rate=SR))
        assert np.all(spec.values == np.log(1e-10))

    def test_pure_1khz_peaks_at_bin_64(self):
        # oracle: bin = 1000 * 1024 / 16000 = 64
        spec = speech_spectrogram(tone(freq=1000.0))
        assert np.all(np.argmax(spec.values, axis=1) == 64)

    def test_translation_by_one_hop_shifts_frames(self):
        rng = Rng(31)
        samples = np.clip(rng.normal_vec(SR, 0.0, 0.2), -1.0, 1.0)
        base = speech_spectrogram(AudioClip(samples=samples, sample_rate=SR))
        shifted = speech_spectrogram(AudioClip(samples=samples[160:], sample_rate=SR))
        assert np.max(np.abs(shifted.values[:-1] - base.values[1:shifted.frames])) < 1e-9


@pytest.mark.parametrize("rate", [44100, 48000])
@pytest.mark.parametrize("featurize", [speech_spectrogram, log_mel_3d])
def test_high_rate_window_longer_than_fft_raises_plain_value_error(rate, featurize):
    # a 40 ms window is 1764 / 1920 samples, more than the 1024-point FFT
    clip = AudioClip(samples=np.zeros(rate // 10), sample_rate=rate)
    with pytest.raises(ValueError, match="exceeds FFT size 1024") as exc:
        featurize(clip)
    assert type(exc.value) is ValueError


def _refuse_framing(*args, **kwargs):
    raise AssertionError("framed a clip whose window exceeds the FFT")


@pytest.mark.parametrize("rate", [44100, 48000])
@pytest.mark.parametrize("featurize", [speech_spectrogram, log_mel_3d])
def test_high_rate_window_is_rejected_before_framing(rate, featurize, monkeypatch):
    clip = AudioClip(samples=np.zeros(rate), sample_rate=rate)
    # the strided view of the samples is where framing starts
    monkeypatch.setattr(audio, "sliding_window_view", _refuse_framing)
    with pytest.raises(ValueError, match="exceeds FFT size 1024") as exc:
        featurize(clip)
    assert type(exc.value) is ValueError


@pytest.mark.parametrize("featurize", [speech_spectrogram, log_mel_3d])
def test_high_rate_clip_shorter_than_its_window_is_too_short(featurize):
    # the 1,920-sample window of 40 ms at 48 kHz: the length check comes first
    clip = AudioClip(samples=np.zeros(1919), sample_rate=48000)
    with pytest.raises(ClipTooShort, match="window needs 1920"):
        featurize(clip)


class TestMel:
    def test_cube_shape(self):
        cube = log_mel_3d(tone(), bands=40)
        assert cube.values.shape == (40, 97, 3)

    def test_deltas_equal_the_gathered_form(self):
        # oracle: the fancy-index gathers the slices replaced
        x = Rng(42).normal_mat(7, 11)
        width = 2
        padded = np.pad(x, ((0, 0), (width, width)), mode="edge")
        t = np.arange(x.shape[1]) + width
        oracle = np.zeros_like(x)
        for w in range(1, width + 1):
            oracle += w * (padded[:, t + w] - padded[:, t - w])
        assert np.array_equal(deltas(x), oracle / 10.0)

    def test_constant_input_has_zero_deltas(self):
        clip = AudioClip(samples=np.full(SR, 0.25), sample_rate=SR)
        cube = log_mel_3d(clip, bands=40)
        assert np.all(cube.values[:, :, 1] == 0.0)  # delta
        assert np.all(cube.values[:, :, 2] == 0.0)  # delta-delta

    def test_filterbank_rows_nonnegative_peaked_and_overlapping(self):
        bank = mel_filterbank(40, 1024, SR)
        assert np.all(bank >= 0.0)
        for b in range(40):
            row = bank[b]
            peak = np.argmax(row)
            # unimodal: nondecreasing up to the peak, nonincreasing after
            assert np.all(np.diff(row[:peak + 1]) >= -1e-12)
            assert np.all(np.diff(row[peak:]) <= 1e-12)
        for b in range(39):
            assert np.any((bank[b] > 0) & (bank[b + 1] > 0))

    def test_filterbank_on_all_ones_gives_row_sums(self):
        bank = mel_filterbank(24, 1024, SR)
        row_sums = bank.sum(axis=1)
        assert np.all(row_sums > 0.0)
        applied = bank @ np.ones(513)
        assert np.max(np.abs(applied - row_sums) / row_sums) < 1e-12

    def test_band_count_below_minimum_rejected(self):
        with pytest.raises(ValueError):
            mel_filterbank(9, 1024, SR)

    def test_mel_scale_against_direct_formula(self):
        # oracle: filter centers follow 2595 log10(1 + f/700) spacing
        bank = mel_filterbank(40, 1024, SR)
        mel_max = 2595.0 * np.log10(1.0 + 8000.0 / 700.0)
        centers_hz = 700.0 * (10.0 ** (np.linspace(0, mel_max, 42)[1:-1] / 2595.0) - 1.0)
        centers_bin = centers_hz * 1024 / SR
        for b in (0, 10, 39):
            peak = np.argmax(bank[b])
            assert abs(peak - centers_bin[b]) <= 1.0


class TestPatchEmbed:
    def test_grid_shape(self):
        rng = Rng(32)
        spec = Spectrogram(values=rng.normal_mat(10, 9))
        params = PatchEmbedParams.init(2, 3, 5, 3, 5, rng)
        fs, _ = patch_embed(spec, params)
        assert fs.shape == (6, 5)

    def test_identity_projection_returns_flattened_patches(self):
        rng = Rng(33)
        spec = Spectrogram(values=rng.normal_mat(4, 6))
        pixels = 2 * 2  # grid 2x3 over 4x6 -> 2x2 patches
        params = PatchEmbedParams(grid_h=2, grid_w=3, channels=pixels,
                                  projection=np.eye(pixels), bias=np.zeros(pixels))
        fs, _ = patch_embed(spec, params)
        first_patch = spec.values[0:2, 0:2].ravel()
        assert np.array_equal(fs[0], first_patch)
        last_patch = spec.values[2:4, 4:6].ravel()
        assert np.array_equal(fs[5], last_patch)

    def test_patches_equal_the_tile_loop(self):
        # oracle: row-major tiles flattened one by one, remainder cut off
        rng = Rng(38)
        spec = Spectrogram(values=rng.normal_mat(13, 17))
        params = PatchEmbedParams.init(3, 4, 4, 4, 5, rng)
        _, patches = patch_embed(spec, params)
        oracle = np.array([spec.values[gh * 4:(gh + 1) * 4, gw * 4:(gw + 1) * 4].ravel()
                           for gh in range(3) for gw in range(4)])
        assert np.array_equal(patches, oracle)

    def test_truncates_remainder_rows_and_cols(self):
        rng = Rng(34)
        spec = Spectrogram(values=rng.normal_mat(7, 7))
        params = PatchEmbedParams.init(2, 2, 3, 3, 4, rng)
        fs, _ = patch_embed(spec, params)
        assert fs.shape[0] == 4

    def test_grid_too_fine(self):
        rng = Rng(35)
        spec = Spectrogram(values=rng.normal_mat(3, 3))
        params = PatchEmbedParams.init(5, 5, 1, 1, 2, rng)
        with pytest.raises(GridTooFineForInput):
            patch_embed(spec, params)
        # an empty patch is rejected at init, before anything is drawn
        rng, twin = Rng(37), Rng(37)
        with pytest.raises(GridTooFineForInput):
            PatchEmbedParams.init(4, 4, 0, 50, 2, rng)
        assert rng.next_u64() == twin.next_u64()

    @pytest.mark.parametrize("grid", [(0, 2), (2, 0), (0, 0)])
    def test_zero_grid_is_too_fine_not_a_division_by_zero(self, grid):
        grid_h, grid_w = grid
        params = PatchEmbedParams(grid_h=grid_h, grid_w=grid_w, channels=3,
                                  projection=np.ones((16, 3)), bias=np.zeros(3))
        specs = Rng(39).normal_mat(8, 8)[None]
        with pytest.raises(GridTooFineForInput, match=f"grid {grid_h}x{grid_w} too fine"):
            params.embed(specs)
        with pytest.raises(GridTooFineForInput):
            patch_embed(Spectrogram(values=specs[0]), params)

    def test_projection_shape_mismatch(self):
        rng = Rng(36)
        spec = Spectrogram(values=rng.normal_mat(8, 8))
        params = PatchEmbedParams(grid_h=2, grid_w=2, channels=3,
                                  projection=np.ones((5, 3)), bias=np.zeros(3))
        with pytest.raises(DimMismatch):
            patch_embed(spec, params)

    @pytest.mark.parametrize("seed", range(10))
    def test_gradcheck(self, seed):
        assert check_patch_embed(seed) < 1e-4

    def test_batch_of_three_equals_three_single_embeddings(self):
        rng = Rng(39)
        specs = rng.normal_mat(3 * 13, 17).reshape(3, 13, 17)
        params = PatchEmbedParams.init(3, 4, 4, 4, 5, rng)
        params.bias[:] = rng.normal_vec(5)
        g = rng.normal_mat(3 * 12, 5).reshape(3, 12, 5)
        out, patches = params.embed(specs)
        assert out.shape == (3, 12, 5)
        grads, d_specs = params.backward(patches, g)
        assert d_specs is None
        summed = {name: np.zeros_like(arr) for name, arr in params.params.items()}
        for b in range(3):
            fs, one_patches = patch_embed(Spectrogram(specs[b]), params)
            assert np.max(np.abs(out[b] - fs)) <= 1e-12
            for name, grad in params.backward(one_patches, g[b:b + 1])[0].items():
                summed[name] += grad
        for name, grad in grads.items():
            assert np.max(np.abs(grad - summed[name])) <= 1e-12 * np.max(np.abs(grad)), name
