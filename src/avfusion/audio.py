"""Audio front-end: WAV decoding, framing, spectrograms, and patch embedding.

The speech path frames the signal with a periodic Hamming window (40 ms
window, 10 ms hop by default), zero-pads each frame to a 1024-point FFT, and
keeps the 200 lowest-frequency magnitude bins on a natural-log scale.  The
mel path shares the framing, applies a triangular HTK-scale filterbank to the
power spectrum, and stacks the log energies with their deltas and
delta-deltas into a 3-channel cube.  A window longer than the FFT (40 ms at
44.1 or 48 kHz) is rejected before anything is framed.

A learned linear patch embedder turns a spectrogram into a FeatureSet: the
time-frequency grid is tiled into grid_h x grid_w patches (rows of the grid
tile the time axis), each patch is flattened row-major and projected to a
fixed channel dimension.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (ClipTooShort, CorruptHeader, DimMismatch,
                     GridTooFineForInput, MissingForwardCache,
                     UnsupportedFormat)
from .features import FeatureSet
from .numeric import check_finite
from .rng import Rng

SUPPORTED_RATES = (8000, 16000, 44100, 48000)
LOG_FLOOR = 1e-10
SPEECH_BINS = 200
FFT_SIZE = 1024


@dataclass
class AudioClip:
    samples: np.ndarray  # float64 in [-1, 1]
    sample_rate: int

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise DimMismatch("audio samples must be a 1-D array")
        check_finite(arr, "audio samples")
        if arr.size and (np.min(arr) < -1.0 or np.max(arr) > 1.0):
            raise ValueError("audio samples must lie in [-1, 1]")
        if self.sample_rate not in SUPPORTED_RATES:
            raise UnsupportedFormat(
                f"sample rate {self.sample_rate} not in {SUPPORTED_RATES}")
        self.samples = arr

    def __len__(self) -> int:
        return self.samples.size


@dataclass
class Spectrogram:
    values: np.ndarray  # (frames, bins) log magnitudes

    @property
    def frames(self) -> int:
        return self.values.shape[0]

    @property
    def bins(self) -> int:
        return self.values.shape[1]


@dataclass
class MelCube:
    values: np.ndarray  # (bands, frames, 3): static, delta, delta-delta

    @property
    def bands(self) -> int:
        return self.values.shape[0]

    @property
    def frames(self) -> int:
        return self.values.shape[1]

    @property
    def static(self) -> np.ndarray:
        return self.values[:, :, 0]

    @property
    def delta(self) -> np.ndarray:
        return self.values[:, :, 1]

    @property
    def delta_delta(self) -> np.ndarray:
        return self.values[:, :, 2]


def read_wav(path) -> AudioClip:
    """Decode a PCM 16-bit mono little-endian WAV file.

    Anything else (stereo, float, compressed, other bit depths) raises
    UnsupportedFormat; malformed or truncated containers raise CorruptHeader.
    Samples are scaled by 1/32768.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise CorruptHeader("not a RIFF/WAVE file")
    pos = 12
    fmt = None
    payload = None
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8:pos + 8 + size]
        if len(body) < size:
            raise CorruptHeader(f"chunk {chunk_id!r} truncated")
        if chunk_id == b"fmt ":
            if size < 16:
                raise CorruptHeader("fmt chunk too small")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            payload = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt is None or payload is None:
        raise CorruptHeader("missing fmt or data chunk")
    audio_format, channels, rate, _byte_rate, _align, bits = fmt
    if audio_format != 1:
        raise UnsupportedFormat(f"only PCM (format 1) supported, got format {audio_format}")
    if channels != 1:
        raise UnsupportedFormat(f"only mono supported, got {channels} channels")
    if bits != 16:
        raise UnsupportedFormat(f"only 16-bit samples supported, got {bits}")
    if len(payload) % 2 != 0:
        raise CorruptHeader("data chunk length is not a whole number of samples")
    raw = np.frombuffer(payload, dtype="<i2")
    return AudioClip(samples=raw.astype(np.float64) / 32768.0, sample_rate=rate)


def write_wav(path, clip: AudioClip) -> None:
    """Encode a clip as PCM 16-bit mono; quantization error is below 1/65536."""
    scaled = np.clip(np.rint(clip.samples * 32768.0), -32768, 32767).astype("<i2")
    payload = scaled.tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    fmt = b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, clip.sample_rate,
                                clip.sample_rate * 2, 2, 16)
    data = b"data" + struct.pack("<I", len(payload)) + payload
    with open(path, "wb") as fh:
        fh.write(header + fmt + data)


def hamming_periodic(length: int) -> np.ndarray:
    """Periodic Hamming window: 0.54 - 0.46 cos(2 pi t / length)."""
    t = np.arange(length)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * t / length)


def _frame_lengths(clip: AudioClip, window_ms: float, hop_ms: float):
    """(win, hop) in samples, checked against the clip before any framing."""
    win = int(round(clip.sample_rate * window_ms / 1000.0))
    hop = int(round(clip.sample_rate * hop_ms / 1000.0))
    if win < 1 or hop < 1:
        raise ValueError("window and hop must be at least one sample")
    n = len(clip)
    if n < win:
        raise ClipTooShort(f"clip has {n} samples, window needs {win}")
    return win, hop


def frame_signal(clip: AudioClip, window_ms: float = 40.0,
                 hop_ms: float = 10.0) -> np.ndarray:
    """Split a clip into Hamming-windowed frames; shape (frames, win).

    win and hop are window_ms and hop_ms in samples; the frame count is
    floor((N - win)/hop) + 1, trailing samples that do not fill a window are
    dropped.
    """
    win, hop = _frame_lengths(clip, window_ms, hop_ms)
    frames = np.lib.stride_tricks.sliding_window_view(clip.samples, win)[::hop]
    return frames * hamming_periodic(win)


def _spectrum(frames: np.ndarray) -> np.ndarray:
    """FFT_SIZE-point real FFT of zero-padded frames, (frames, FFT_SIZE//2 + 1)."""
    return np.fft.rfft(frames, n=FFT_SIZE)


def _stft(clip: AudioClip, window_ms: float, hop_ms: float) -> np.ndarray:
    """_spectrum of the clip's Hamming-windowed frames."""
    win, _hop = _frame_lengths(clip, window_ms, hop_ms)
    # rfft would silently crop a longer frame to FFT_SIZE, so refuse it before framing
    if win > FFT_SIZE:
        raise ValueError(f"window of {win} samples exceeds FFT size {FFT_SIZE}")
    return _spectrum(frame_signal(clip, window_ms, hop_ms))


def speech_spectrogram(clip: AudioClip, window_ms: float = 40.0,
                       hop_ms: float = 10.0) -> Spectrogram:
    """Log-magnitude spectrogram cropped to the 200 lowest FFT bins.

    Frames are zero-padded to the 1024-point FFT, magnitudes are floored at
    1e-10 before the natural log.
    """
    mag = np.abs(_stft(clip, window_ms, hop_ms)[:, :SPEECH_BINS])
    return Spectrogram(values=np.log(np.maximum(mag, LOG_FLOOR)))


def mel_filterbank(bands: int, fft_size: int, sample_rate: int) -> np.ndarray:
    """Triangular filterbank on the HTK mel scale, shape (bands, fft_size//2+1).

    Centers are spaced uniformly in mel between 0 Hz and Nyquist; edges are
    kept fractional so each filter peaks next to its center frequency and
    neighbouring filters overlap.
    """
    if bands < 10:
        raise ValueError(f"need at least 10 mel bands, got {bands}")
    n_bins = fft_size // 2 + 1

    def hz_to_mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def mel_to_hz(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    mels = np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0), bands + 2)
    edges = mel_to_hz(mels) * fft_size / sample_rate  # fractional bin positions
    bank = np.zeros((bands, n_bins))
    bins = np.arange(n_bins, dtype=np.float64)
    for b in range(bands):
        lo, center, hi = edges[b], edges[b + 1], edges[b + 2]
        rising = (bins - lo) / (center - lo)
        falling = (hi - bins) / (hi - center)
        bank[b] = np.maximum(0.0, np.minimum(rising, falling))
        if not np.any(bank[b] > 0.0):
            raise ValueError(f"mel filter {b} covers no FFT bin; reduce the band count")
    return bank


def log_mel_3d(clip: AudioClip, bands: int = 40, window_ms: float = 40.0,
               hop_ms: float = 10.0) -> MelCube:
    """Log mel-spectrogram with delta and delta-delta channels, (bands, frames, 3)."""
    power = np.abs(_stft(clip, window_ms, hop_ms)) ** 2
    bank = mel_filterbank(bands, FFT_SIZE, clip.sample_rate)
    static = np.log(np.maximum(power @ bank.T, LOG_FLOOR)).T  # (bands, frames)
    d1 = deltas(static)
    d2 = deltas(d1)
    return MelCube(values=np.stack([static, d1, d2], axis=-1))


def deltas(x: np.ndarray, width: int = 2) -> np.ndarray:
    """Regression deltas over the time axis (axis 1), edge frames replicated.

    d_t = sum_{w=1..width} w (x_{t+w} - x_{t-w}) / (2 sum_{w} w^2)
    """
    padded = np.pad(x, ((0, 0), (width, width)), mode="edge")
    denom = 2.0 * sum(w * w for w in range(1, width + 1))
    out = np.zeros_like(x)
    frames = x.shape[1]
    for w in range(1, width + 1):
        out += w * (padded[:, width + w:width + w + frames]
                    - padded[:, width - w:width - w + frames])
    return out / denom


@dataclass
class PatchEmbedParams:
    grid_h: int               # patches along the time axis
    grid_w: int               # patches along the frequency axis
    channels: int             # output dim per patch
    projection: np.ndarray    # (patch_pixels, channels)
    bias: np.ndarray          # (channels,)

    @classmethod
    def init(cls, grid_h: int, grid_w: int, patch_h: int, patch_w: int,
             channels: int, rng: Rng) -> "PatchEmbedParams":
        if patch_h < 1 or patch_w < 1:
            raise GridTooFineForInput(f"grid {grid_h}x{grid_w} too fine for the input: "
                                      f"its patches would be {patch_h}x{patch_w}")
        pixels = patch_h * patch_w
        scale = 1.0 / np.sqrt(pixels)
        return cls(grid_h=grid_h, grid_w=grid_w, channels=channels,
                   projection=rng.uniform_mat(pixels, channels, -scale, scale),
                   bias=np.zeros(channels))


@dataclass
class PatchEmbedCache:
    patches: np.ndarray  # (n, patch_pixels) flattened inputs
    params: PatchEmbedParams


def patch_embed(spec: Spectrogram, params: PatchEmbedParams):
    """Tile, flatten, and project spectrogram patches into a FeatureSet.

    The grid tiles the spectrogram after truncating remainder rows/columns on
    the bottom/right; patches are emitted row-major.  Returns
    (FeatureSet, cache) with n = grid_h * grid_w vectors of dim channels.
    """
    grid_h, grid_w = params.grid_h, params.grid_w
    patch_h = spec.frames // grid_h
    patch_w = spec.bins // grid_w
    if patch_h < 1 or patch_w < 1:
        raise GridTooFineForInput(
            f"grid {grid_h}x{grid_w} too fine for spectrogram {spec.frames}x{spec.bins}")
    pixels = patch_h * patch_w
    if params.projection.shape != (pixels, params.channels):
        raise DimMismatch(
            f"projection shape {params.projection.shape} != ({pixels}, {params.channels})")
    tiles = spec.values[:grid_h * patch_h, :grid_w * patch_w].reshape(
        grid_h, patch_h, grid_w, patch_w)
    patches = tiles.transpose(0, 2, 1, 3).reshape(grid_h * grid_w, pixels)
    out = patches @ params.projection + params.bias
    return FeatureSet(out), PatchEmbedCache(patches=patches, params=params)


def patch_embed_backward(cache: PatchEmbedCache, upstream: np.ndarray):
    """Returns (d_projection, d_bias) given per-vector upstream gradients (n, C)."""
    if cache is None:
        raise MissingForwardCache("patch_embed_backward needs the forward cache")
    g = np.asarray(upstream, dtype=np.float64)
    n, channels = cache.patches.shape[0], cache.params.channels
    if g.shape != (n, channels):
        raise DimMismatch(f"upstream must have shape ({n}, {channels}), got {g.shape}")
    return cache.patches.T @ g, np.sum(g, axis=0)
