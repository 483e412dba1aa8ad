"""Audio front-end: WAV decoding, framing, spectrograms, and patch embedding.

The speech path frames the signal with a periodic Hamming window (40 ms
window, 10 ms hop by default), zero-pads each frame to a 1024-point FFT, and
keeps the 200 lowest-frequency magnitude bins on a natural-log scale.  The
mel path applies a triangular HTK-scale filterbank to the power spectrum and
stacks the log energies, deltas and delta-deltas into a 3-channel cube.  Both
window and transform the frames in blocks of 16, so only their outputs and
the mel path's power rows span the whole clip.  A window longer than the FFT
(40 ms at 44.1 or 48 kHz) is rejected before anything is framed.

``PatchEmbedParams`` is a linear patch-embedding stage with the pipeline's
stage interface (``params``, a batched forward ``embed``, ``backward``): it
tiles each (H, W) spectrogram of a batch into grid_h x grid_w patches (rows
of the grid tile the time axis), flattens each patch row-major and projects
it to a fixed channel dimension.  ``patch_embed`` is its B=1 case, which
returns one (grid_h*grid_w, channels) feature set.
"""

import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (ClipTooShort, CorruptHeader, DimMismatch, GridTooFineForInput,
                     UnsupportedFormat)
from .numeric import check_finite, row_blocks
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


def read_wav(path) -> AudioClip:
    """Decode a PCM 16-bit mono little-endian WAV file.

    Anything else (stereo, float, compressed, other bit depths) raises
    UnsupportedFormat; malformed or truncated containers raise CorruptHeader.
    Samples are scaled by 1/32768; chunks are memoryview slices, not copies.
    """
    with open(path, "rb") as fh:
        data = memoryview(fh.read())
    if len(data) < 12 or data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise CorruptHeader("not a RIFF/WAVE file")
    pos = 12
    fmt = payload = None
    while pos + 8 <= len(data):
        chunk_id = bytes(data[pos:pos + 4])
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
    return AudioClip(samples=raw / 32768.0, sample_rate=rate)


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


def _spectrum(frames: np.ndarray) -> np.ndarray:
    """FFT_SIZE-point real FFT of zero-padded frames, (frames, FFT_SIZE//2 + 1)."""
    return np.fft.rfft(frames, n=FFT_SIZE)


def _walk_spectra(clip: AudioClip, window_ms: float, hop_ms: float, width: int,
                  reduce) -> np.ndarray:
    """(frames, width) rows: ``reduce`` of the _spectrum of each ``row_blocks``
    block of Hamming-windowed frames (FFT_SIZE values a row), cut from a strided
    view of the samples, so no whole-clip frame or spectrum array exists.  win and hop
    are window_ms and hop_ms in samples; there are floor((N - win)/hop) + 1
    frames, trailing samples that do not fill a window are dropped."""
    win, hop = _frame_lengths(clip, window_ms, hop_ms)
    # rfft would silently crop a longer frame to FFT_SIZE, so refuse it before framing
    if win > FFT_SIZE:
        raise ValueError(f"window of {win} samples exceeds FFT size {FFT_SIZE}")
    frames = sliding_window_view(clip.samples, win)[::hop]
    window = hamming_periodic(win)
    out = np.empty((len(frames), width))
    for rows in row_blocks(0, len(frames), FFT_SIZE):
        out[rows] = reduce(_spectrum(frames[rows] * window))
    return out


def speech_spectrogram(clip: AudioClip, window_ms: float = 40.0,
                       hop_ms: float = 10.0) -> Spectrogram:
    """Log-magnitude spectrogram cropped to the 200 lowest FFT bins.

    Frames are zero-padded to the 1024-point FFT, magnitudes are floored at
    1e-10 before the natural log.
    """
    return Spectrogram(values=_walk_spectra(
        clip, window_ms, hop_ms, SPEECH_BINS,
        lambda spec: np.log(np.maximum(np.abs(spec[:, :SPEECH_BINS]), LOG_FLOOR))))


def mel_filterbank(bands: int, fft_size: int, sample_rate: int) -> np.ndarray:
    """Triangular filterbank on the HTK mel scale, shape (bands, fft_size//2+1).

    Centers are spaced uniformly in mel between 0 Hz and Nyquist; edges are
    kept fractional so each filter peaks next to its center frequency and
    neighbouring filters overlap.
    """
    if bands < 10:
        raise ValueError(f"need at least 10 mel bands, got {bands}")

    def hz_to_mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def mel_to_hz(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    mels = np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0), bands + 2)
    edges = mel_to_hz(mels) * fft_size / sample_rate  # fractional bin positions
    lo, center, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    bins = np.arange(fft_size // 2 + 1, dtype=np.float64)
    bank = np.maximum(0.0, np.minimum((bins - lo) / (center - lo), (hi - bins) / (hi - center)))
    empty = np.flatnonzero(~np.any(bank > 0.0, axis=1))
    if empty.size:
        raise ValueError(f"mel filter {empty[0]} covers no FFT bin; reduce the band count")
    return bank


def log_mel_3d(clip: AudioClip, bands: int = 40, window_ms: float = 40.0,
               hop_ms: float = 10.0) -> MelCube:
    """Log mel-spectrogram with delta and delta-delta channels, (bands, frames, 3)."""
    # the power rows stay whole: a per-block projection onto the bank rounds differently
    power = _walk_spectra(clip, window_ms, hop_ms, FFT_SIZE // 2 + 1,
                          lambda spec: np.abs(spec) ** 2)
    bank = mel_filterbank(bands, FFT_SIZE, clip.sample_rate)
    static = np.log(np.maximum(power @ bank.T, LOG_FLOOR)).T  # (bands, frames)
    d1 = deltas(static)
    return MelCube(values=np.stack([static, d1, deltas(d1)], axis=-1))


def deltas(x: np.ndarray) -> np.ndarray:
    """Regression deltas over the time axis (axis 1), two frames each side,
    edge frames replicated.

    d_t = sum_{w=1,2} w (x_{t+w} - x_{t-w}) / (2 sum_{w=1,2} w^2)
    """
    padded = np.pad(x, ((0, 0), (2, 2)), mode="edge")
    out = np.zeros_like(x)
    frames = x.shape[1]
    for w in (1, 2):
        out += w * (padded[:, 2 + w:2 + w + frames] - padded[:, 2 - w:2 - w + frames])
    return out / 10.0


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

    @property
    def params(self) -> dict:
        return {"projection": self.projection, "bias": self.bias}

    def embed(self, specs: np.ndarray):
        """(B, H, W) spectrograms -> ((B, grid_h*grid_w, channels) rows, patches).

        The grid tiles each spectrogram after truncating remainder rows and
        columns on the bottom and right; patches are emitted row-major.  The
        cache ``patches`` is their (B*grid_h*grid_w, patch_pixels) pixels.
        """
        grid_h, grid_w = self.grid_h, self.grid_w
        batch, frames, bins = specs.shape
        # checked before the divisions: a grid of 0 would divide by zero
        if not 1 <= grid_h <= frames or not 1 <= grid_w <= bins:
            raise GridTooFineForInput(
                f"grid {grid_h}x{grid_w} too fine for spectrogram {frames}x{bins}")
        patch_h = frames // grid_h
        patch_w = bins // grid_w
        pixels = patch_h * patch_w
        if self.projection.shape != (pixels, self.channels):
            raise DimMismatch(
                f"projection shape {self.projection.shape} != ({pixels}, {self.channels})")
        tiles = specs[:, :grid_h * patch_h, :grid_w * patch_w].reshape(
            batch, grid_h, patch_h, grid_w, patch_w)
        patches = tiles.transpose(0, 1, 3, 2, 4).reshape(batch * grid_h * grid_w, pixels)
        out = patches @ self.projection + self.bias
        return out.reshape(batch, grid_h * grid_w, self.channels), patches

    def backward(self, patches: np.ndarray, g: np.ndarray):
        """(gradients summed over the batch, None: no input gradient) for
        (B, grid_h*grid_w, channels) upstream gradients."""
        g = g.reshape(len(patches), self.channels)
        return {"projection": patches.T @ g, "bias": np.sum(g, axis=0)}, None


def patch_embed(spec: Spectrogram, params: PatchEmbedParams):
    """One spectrogram's patches as a feature set: the B=1 case of ``params.embed``.

    Returns (finite (n, channels) feature set, n = grid_h * grid_w, and the
    (n, patch_pixels) patches that ``params.backward`` takes).
    """
    out, patches = params.embed(spec.values[None])
    return check_finite(out[0], "patch features"), patches
