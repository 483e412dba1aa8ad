"""Feature-enhancement aggregators and the test-time-transform enumerator.

A frame's feature can be enhanced by re-extracting it under a grid of
rotation/scale/flip variants and aggregating the resulting bag of vectors.
The aggregators here are pure and permutation-invariant over the bag; actual
image warping is out of scope, so the transform descriptors exist for
generators to condition on.  They work on stacks of N bags (N, T, d) or rows
(N, d): F-Mean is ``mean_rows``, F-MeanStd ``meanstd_rows``, F-NormFFT
``normfft_rows`` and F-AR-Mean ``ar_mean_rows``.
"""

import itertools
from dataclasses import dataclass

import numpy as np

DEFAULT_ROTATIONS = (-2.0, 0.0, 2.0)
DEFAULT_SCALES = (1.0, 1.03, 1.07)


@dataclass(frozen=True)
class TtaTransform:
    rotation_deg: float
    scale: float
    flipped: bool


def enumerate_tta(rotations=DEFAULT_ROTATIONS, scales=DEFAULT_SCALES) -> list[TtaTransform]:
    """Cartesian product of transforms, rotation-major, then scale, then flip.

    The defaults produce the standard 3 rotations x 3 scales x 2 flips = 18
    descriptors.
    """
    if not rotations or not scales:
        raise ValueError("rotations and scales must be non-empty")
    return [TtaTransform(r, s, f)
            for r, s, f in itertools.product(rotations, scales, (False, True))]


def mean_rows(bags: np.ndarray) -> np.ndarray:
    """Mean of each bag of a (N, T, d) stack: (N, d)."""
    return np.mean(bags, axis=1)


def meanstd_rows(bags: np.ndarray) -> np.ndarray:
    """[mean : population std] of each bag of a (N, T, d) stack: (N, 2d).

    The standard deviation divides by T, not T-1, so a bag of one yields
    [f : 0].
    """
    mean = np.mean(bags, axis=1)
    std = np.sqrt(np.mean((bags - mean[:, None, :]) ** 2, axis=1))
    return np.concatenate([mean, std], axis=1)


def normfft_rows(basic: np.ndarray) -> np.ndarray:
    """Energy-normalized Fourier transform of each row of (N, d), [re : im]: (N, 2d).

    Each row's spectrum is divided by its total complex l2 energy (one
    scalar), so a nonzero row yields a unit-norm output.
    """
    spectrum = np.fft.fft(basic, axis=1)
    energy = np.sqrt(np.sum(spectrum.real ** 2 + spectrum.imag ** 2, axis=1, keepdims=True))
    # a zero row has a zero spectrum and passes through
    spectrum = spectrum / np.where(energy > 0.0, energy, 1.0)
    return np.concatenate([spectrum.real, spectrum.imag], axis=1)


def ar_mean_rows(mean_a: np.ndarray, mean_r: np.ndarray) -> np.ndarray:
    """[mean_a : mean_r] of the rows of two (N, d) mean features from two
    extractors: (N, 2d)."""
    return np.concatenate([mean_a, mean_r], axis=1)

