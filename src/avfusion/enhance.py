"""Feature-enhancement aggregators and the test-time-transform enumerator.

A frame's feature can be enhanced by re-extracting it under a grid of
rotation/scale/flip variants and aggregating the resulting bag of vectors.
The aggregators here are pure and permutation-invariant over the bag; actual
image warping is out of scope, so the transform descriptors exist for
generators to condition on.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch
from .features import FeatureBag
from .numeric import check_vec

DEFAULT_ROTATIONS = (-2.0, 0.0, 2.0)
DEFAULT_SCALES = (1.0, 1.03, 1.07)


@dataclass(frozen=True)
class TtaTransform:
    rotation_deg: float
    scale: float
    flipped: bool


def enumerate_tta(rotations=DEFAULT_ROTATIONS, scales=DEFAULT_SCALES,
                  flip: bool = True) -> list[TtaTransform]:
    """Cartesian product of transforms, rotation-major, then scale, then flip.

    The defaults produce the standard 3 rotations x 3 scales x 2 flips = 18
    descriptors.
    """
    if not rotations or not scales:
        raise ValueError("rotations and scales must be non-empty")
    flips = (False, True) if flip else (False,)
    return [TtaTransform(r, s, f)
            for r, s, f in itertools.product(rotations, scales, flips)]


def f_mean(bag: FeatureBag) -> np.ndarray:
    """Arithmetic mean of the bag; output dim d."""
    out = np.mean(bag.vectors, axis=0)
    assert out.shape == (bag.dim,)
    return out


def f_meanstd(bag: FeatureBag) -> np.ndarray:
    """[mean : population std] of the bag; output dim 2d.

    The standard deviation divides by N, not N-1, so a bag of one yields
    [f : 0].
    """
    mean = np.mean(bag.vectors, axis=0)
    std = np.sqrt(np.mean((bag.vectors - mean) ** 2, axis=0))
    out = np.concatenate([mean, std])
    assert out.shape == (2 * bag.dim,)
    return out


def f_normfft(basic: np.ndarray) -> np.ndarray:
    """Fourier transform of a feature vector, energy-normalized, [re : im].

    The spectrum is divided by its total complex l2 energy (one scalar), so
    any nonzero input yields a unit-norm output; the zero vector passes
    through as zeros.  Output dim 2d.
    """
    basic = check_vec(basic, "basic feature")
    spectrum = np.fft.fft(basic)
    energy = float(np.sqrt(np.sum(spectrum.real ** 2 + spectrum.imag ** 2)))
    if energy > 0.0:
        spectrum = spectrum / energy
    out = np.concatenate([spectrum.real, spectrum.imag])
    assert out.shape == (2 * basic.shape[0],)
    return out


def f_ar_mean(mean_a: np.ndarray, mean_r: np.ndarray) -> np.ndarray:
    """Concatenation of two mean features from two extractors; output dim 2d."""
    mean_a = check_vec(mean_a, "mean_a")
    mean_r = check_vec(mean_r, "mean_r")
    if mean_a.shape != mean_r.shape:
        raise DimMismatch(f"mean features differ in dim: {mean_a.shape} vs {mean_r.shape}")
    out = np.concatenate([mean_a, mean_r])
    assert out.shape == (2 * mean_a.shape[0],)
    return out
