import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from avfusion.audio import FFT_SIZE, _spectrum
from avfusion.errors import AvfusionError, DimMismatch, NonFiniteValue
from avfusion.numeric import check_finite, check_set, check_vec, sigmoid, softmax
from avfusion.rng import Rng


def test_sigmoid_at_zero():
    assert sigmoid(0.0) == 0.5


def test_sigmoid_at_two_matches_direct_evaluation():
    # oracle: direct scalar evaluation of 1/(1+e^-2)
    assert abs(sigmoid(2.0) - 1.0 / (1.0 + math.exp(-2.0))) < 1e-15
    assert round(sigmoid(2.0), 6) == 0.880797


@given(st.floats(min_value=-700, max_value=700, allow_nan=False))
def test_sigmoid_symmetry(x):
    assert abs(sigmoid(x) + sigmoid(-x) - 1.0) < 1e-12


@pytest.mark.parametrize("x", [-1e4, -500.0, 500.0, 1e4, 750.0, -750.0])
def test_sigmoid_stable_for_large_inputs(x):
    y = sigmoid(x)
    assert math.isfinite(y)
    assert 0.0 <= y <= 1.0


def test_sigmoid_vectorized():
    out = sigmoid(np.array([0.0, 2.0, -2.0]))
    assert np.allclose(out, [0.5, 0.8807970779778823, 0.11920292202211755])


def direct_dft(x: np.ndarray, size: int) -> np.ndarray:
    """Oracle by direct summation: X[k] = sum_t x[t] exp(-2 pi i k t / size), k <= size/2."""
    return np.array([sum(v * cmath.exp(-2j * math.pi * k * t / size) for t, v in enumerate(x))
                     for k in range(size // 2 + 1)])


def test_dft_impulse_is_flat():
    frame = np.zeros((1, 4))
    frame[0, 0] = 1.0
    spectrum = _spectrum(frame)[0]
    assert spectrum.shape == (FFT_SIZE // 2 + 1,)
    assert np.allclose(spectrum.real, 1.0, atol=1e-12)
    assert np.allclose(spectrum.imag, 0.0, atol=1e-12)


def test_dft_constant_is_dc_only():
    spectrum = _spectrum(np.ones((1, FFT_SIZE)))[0]
    assert abs(spectrum[0] - FFT_SIZE) < 1e-9
    assert np.max(np.abs(spectrum[1:])) < 1e-9


def test_dft_parseval_by_direct_summation():
    x = Rng(101).normal_vec(FFT_SIZE)
    spectrum = _spectrum(x[None])[0]
    # oracle: direct summation on both sides of Parseval's identity; the
    # real transform stores bins 1..N/2-1 once for their mirror images too
    power = [abs(complex(v)) ** 2 for v in spectrum]
    lhs = power[0] + power[-1] + 2 * sum(power[1:-1])
    rhs = FFT_SIZE * sum(v * v for v in x)
    assert abs(lhs - rhs) < 1e-9 * rhs


def test_fft_agrees_with_direct_dft():
    # frames shorter than FFT_SIZE are zero-padded, not stretched
    rng = Rng(103)
    for size in (1, 2, 40, 160):
        x = rng.normal_vec(size)
        assert np.max(np.abs(_spectrum(x[None])[0] - direct_dft(x, FFT_SIZE))) < 1e-9


def test_softmax_normalizes_and_survives_huge_logits():
    probs = softmax(np.array([1e4, -1e4, 0.0]))
    assert np.all(np.isfinite(probs))
    assert abs(np.sum(probs) - 1.0) < 1e-9


def test_validators_reject_nan():
    with pytest.raises(ValueError):
        check_vec(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        check_finite(np.array([[np.inf, 1.0]]), "matrix")
    with pytest.raises(DimMismatch):
        check_vec(np.ones((2, 2)))


def test_non_finite_rejection_is_a_package_error_and_a_value_error():
    with pytest.raises(NonFiniteValue) as exc:
        check_vec(np.array([np.inf]))
    assert isinstance(exc.value, AvfusionError)
    assert isinstance(exc.value, ValueError)


@pytest.mark.parametrize("shape", [(4,), (0, 4), (3, 0), (1, 3, 4)])
def test_check_set_rejects_what_is_not_n_by_d(shape):
    with pytest.raises(DimMismatch, match=r"features must be n >= 1 vectors of dim >= 1"):
        check_set(np.ones(shape), "features")


def test_check_set_rejects_non_finite_values():
    feats = np.ones((3, 4))
    feats[2, 1] = -np.inf
    with pytest.raises(NonFiniteValue, match="features contains NaN or Inf"):
        check_set(feats, "features")


def test_check_set_returns_a_float64_set():
    feats = check_set([[1, 2, 3], [4, 5, 6]], "features")
    assert feats.dtype == np.float64 and feats.shape == (2, 3)
    assert feats.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]


def test_softmax_rows_are_independent():
    logits = np.array([[1.0, 2.0, 3.0], [1e4, -1e4, 0.0]])
    probs = softmax(logits)
    assert np.allclose(probs[0], softmax(logits[0]), atol=1e-15)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
