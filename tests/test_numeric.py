import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from avfusion.errors import AvfusionError, DimMismatch, NonFiniteValue
from avfusion.numeric import (check_mat, check_vec, dft, fft_radix2, idft,
                              matvec, sigmoid, softmax)
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


def test_dft_impulse_is_flat():
    spectrum = dft(np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(spectrum.real, [1, 1, 1, 1], atol=1e-12)
    assert np.allclose(spectrum.imag, [0, 0, 0, 0], atol=1e-12)


def test_dft_constant_is_dc_only():
    spectrum = dft(np.array([1.0, 1.0, 1.0, 1.0]))
    assert np.allclose(spectrum.real, [4, 0, 0, 0], atol=1e-12)
    assert np.allclose(spectrum.imag, [0, 0, 0, 0], atol=1e-12)


def test_dft_parseval_by_direct_summation():
    rng = Rng(101)
    x = rng.normal_vec(8)
    spectrum = dft(x)
    # oracle: direct summation on both sides of Parseval's identity
    lhs = sum(abs(complex(re, im)) ** 2 for re, im in zip(spectrum.real, spectrum.imag))
    rhs = 8 * sum(v * v for v in x)
    assert abs(lhs - rhs) < 1e-9


def test_dft_idft_round_trip():
    rng = Rng(102)
    for dim in (1, 2, 5, 12):
        x = rng.normal_vec(dim)
        back = idft(dft(x))
        assert np.max(np.abs(back.real - x)) < 1e-9
        assert np.max(np.abs(back.imag)) < 1e-9


def test_fft_agrees_with_direct_dft():
    rng = Rng(103)
    for size in (1, 2, 8, 64, 256):
        x = rng.normal_vec(size)
        assert np.max(np.abs(fft_radix2(x) - dft(x))) < 1e-9


def test_fft_agrees_with_numpy_batched():
    rng = Rng(104)
    x = rng.normal_mat(5, 32)
    assert np.max(np.abs(fft_radix2(x) - np.fft.fft(x, axis=-1))) < 1e-9


def test_fft_rejects_non_power_of_two():
    with pytest.raises(DimMismatch):
        fft_radix2(np.ones(12))


def test_matvec_matches_triple_loop_oracle():
    rng = Rng(105)
    m = rng.normal_mat(16, 16)
    v = rng.normal_vec(16)
    got = matvec(m, v)
    expected = np.zeros(16)
    for i in range(16):
        for j in range(16):
            expected[i] += m[i, j] * v[j]
    assert np.max(np.abs(got - expected)) < 1e-12


def test_matvec_dim_mismatch():
    with pytest.raises(DimMismatch):
        matvec(np.ones((3, 4)), np.ones(3))


def test_softmax_normalizes_and_survives_huge_logits():
    probs = softmax(np.array([1e4, -1e4, 0.0]))
    assert np.all(np.isfinite(probs))
    assert abs(np.sum(probs) - 1.0) < 1e-9


def test_validators_reject_nan():
    with pytest.raises(ValueError):
        check_vec(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        check_mat(np.array([[np.inf, 1.0]]))
    with pytest.raises(DimMismatch):
        check_vec(np.ones((2, 2)))


def test_non_finite_rejection_is_a_package_error_and_a_value_error():
    with pytest.raises(NonFiniteValue) as exc:
        check_vec(np.array([np.inf]))
    assert isinstance(exc.value, AvfusionError)
    assert isinstance(exc.value, ValueError)


def test_softmax_rows_are_independent():
    logits = np.array([[1.0, 2.0, 3.0], [1e4, -1e4, 0.0]])
    probs = softmax(logits)
    assert np.allclose(probs[0], softmax(logits[0]), atol=1e-15)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
