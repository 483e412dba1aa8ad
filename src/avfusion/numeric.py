"""Dense numeric primitives.

Conventions used throughout the package: vectors are 1-D float64 arrays,
matrices are 2-D row-major float64 arrays, batches stack samples along a
leading axis, complex spectra are complex128 arrays.  Non-finite values are
rejected once, where data enters the package (``check_finite``,
``check_vec``, ``check_mat``); the arithmetic primitives below assume
validated input.
"""

import numpy as np

from .errors import DimMismatch, NonFiniteValue


def check_finite(arr: np.ndarray, name: str) -> np.ndarray:
    """Return ``arr`` unchanged, or raise NonFiniteValue if it holds NaN or Inf."""
    if not np.isfinite(arr).all():
        raise NonFiniteValue(f"{name} contains NaN or Inf")
    return arr


def check_vec(x, name: str = "vector") -> np.ndarray:
    """Validate and return a finite 1-D float64 vector with dim >= 1."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise DimMismatch(f"{name} must be 1-D with at least one entry, got shape {arr.shape}")
    return check_finite(arr, name)


def check_mat(x, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite 2-D float64 matrix."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimMismatch(f"{name} must be 2-D with positive shape, got shape {arr.shape}")
    return check_finite(arr, name)


def matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product with shape validation."""
    m = check_mat(m)
    v = check_vec(v)
    if m.shape[1] != v.shape[0]:
        raise DimMismatch(f"matvec shapes {m.shape} x {v.shape} do not align")
    return m @ v


def sigmoid(x):
    """Numerically stable logistic function, elementwise on scalars or arrays.

    Only exponentials of non-positive arguments are evaluated, so there is no
    overflow for any finite input: 1/(1+e) for x >= 0 and e/(1+e) for x < 0,
    with e = exp(-|x|).
    """
    arr = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(arr))
    out = np.where(arr >= 0, 1.0, e) / (1.0 + e)
    if arr.ndim == 0:
        return float(out)
    return out


def softmax(z: np.ndarray) -> np.ndarray:
    """Shift-invariant softmax along the last axis (max-subtraction stabilized)."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def dft(x: np.ndarray) -> np.ndarray:
    """Direct discrete Fourier transform, X[k] = sum_t x[t] exp(-2 pi i k t / d).

    Quadratic in the input length; intended for feature-length vectors where
    the length need not be a power of two.  Returns a complex128 array.
    """
    x = check_vec(x, "dft input")
    d = x.shape[0]
    kt = np.outer(np.arange(d), np.arange(d))
    w = np.exp(-2j * np.pi * kt / d)
    return w @ x.astype(np.complex128)


def idft(spectrum: np.ndarray) -> np.ndarray:
    """Inverse of :func:`dft`: x[t] = (1/d) sum_k X[k] exp(+2 pi i k t / d)."""
    spectrum = np.asarray(spectrum, dtype=np.complex128)
    if spectrum.ndim != 1 or spectrum.size < 1:
        raise DimMismatch("idft input must be a 1-D complex vector")
    d = spectrum.shape[0]
    kt = np.outer(np.arange(d), np.arange(d))
    w = np.exp(2j * np.pi * kt / d)
    return (w @ spectrum) / d


def _bit_reverse_indices(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    return rev


def fft_radix2(x: np.ndarray) -> np.ndarray:
    """Radix-2 Cooley-Tukey FFT along the last axis, batched over leading axes.

    The length of the last axis must be a power of two.  Matches :func:`dft`
    on common inputs to well below 1e-9.
    """
    arr = np.asarray(x)
    n = arr.shape[-1]
    if n < 1 or (n & (n - 1)) != 0:
        raise DimMismatch(f"fft_radix2 length must be a power of two, got {n}")
    out = arr[..., _bit_reverse_indices(n)].astype(np.complex128)
    size = 2
    while size <= n:
        half = size // 2
        tw = np.exp(-2j * np.pi * np.arange(half) / size)
        blocks = out.reshape(*out.shape[:-1], n // size, size)
        even = blocks[..., :half]
        odd = blocks[..., half:] * tw
        out = np.concatenate([even + odd, even - odd], axis=-1).reshape(arr.shape)
        size *= 2
    return out
