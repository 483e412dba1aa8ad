"""Dense numeric primitives.

Conventions used throughout the package: vectors are 1-D float64 arrays,
matrices are 2-D row-major float64 arrays, batches stack samples along a
leading axis.  Non-finite values are rejected once, where data enters the
package (``check_finite``, ``check_vec``); the arithmetic primitives below
assume validated input.  Fourier transforms are numpy's (``np.fft``).
"""

import numpy as np

from .errors import DimMismatch, NonFiniteValue

# Batched code walks its rows in blocks whose widest temporaries hold at most
# this many float64 values (128 KiB): below glibc's mmap threshold, they are
# reused from the heap instead of mapped and faulted in on every operation,
# and peak memory does not grow with the batch.
BLOCK_FLOATS = 1 << 14


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
