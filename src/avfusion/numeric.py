"""Dense numeric primitives.

Conventions used throughout the package: vectors are 1-D float64 arrays,
matrices are 2-D row-major float64 arrays, batches stack samples along a
leading axis.  A feature set, one sample's input to an intra-modal fusion,
is an (n, d) matrix of n frame vectors of dim d.  Non-finite values are
rejected once, where data enters the package (``check_finite``,
``check_vec``, ``check_set``); the arithmetic primitives below assume
validated input.  Fourier transforms are numpy's (``np.fft``).
"""

import math

import numpy as np

from .errors import DimMismatch, NonFiniteValue

# Batched code walks its rows in ``row_blocks``, whose widest temporaries hold
# at most this many float64 values (128 KiB), so peak memory does not grow
# with the batch, or with the clip in the audio front end (16 frames of 1024
# points).  Training and scoring reuse FBP's block buffers through a ``Scratch``.
BLOCK_FLOATS = 1 << 14


def row_blocks(start: int, stop: int, row_floats: int) -> list:
    """Slices that cover rows start..stop-1 in order, each of at most
    max(1, BLOCK_FLOATS // row_floats) rows, for rows whose widest
    temporaries hold ``row_floats`` values each."""
    step = max(1, BLOCK_FLOATS // row_floats)
    return [slice(lo, min(lo + step, stop)) for lo in range(start, stop, step)]


class Scratch:
    """Buffers that one training or scoring call reuses across its row blocks.

    ``take`` returns a C-contiguous float64 view of uninitialized values,
    in a buffer grown when a block is larger than any before.  A view is
    valid until the next ``take`` of its name, so a scratch belongs to one
    caller at a time: ``train_rows`` makes one per call, and a model's
    ``predict_rows`` calls take turns with the model's own.
    """

    def __init__(self):
        self._flat = {}

    def take(self, name: str, shape: tuple) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size)
        return flat[:size].reshape(shape)


def scratch_out(scratch: Scratch | None, name: str, shape: tuple):
    """``out=`` for a numpy operation: a view from ``scratch``, or None
    without one, so that numpy allocates as usual."""
    return None if scratch is None else scratch.take(name, shape)


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


def check_set(x, name: str) -> np.ndarray:
    """Validate and return a finite (n, d) float64 feature set with n, d >= 1."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimMismatch(f"{name} must be n >= 1 vectors of dim >= 1, got shape {arr.shape}")
    return check_finite(arr, name)


def sigmoid(x):
    """Numerically stable logistic function, elementwise on scalars or arrays.

    Only exponentials of non-positive arguments are evaluated, so there is no
    overflow for any finite input: 1/(1+e) for x >= 0 and e/(1+e) for x < 0,
    with e = exp(-|x|).
    """
    arr = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(arr))
    return np.where(arr >= 0, 1.0, e) / (1.0 + e)


def softmax(z: np.ndarray) -> np.ndarray:
    """Shift-invariant softmax along the last axis (max-subtraction stabilized)."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)
