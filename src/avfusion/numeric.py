"""Dense numeric primitives.

Conventions used throughout the package: vectors are 1-D float64 arrays,
matrices are 2-D row-major float64 arrays, batches stack samples along a
leading axis.  A feature set, one sample's input to an intra-modal fusion,
is an (n, d) matrix of n frame vectors of dim d.  Non-finite values are
rejected once, where data enters the package (``check_finite``,
``check_vec``, ``check_set``); the arithmetic primitives below assume
validated input.  Fourier transforms are numpy's (``np.fft``).

Every sum or maximum along a short last axis in the batched stages (a
clip's attention gates, softmax and class reweighting over the classes,
FBP's windows and row norms) is ``reduce_last``, which gives the bytes of
numpy's reduce and combines the axis's columns instead when the rows are
many.
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


# Below 8 terms numpy's reduce along the last axis combines a row's entries
# in order, a sum starting from +0.0; from 8 on it adds in pairwise blocks.
# The reduce runs one inner loop per row, about 0.02 us each; a column
# operation costs about 1.5 us whatever its size.  In a timeit sweep over
# n = 2..7 terms and 4 to 6,400 rows (numpy 2.4.6, 2-CPU x86 host) the
# columns won from about 64 rows per term on for sums, and from about 16 for
# maxima, whose reduce is slower; one threshold serves both.
_COLUMN_ROWS_PER_TERM = 64


def reduce_last(ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(x, axis=-1, keepdims=True)`` for ufunc np.add or np.maximum.

    For n < 8 entries on the last axis and at least 64*n rows in all, it
    combines the n strided columns in order, a sum from +0.0, which gives
    the reduce's bytes: a row of negative zeros sums to +0.0, and NaN and
    the sign of a zero maximum come out as the reduce's.  Otherwise it is
    that one reduce, which is faster on small blocks such as the B=1
    gradient checks'.
    """
    n = x.shape[-1]
    if x.size < _COLUMN_ROWS_PER_TERM * n * n or not 0 < n < 8:
        return ufunc.reduce(x, axis=-1, keepdims=True)
    out = np.add(x[..., 0], 0.0) if ufunc is np.add else x[..., 0].copy()
    for j in range(1, n):
        ufunc(out, x[..., j], out=out)
    return out.reshape(*out.shape, 1)


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
    e = np.exp(z - reduce_last(np.maximum, z))
    return e / reduce_last(np.add, e)
