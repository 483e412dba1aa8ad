"""Binary file formats for feature sets and parameter checkpoints.

Feature file ("AVF1"): one (n, d) feature set.  4-byte magic, u32 LE
vector count n, u32 LE dim d, then n*d float32 LE values row-major.  The
float32 payload is the only lossy step in the pipeline; everything in
memory is float64.  ``save_features`` checks the set (``check_set``) and
``load_features`` returns a checked (n, d) array.

Checkpoint ("AVFCKPT1"): 8-byte magic, then for each tensor: u16 LE name
length, UTF-8 name, u32 LE rows, u32 LE cols, rows*cols float64 LE
row-major.  Vectors are stored as rows x 1.  Tensor order is preserved, so
identical parameter dicts serialize to identical bytes.  Loading rejects
names that are not UTF-8 or repeat, and non-finite values.
"""

import struct

import numpy as np

from .errors import BadTensorName, CorruptMagic, DimOverflow, TruncatedFile
from .numeric import check_finite, check_set

FEATURE_MAGIC = b"AVF1"
CHECKPOINT_MAGIC = b"AVFCKPT1"
_U32_MAX = 0xFFFFFFFF
_MAX_CELLS = 1 << 28  # refuse absurd headers before allocating


def save_features(path, features) -> None:
    features = check_set(features, "feature set")
    n, d = features.shape
    if n > _U32_MAX or d > _U32_MAX:
        raise DimOverflow(f"feature set {n}x{d} cannot be encoded as u32")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<II", n, d))
        fh.write(features.astype("<f4").tobytes())


def load_features(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 4 or data[:4] != FEATURE_MAGIC:
        raise CorruptMagic("not a feature file (bad magic)")
    if len(data) < 12:
        raise TruncatedFile("feature file header truncated")
    n, d = struct.unpack_from("<II", data, 4)
    if n < 1 or d < 1 or n * d > _MAX_CELLS:
        raise DimOverflow(f"declared dims {n}x{d} are invalid")
    expected = 12 + 4 * n * d
    if len(data) < expected:
        raise TruncatedFile(f"declared {n}x{d} values but payload is short")
    if len(data) > expected:
        raise TruncatedFile(f"{len(data) - expected} trailing bytes after payload")
    values = np.frombuffer(data, dtype="<f4", count=n * d, offset=12)
    # checked before the cast: casting a signalling NaN warns
    return check_finite(values, "feature file").astype(np.float64).reshape(n, d)


def save_checkpoint(path, tensors: dict) -> None:
    """Write named float64 tensors; 1-D arrays are stored as column vectors."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        for name, arr in tensors.items():
            arr = np.asarray(arr, dtype=np.float64)
            if arr.ndim == 1:
                rows, cols = arr.shape[0], 1
            elif arr.ndim == 2:
                rows, cols = arr.shape
            else:
                raise DimOverflow(f"tensor {name!r} has unsupported ndim {arr.ndim}")
            if rows > _U32_MAX or cols > _U32_MAX:
                raise DimOverflow(f"tensor {name!r} shape {arr.shape} cannot be encoded")
            encoded = name.encode("utf-8")
            if len(encoded) > 0xFFFF:
                raise DimOverflow(f"tensor name too long: {name!r}")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<II", rows, cols))
            fh.write(arr.astype("<f8").tobytes())


def load_checkpoint(path) -> dict:
    """Read tensors back as a dict name -> (rows, cols) float64 array."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 8 or data[:8] != CHECKPOINT_MAGIC:
        raise CorruptMagic("not a checkpoint file (bad magic)")
    pos = 8
    tensors = {}
    while pos < len(data):
        if pos + 2 > len(data):
            raise TruncatedFile("checkpoint ends inside a tensor header")
        (name_len,) = struct.unpack_from("<H", data, pos)
        pos += 2
        if pos + name_len + 8 > len(data):
            raise TruncatedFile("checkpoint ends inside a tensor header")
        try:
            name = data[pos:pos + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise BadTensorName(f"tensor name at byte {pos} is not valid UTF-8") from None
        if name in tensors:
            raise BadTensorName(f"tensor {name!r} appears twice")
        pos += name_len
        rows, cols = struct.unpack_from("<II", data, pos)
        pos += 8
        if rows < 1 or cols < 1 or rows * cols > _MAX_CELLS:
            raise DimOverflow(f"tensor {name!r} declares invalid shape {rows}x{cols}")
        nbytes = 8 * rows * cols
        if pos + nbytes > len(data):
            raise TruncatedFile(f"tensor {name!r} payload is short")
        arr = np.frombuffer(data, dtype="<f8", count=rows * cols, offset=pos)
        tensors[name] = check_finite(arr.reshape(rows, cols).copy(), f"tensor {name!r}")
        pos += nbytes
    return tensors
