"""Cross-modal fusion by factorized bilinear pooling.

FBP fuses an audio vector a (dim m) and a visual vector v (dim n) through two
linear projections followed by an element-wise product, dropout, sum pooling
over non-overlapping windows of width k, and l2 normalization:

    h = (U~' a) * (V~' v)            # k*o entries
    z_i = sum of window i of h       # o entries
    out = z / ||z||                  # zero vector passes through unchanged

``fbp_rows`` and ``fbp_rows_backward`` are the implementation, on rows of a
batch, and ``FusionPipeline`` runs them; ``fbp_fuse`` fuses one pair, the
validated eval-mode (no dropout) B=1 case.  Concatenation, the other
cross-modal fusion, is one line of ``FusionPipeline.fuse_rows``.

Each output entry is implicitly a bilinear form a' W_i v with
W_i = sum_j u_col[(i-1)k+j] v_col[(i-1)k+j]'; ``fbp_expand`` materializes
those matrices so the factorized path can be checked against the explicit
bilinear model.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimMismatch, NumericalDivergence
from .numeric import Scratch, check_vec, scratch_out
from .rng import Rng, counter_u64

_TINY = np.finfo(np.float64).tiny


@dataclass
class FBPParams:
    u_tilde: np.ndarray  # (m, k*o)
    v_tilde: np.ndarray  # (n, k*o)
    k: int               # pooling window width == rank of each implicit W_i
    o: int               # fused output dim
    dropout_p: float = 0.3

    def __post_init__(self):
        if self.k < 1 or self.o < 1:
            raise DimMismatch(f"k and o must be >= 1, got k={self.k}, o={self.o}")
        if not (0.0 <= self.dropout_p < 1.0):
            raise ValueError(f"dropout_p must lie in [0, 1), got {self.dropout_p}")
        ko = self.k * self.o
        if self.u_tilde.shape[1] != ko or self.v_tilde.shape[1] != ko:
            raise DimMismatch(
                f"projections must have k*o={ko} columns, got "
                f"{self.u_tilde.shape} and {self.v_tilde.shape}")

    @classmethod
    def init(cls, m: int, n: int, k: int, o: int, dropout_p: float, rng: Rng) -> "FBPParams":
        u = rng.uniform_mat(m, k * o, -1.0 / np.sqrt(m), 1.0 / np.sqrt(m))
        v = rng.uniform_mat(n, k * o, -1.0 / np.sqrt(n), 1.0 / np.sqrt(n))
        return cls(u_tilde=u, v_tilde=v, k=k, o=o, dropout_p=dropout_p)


@dataclass
class FusedVec:
    values: np.ndarray
    norm_applied: bool


class FBPCache(NamedTuple):
    a: np.ndarray             # (B, m)
    v: np.ndarray             # (B, n)
    params: FBPParams
    proj_a: np.ndarray        # a U~
    proj_v: np.ndarray        # v V~
    mask_scale: np.ndarray | None  # dropout mask / (1 - p); None without dropout
    z: np.ndarray             # (B, o) pre-norm pooled rows
    out: np.ndarray           # (B, o) fused rows
    denom: np.ndarray | None  # (B, 1) |z|, or 1 where z = 0; None without normalization
    # (rows, their (R, 1) peaks) where a nonzero |z|^2 underflowed, and denom
    # holds |z| / peak; None when no row did
    tiny: tuple | None
    scratch: Scratch | None   # where the backward writes its projection gradients


@dataclass
class FBPResult:
    fused: FusedVec
    cache: FBPCache


def dropout_scale(key: int, first_row: int, stop_row: int, params: FBPParams,
                  scratch: Scratch | None = None) -> np.ndarray:
    """Rescaled dropout mask for rows first_row..stop_row-1 of one update.

    Entry (r, c) keeps its unit when the uniform u = (raw >> 11) / 2^53 from
    counter ``r * k*o + c`` of the counter stream under ``key`` is at least
    p, and is then 1/(1-p), else 0.  Since p * 2^53 is exact, u >= p is
    compared on the raw outputs as raw >= ceil(p * 2^53) << 11, which stays
    below 2^64 for p < 1.  A row's mask depends only on its row number,
    never on how the update is split into blocks.  With a ``scratch``, the
    mask is a view into its buffer, overwritten by the next block's.
    """
    ko = params.k * params.o
    threshold = np.uint64(math.ceil(params.dropout_p * (1 << 53)) << 11)
    raw = counter_u64(key, first_row * ko, stop_row * ko).reshape(-1, ko)
    return np.multiply(raw >= threshold, 1.0 / (1.0 - params.dropout_p),
                       out=scratch_out(scratch, "mask", raw.shape))


# Below 8 terms numpy's reduce adds a window's entries in order from +0.0,
# as k strided slice additions do; from 8 on it sums in pairwise blocks.
# The reduce runs one inner loop per window, about 0.02 us each; a slice
# addition costs about 1.5 us whatever its size.  In a timeit sweep over
# k = 2..7 and 4 to 6,400 windows (numpy 2.4.6, 2-CPU x86 host) the slices
# won from about 64 windows per term on: 128 at k=2, 256 at k=4, 450 at k=7.
_SLICE_WINDOWS_PER_TERM = 64


def window_sums(h: np.ndarray, o: int, k: int) -> np.ndarray:
    """(B, o) sums of the o windows of width k along the rows of h (B, k*o).

    The same bytes as ``h.reshape(-1, o, k).sum(axis=2)``.  For k < 8 on
    at least 64*k windows in all it is k strided slice additions from +0.0,
    which give those bytes (a window of negative zeros sums to +0.0 on
    both); otherwise it is that one reduce, which is faster on small
    blocks such as the B=1 gradient checks'.
    """
    w = h.reshape(-1, o, k)
    if k >= 8 or len(w) * o < _SLICE_WINDOWS_PER_TERM * k:
        return w.sum(axis=2)
    z = np.add(w[:, :, 0], 0.0)
    for j in range(1, k):
        z += w[:, :, j]
    return z


def fbp_rows(a: np.ndarray, v: np.ndarray, params: FBPParams,
             mask_scale: np.ndarray | None = None, normalize: bool = True,
             scratch: Scratch | None = None):
    """Batched FBP: rows a (B, m) and v (B, n) -> ((B, o) fused rows, cache).

    With a ``scratch``, the (B, k*o) projections and product of this call,
    and the projection gradients of its backward, are views into the
    scratch's buffers.  ``window_sums`` pools the product: by k slice
    additions when k < 8 and the block holds at least 64*k windows, else by
    one reduce, with the same bytes either way.
    """
    shape = (len(a), params.u_tilde.shape[1])
    proj_a = np.matmul(a, params.u_tilde, out=scratch_out(scratch, "proj_a", shape))
    proj_v = np.matmul(v, params.v_tilde, out=scratch_out(scratch, "proj_v", shape))
    h = np.multiply(proj_a, proj_v, out=scratch_out(scratch, "h", shape))
    if mask_scale is not None:
        h *= mask_scale
    z = window_sums(h, params.o, params.k)
    tiny = None
    if normalize:
        # a sum of squares that overflows, or underflows on a nonzero row,
        # is recomputed scaled by the row's largest entry
        with np.errstate(over="ignore"):
            sq = (z * z).sum(axis=1, keepdims=True)
        z_norm = np.sqrt(sq)
        if not _TINY <= sq.min() <= sq.max() < np.inf:
            extreme = np.flatnonzero(np.isinf(sq[:, 0]) | (sq[:, 0] < _TINY))
            peak = np.abs(z[extreme]).max(axis=1, keepdims=True)
            peak[peak == 0.0] = 1.0  # a zero row keeps norm 0
            scaled = z[extreme] / peak
            unit_norm = np.sqrt((scaled ** 2).sum(axis=1, keepdims=True))
            z_norm[extreme] = peak * unit_norm
            low = (sq[extreme, 0] < _TINY) & (unit_norm[:, 0] > 0.0)
            if low.any():
                tiny = extreme[low], peak[low]
        # |z|, or 1 where z = 0 so that a zero vector passes through unchanged
        denom = z_norm + (z_norm == 0.0)
        out = z / denom
        if tiny is not None:
            # a nonzero row whose |z|^2 underflowed stays in scaled form: z/peak
            # over |z|/peak loses no bits to the subnormal |z|, and the
            # backward's division by |z| cannot overflow
            denom[tiny[0]] = unit_norm[low]
            out[tiny[0]] = scaled[low] / denom[tiny[0]]
    else:
        denom, out = None, z
    return out, FBPCache(a, v, params, proj_a, proj_v, mask_scale, z, out, denom, tiny,
                         scratch)


def fbp_rows_backward(cache: FBPCache, g: np.ndarray):
    """Returns (d_u_tilde, d_v_tilde, d_a, d_v) for (B, o) upstream gradients.

    Projection gradients are summed over the batch; d_a and d_v are per row.
    """
    params = cache.params
    if cache.denom is not None:
        # out = z/|z|: d_z = (g - (g.out) out) / |z|; zero rows give d_z = g,
        # and the tiny rows peak * d_z
        d_z = (g - (g * cache.out).sum(axis=1, keepdims=True) * cache.out) / cache.denom
    else:
        d_z = g
    d_h = d_z.repeat(params.k, axis=1)
    if cache.mask_scale is not None:
        d_h *= cache.mask_scale
    scratch = cache.scratch
    d_proj_a = np.multiply(d_h, cache.proj_v, out=scratch_out(scratch, "d_proj_a", d_h.shape))
    d_proj_v = np.multiply(d_h, cache.proj_a, out=scratch_out(scratch, "d_proj_v", d_h.shape))
    if cache.tiny is not None:
        # scaled by the projections first, the division by the peak is
        # finite wherever the projection gradients are representable
        rows, peak = cache.tiny
        with np.errstate(over="ignore"):
            d_proj_a[rows] /= peak
            d_proj_v[rows] /= peak
        if not (np.isfinite(d_proj_a[rows]).all() and np.isfinite(d_proj_v[rows]).all()):
            raise NumericalDivergence("FBP backward: on a row with a subnormal |z|, the "
                                      "projection gradients overflow float64")
    d_u = cache.a.T @ d_proj_a
    d_v_tilde = cache.v.T @ d_proj_v
    d_a = d_proj_a @ params.u_tilde.T
    d_v = d_proj_v @ params.v_tilde.T
    return d_u, d_v_tilde, d_a, d_v


def fbp_fuse(a: np.ndarray, v: np.ndarray, params: FBPParams, mode: str = "eval",
             normalize: bool = True) -> FBPResult:
    """Fuse two modality vectors without dropout: the validated B=1 case of ``fbp_rows``.

    ``mode`` must be "eval"; training runs on ``fbp_rows`` with a
    ``dropout_scale`` mask.
    """
    a = check_vec(a, "audio vector")
    v = check_vec(v, "visual vector")
    if mode != "eval":
        raise ValueError(f"mode must be 'eval', got {mode!r}")
    if a.shape[0] != params.u_tilde.shape[0]:
        raise DimMismatch(f"audio dim {a.shape[0]} != u_tilde rows {params.u_tilde.shape[0]}")
    if v.shape[0] != params.v_tilde.shape[0]:
        raise DimMismatch(f"visual dim {v.shape[0]} != v_tilde rows {params.v_tilde.shape[0]}")
    out, cache = fbp_rows(a[None], v[None], params, normalize=normalize)
    return FBPResult(fused=FusedVec(values=out[0], norm_applied=normalize), cache=cache)


def fbp_expand(params: FBPParams) -> list[np.ndarray]:
    """Materialize the o implicit bilinear matrices W_i (each m x n).

    For all a, v: a' W_i v equals the pre-dropout, pre-normalization z_i of
    ``fbp_fuse``.
    """
    mats = []
    for i in range(params.o):
        cols = slice(i * params.k, (i + 1) * params.k)
        mats.append(params.u_tilde[:, cols] @ params.v_tilde[:, cols].T)
    return mats

