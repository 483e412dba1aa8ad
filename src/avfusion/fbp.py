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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimMismatch
from .numeric import check_vec
from .rng import Rng, counter_uniform

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


@dataclass
class FBPResult:
    fused: FusedVec
    cache: FBPCache


def dropout_scale(key: int, first_row: int, stop_row: int, params: FBPParams) -> np.ndarray:
    """Rescaled dropout mask for rows first_row..stop_row-1 of one update.

    Entry (r, c) keeps its unit when counter ``r * k*o + c`` of the
    counter stream under ``key`` is at least p, and is then 1/(1-p), else 0.
    A row's mask depends only on its row number, never on how the update is
    split into blocks.
    """
    ko = params.k * params.o
    u = counter_uniform(key, first_row * ko, stop_row * ko).reshape(-1, ko)
    return np.where(u >= params.dropout_p, 1.0 / (1.0 - params.dropout_p), 0.0)


def fbp_rows(a: np.ndarray, v: np.ndarray, params: FBPParams,
             mask_scale: np.ndarray | None = None, normalize: bool = True):
    """Batched FBP: rows a (B, m) and v (B, n) -> ((B, o) fused rows, cache)."""
    proj_a = a @ params.u_tilde
    proj_v = v @ params.v_tilde
    h = proj_a * proj_v
    if mask_scale is not None:
        h *= mask_scale
    z = h.reshape(-1, params.o, params.k).sum(axis=2)
    if normalize:
        # a sum of squares that overflows, or underflows on a nonzero row,
        # is recomputed scaled by the row's largest entry
        with np.errstate(over="ignore"):
            sq = (z * z).sum(axis=1, keepdims=True)
        z_norm = np.sqrt(sq)
        if not _TINY <= sq.min() <= sq.max() < np.inf:
            extreme = np.flatnonzero(np.isinf(sq[:, 0]) | (sq[:, 0] < _TINY))
            rows = z[extreme]
            peak = np.abs(rows).max(axis=1, keepdims=True)
            peak[peak == 0.0] = 1.0  # a zero row keeps norm 0
            z_norm[extreme] = peak * np.sqrt(((rows / peak) ** 2).sum(axis=1, keepdims=True))
        # |z|, or 1 where z = 0 so that a zero vector passes through unchanged
        denom = z_norm + (z_norm == 0.0)
        out = z / denom
    else:
        denom, out = None, z
    return out, FBPCache(a, v, params, proj_a, proj_v, mask_scale, z, out, denom)


def fbp_rows_backward(cache: FBPCache, g: np.ndarray):
    """Returns (d_u_tilde, d_v_tilde, d_a, d_v) for (B, o) upstream gradients.

    Projection gradients are summed over the batch; d_a and d_v are per row.
    """
    params = cache.params
    if cache.denom is not None:
        # out = z/|z|: d_z = (g - (g.out) out) / |z|; zero rows give d_z = g
        d_z = (g - (g * cache.out).sum(axis=1, keepdims=True) * cache.out) / cache.denom
    else:
        d_z = g
    d_h = d_z.repeat(params.k, axis=1)
    if cache.mask_scale is not None:
        d_h *= cache.mask_scale
    d_proj_a = d_h * cache.proj_v
    d_proj_v = d_h * cache.proj_a
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

