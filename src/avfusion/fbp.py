"""Cross-modal fusion: factorized bilinear pooling and plain concatenation.

FBP fuses an audio vector a (dim m) and a visual vector v (dim n) through two
linear projections followed by an element-wise product, dropout, sum pooling
over non-overlapping windows of width k, and l2 normalization:

    h = (U~' a) * (V~' v)            # k*o entries
    z_i = sum of window i of h       # o entries
    out = z / ||z||                  # zero vector passes through unchanged

``fbp_rows`` and ``fbp_rows_backward`` are the implementation, on rows of a
batch; ``fbp_fuse``/``fbp_backward`` are the validated per-sample API.

Each output entry is implicitly a bilinear form a' W_i v with
W_i = sum_j u_col[(i-1)k+j] v_col[(i-1)k+j]'; ``fbp_expand`` materializes
those matrices so the factorized path can be checked against the explicit
bilinear model.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimMismatch, MissingForwardCache
from .numeric import check_vec
from .rng import Rng, counter_uniform


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


def sample_mask_scale(params: FBPParams, rng: Rng | None,
                      dropout_mask=None) -> np.ndarray | None:
    """Rescaled dropout mask of one training sample, as a (1, k*o) row.

    The caller's frozen 0/1 ``dropout_mask`` if given, else row 0 under one
    ``rng.next_u64()`` key; None when p = 0.
    """
    if params.dropout_p == 0.0:
        return None
    if dropout_mask is None:
        if rng is None:
            raise ValueError("train mode with dropout needs an rng or a frozen mask")
        return dropout_scale(rng.next_u64(), 0, 1, params)
    ko = params.k * params.o
    mask = np.asarray(dropout_mask, dtype=np.float64)
    if mask.shape != (ko,):
        raise DimMismatch(f"dropout mask must have shape ({ko},), got {mask.shape}")
    return mask[None] / (1.0 - params.dropout_p)


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
        z_norm = np.sqrt((z * z).sum(axis=1, keepdims=True))
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
             rng: Rng | None = None, normalize: bool = True,
             dropout_mask: np.ndarray | None = None) -> FBPResult:
    """Fuse two modality vectors (the validated B=1 case of ``fbp_rows``).

    ``mode`` is "train" (dropout active) or "eval".  In train mode the
    dropout mask comes from ``sample_mask_scale``: drawn from ``rng`` unless
    an explicit 0/1 ``dropout_mask`` is supplied (gradient checks freeze the
    mask this way).  Survivors are rescaled by 1/(1-p) so the expectation is
    unchanged.
    """
    a = check_vec(a, "audio vector")
    v = check_vec(v, "visual vector")
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if a.shape[0] != params.u_tilde.shape[0]:
        raise DimMismatch(f"audio dim {a.shape[0]} != u_tilde rows {params.u_tilde.shape[0]}")
    if v.shape[0] != params.v_tilde.shape[0]:
        raise DimMismatch(f"visual dim {v.shape[0]} != v_tilde rows {params.v_tilde.shape[0]}")
    mask_scale = sample_mask_scale(params, rng, dropout_mask) if mode == "train" else None
    out, cache = fbp_rows(a[None], v[None], params, mask_scale, normalize)
    return FBPResult(fused=FusedVec(values=out[0], norm_applied=normalize), cache=cache)


def fbp_backward(cache: FBPCache, upstream: np.ndarray):
    """Returns (d_u_tilde, d_v_tilde, d_a, d_v) for a frozen B=1 forward pass."""
    if cache is None:
        raise MissingForwardCache("fbp_backward needs the forward cache")
    params = cache.params
    g = np.asarray(upstream, dtype=np.float64)
    if g.shape != (params.o,):
        raise DimMismatch(f"upstream must have shape ({params.o},), got {g.shape}")
    d_u, d_v_tilde, d_a, d_v = fbp_rows_backward(cache, g[None])
    return d_u, d_v_tilde, d_a[0], d_v[0]


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


def concat_fuse(a: np.ndarray, v: np.ndarray) -> FusedVec:
    """Plain concatenation [a : v]; no normalization."""
    a = check_vec(a, "audio vector")
    v = check_vec(v, "visual vector")
    return FusedVec(values=np.concatenate([a, v]), norm_applied=False)
