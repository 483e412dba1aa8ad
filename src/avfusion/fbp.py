"""Cross-modal fusion by factorized bilinear pooling.

FBP fuses an audio vector a (dim m) and a visual vector v (dim n) through two
linear projections followed by an element-wise product, dropout, sum pooling
over non-overlapping windows of width k, and l2 normalization:

    h = (U~' a) * (V~' v)            # k*o entries
    z_i = sum of window i of h       # o entries
    out = z / ||z||                  # zero vector passes through unchanged

``FBPParams`` is the pipeline's FBP cross stage: ``fuse`` runs on rows of
a batch, ``backward`` takes its cache, and ``dropout_mask`` draws the
rescaled mask ``fuse`` applies in training.  ``fbp_fuse`` fuses one pair,
the validated eval-mode B=1 case.  The other cross stage, concatenation, is
``experiment.Concat``.

Each output entry is implicitly a bilinear form a' W_i v with
W_i = sum_j u_col[(i-1)k+j] v_col[(i-1)k+j]'; the tests materialize those
matrices to check the factorized path against the explicit bilinear model.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimMismatch, NumericalDivergence
from .numeric import Scratch, check_vec, reduce_last, scratch_out
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
        # the fused width, and the floats per row of the widest intermediate
        self.out_dim, self.width = self.o, ko

    @classmethod
    def init(cls, m: int, n: int, k: int, o: int, dropout_p: float, rng: Rng) -> "FBPParams":
        u = rng.uniform_mat(m, k * o, -1.0 / np.sqrt(m), 1.0 / np.sqrt(m))
        v = rng.uniform_mat(n, k * o, -1.0 / np.sqrt(n), 1.0 / np.sqrt(n))
        return cls(u_tilde=u, v_tilde=v, k=k, o=o, dropout_p=dropout_p)

    # --- as the cross stage of ``experiment.FusionPipeline`` ---------------
    @property
    def params(self) -> dict:
        return {"u_tilde": self.u_tilde, "v_tilde": self.v_tilde}

    def dropout_mask(self, key: int, first_row: int, stop_row: int,
                     scratch: Scratch | None = None) -> np.ndarray:
        """Rescaled dropout mask for rows first_row..stop_row-1 of one update.

        Entry (r, c) keeps its unit when the uniform u = (raw >> 11) / 2^53
        from counter ``r * k*o + c`` of the counter stream under ``key`` is at
        least p, and is then 1/(1-p), else 0.  Since p * 2^53 is exact, u >= p
        is compared on the raw outputs as raw >= ceil(p * 2^53) << 11, which
        stays below 2^64 for p < 1.  A row's mask depends only on its row
        number, never on how the update is split into blocks.  With a
        ``scratch``, the mask is a view into its buffer, overwritten by the
        next block's.
        """
        ko = self.k * self.o
        threshold = np.uint64(math.ceil(self.dropout_p * (1 << 53)) << 11)
        raw = counter_u64(key, first_row * ko, stop_row * ko).reshape(-1, ko)
        return np.multiply(raw >= threshold, 1.0 / (1.0 - self.dropout_p),
                           out=scratch_out(scratch, "mask", raw.shape))

    def fuse(self, a: np.ndarray, v: np.ndarray, mask_scale: np.ndarray | None = None,
             scratch: Scratch | None = None):
        """Batched FBP: rows a (B, m) and v (B, n) -> ((B, o) fused rows, cache).

        ``mask_scale`` is a ``dropout_mask``, None for no dropout.  With a
        ``scratch``, the (B, k*o) projections and product of this call, and
        the projection gradients of its backward, are views into the
        scratch's buffers.  ``window_sums`` pools the product: by k slice
        additions when k < 8 and the block holds at least 64*k windows, else
        by one reduce, with the same bytes either way.  When every row's sum
        of squares is a normal float, the rows are divided by their norms and
        nothing else; only a block with a zero, subnormal, overflowing or NaN
        sum takes the guarded path described in the README.  It gives an
        ordinary row the same bytes, so ``fuse_projections``, which runs all
        of this after the two projections, is row-wise.
        """
        shape = (len(a), self.width)
        proj_a = np.matmul(a, self.u_tilde, out=scratch_out(scratch, "proj_a", shape))
        proj_v = np.matmul(v, self.v_tilde, out=scratch_out(scratch, "proj_v", shape))
        out, z, denom, tiny = self.fuse_projections(proj_a, proj_v, mask_scale, scratch)
        return out, FBPCache(a, v, proj_a, proj_v, mask_scale, z, out, denom, tiny, scratch)

    def fuse_projections(self, proj_a: np.ndarray, proj_v: np.ndarray,
                         mask_scale: np.ndarray | None, scratch: Scratch | None):
        """The row-wise tail of ``fuse`` on its projections: (out, z, denom, tiny).

        Every step works on each row alone, so a row's bytes do not depend on
        the rows beside it, and one projection may be a single row against
        the other's stack (with a ``scratch``, both are (B, k*o)).
        """
        h = np.multiply(proj_a, proj_v, out=scratch_out(scratch, "h", proj_a.shape))
        if mask_scale is not None:
            h *= mask_scale
        z = window_sums(h, self.o, self.k)
        with np.errstate(over="ignore"):
            sq = reduce_last(np.add, z * z)
        z_norm = np.sqrt(sq)
        if len(sq) == 1:
            ordinary = _TINY <= sq.item() < math.inf
        else:
            ordinary = (_TINY <= np.minimum.reduce(sq, axis=None)
                        <= np.maximum.reduce(sq, axis=None) < np.inf)
        if ordinary:
            # every row ordinary (a NaN sum is not): |z| > 0 is the denominator
            return z / z_norm, z, z_norm, None
        # a sum of squares that overflows, or underflows on a nonzero row,
        # is recomputed scaled by the row's largest entry
        extreme = np.flatnonzero(np.isinf(sq[:, 0]) | (sq[:, 0] < _TINY))
        peak = np.abs(z[extreme]).max(axis=1, keepdims=True)
        peak[peak == 0.0] = 1.0  # a zero row keeps norm 0
        scaled = z[extreme] / peak
        unit_norm = np.sqrt((scaled ** 2).sum(axis=1, keepdims=True))
        z_norm[extreme] = peak * unit_norm
        low = (sq[extreme, 0] < _TINY) & (unit_norm[:, 0] > 0.0)
        tiny = (extreme[low], peak[low]) if low.any() else None
        # |z|, or 1 where z = 0 so that a zero vector passes through unchanged
        denom = z_norm + (z_norm == 0.0)
        out = z / denom
        if tiny is not None:
            # a nonzero row whose |z|^2 underflowed stays in scaled form: z/peak
            # over |z|/peak loses no bits to the subnormal |z|, and the
            # backward's division by |z| cannot overflow
            denom[tiny[0]] = unit_norm[low]
            out[tiny[0]] = scaled[low] / denom[tiny[0]]
        return out, z, denom, tiny

    def backward(self, cache: "FBPCache", g: np.ndarray):
        """({"u_tilde", "v_tilde"} gradients, (d_a, d_v)) for (B, o) upstream gradients.

        Projection gradients are summed over the batch; d_a and d_v are per row.
        """
        # out = z/|z|: d_z = (g - (g.out) out) / |z|; zero rows give d_z = g, and
        # the tiny rows peak * d_z
        d_z = (g - reduce_last(np.add, g * cache.out) * cache.out) / cache.denom
        d_h = d_z.repeat(self.k, axis=1)
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
        grads = {"u_tilde": cache.a.T @ d_proj_a, "v_tilde": cache.v.T @ d_proj_v}
        return grads, (d_proj_a @ self.u_tilde.T, d_proj_v @ self.v_tilde.T)


@dataclass
class FusedVec:
    values: np.ndarray


class FBPCache(NamedTuple):
    a: np.ndarray             # (B, m)
    v: np.ndarray             # (B, n)
    proj_a: np.ndarray        # a U~
    proj_v: np.ndarray        # v V~
    mask_scale: np.ndarray | None  # dropout mask / (1 - p); None without dropout
    z: np.ndarray             # (B, o) pre-norm pooled rows
    out: np.ndarray           # (B, o) fused rows
    denom: np.ndarray         # (B, 1) |z|, or 1 where z = 0
    # (rows, their (R, 1) peaks) where a nonzero |z|^2 underflowed, and denom
    # holds |z| / peak; None when no row did
    tiny: tuple | None
    scratch: Scratch | None   # where the backward writes its projection gradients


@dataclass
class FBPResult:
    fused: FusedVec
    cache: FBPCache


def window_sums(h: np.ndarray, o: int, k: int) -> np.ndarray:
    """(B, o) sums of the o windows of width k along the rows of h (B, k*o):
    the bytes of ``h.reshape(-1, o, k).sum(axis=2)``, by ``reduce_last``."""
    return reduce_last(np.add, h.reshape(-1, o, k)).reshape(-1, o)


def fbp_fuse(a: np.ndarray, v: np.ndarray, params: FBPParams, mode: str = "eval") -> FBPResult:
    """Fuse two modality vectors without dropout: the validated B=1 case of ``FBPParams.fuse``.

    ``mode`` must be "eval"; training runs ``FBPParams.fuse`` with a
    ``dropout_mask``.
    """
    a = check_vec(a, "audio vector")
    v = check_vec(v, "visual vector")
    if mode != "eval":
        raise ValueError(f"mode must be 'eval', got {mode!r}")
    if a.shape[0] != params.u_tilde.shape[0]:
        raise DimMismatch(f"audio dim {a.shape[0]} != u_tilde rows {params.u_tilde.shape[0]}")
    if v.shape[0] != params.v_tilde.shape[0]:
        raise DimMismatch(f"visual dim {v.shape[0]} != v_tilde rows {params.v_tilde.shape[0]}")
    out, cache = params.fuse(a[None], v[None])
    return FBPResult(fused=FusedVec(values=out[0]), cache=cache)
