"""Intra-modal attention pooling.

Three mechanisms collapse a FeatureSet {f_1..f_n} into one vector:

* self-attention: a_i = sigmoid(f_i . w0), pooled = sum(a_i f_i) / sum(a_j)
* relation-attention: b_i = sigmoid([f_i : f_s] . w1) on top of the
  self-attention global vector f_s; pooled = sum(a_i b_i [f_i : f_s]) /
  sum(a_j b_j), dimension 2d.  Because f_s is common to every concatenated
  term, the trailing d entries of the pooled vector are f_s itself; the
  forward exploits that and copies f_s in exactly.
* transformer-attention: g_i = exp(u . tanh(W2 f_i + bias)), pooled =
  sum(g_i f_i) / sum(g_j); the normalized weights are computed in log space
  with max-subtraction so a uniform rescale of g can never overflow

Normalized weights are formed before pooling, so a single feature pools to
itself exactly (w_1 = a_1/a_1 = 1.0 in floating point too).  All three are
set functions: permuting the inputs permutes the returned weights and leaves
the pooled vector unchanged.

The ``*_pool`` functions are the implementation: they take a batch of
feature sets stacked as a (B, n, d) array and return (B, out) pooled rows
plus a cache, and their backward passes return parameter gradients summed
over the batch.  The gradient with respect to the input features is only
formed when asked for.  ``self_attend`` and friends are the validated
per-sample API, the B=1 case of the same code.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimMismatch, MissingForwardCache
from .features import FeatureSet
from .numeric import check_mat, check_vec, sigmoid
from .rng import Rng


@dataclass
class SelfAttnParams:
    w0: np.ndarray  # (d,)

    @classmethod
    def init(cls, dim: int, rng: Rng) -> "SelfAttnParams":
        scale = 1.0 / np.sqrt(dim)
        return cls(w0=rng.uniform_vec(dim, -scale, scale))


@dataclass
class RelationAttnParams:
    w1: np.ndarray  # (2d,) applied to [f_i : f_s]

    @classmethod
    def init(cls, dim: int, rng: Rng) -> "RelationAttnParams":
        scale = 1.0 / np.sqrt(2 * dim)
        return cls(w1=rng.uniform_vec(2 * dim, -scale, scale))


@dataclass
class TransformerAttnParams:
    w2: np.ndarray  # (m, d)
    b: np.ndarray   # (m,)
    u: np.ndarray   # (m,)

    @classmethod
    def init(cls, dim: int, hidden: int, rng: Rng) -> "TransformerAttnParams":
        scale = 1.0 / np.sqrt(dim)
        w2 = rng.uniform_mat(hidden, dim, -scale, scale)
        return cls(w2=w2, b=np.zeros(hidden), u=np.zeros(hidden))


def _weighted_rows(weights: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """sum_i weights[b, i] * feats[b, i] for every batch row b: (B, d)."""
    return (weights[:, None, :] @ feats)[:, 0]


def _row_dot(feats: np.ndarray, g: np.ndarray) -> np.ndarray:
    """feats[b, i] . g[b] for every b, i: (B, n)."""
    return (feats @ g[:, :, None])[:, :, 0]


# --- self-attention ---------------------------------------------------------


class SelfAttnCache(NamedTuple):
    features: np.ndarray   # (B, n, d)
    w0: np.ndarray
    alpha: np.ndarray      # (B, n) raw sigmoid gates
    alpha_sum: np.ndarray  # (B, 1)
    norm_weights: np.ndarray
    pooled: np.ndarray     # (B, d)


def self_pool(feats: np.ndarray, w0: np.ndarray):
    """Batched self-attention: (B, n, d) -> ((B, d) pooled, cache)."""
    alpha = sigmoid(feats @ w0)
    asum = alpha.sum(axis=1, keepdims=True)  # sigmoid > 0, so asum > 0 always
    norm_weights = alpha / asum
    pooled = _weighted_rows(norm_weights, feats)
    return pooled, SelfAttnCache(feats, w0, alpha, asum, norm_weights, pooled)


def self_pool_backward(cache: SelfAttnCache, d_pooled: np.ndarray,
                       need_features: bool = False, d_alpha: np.ndarray | None = None):
    """Returns (d_w0, d_features or None) for (B, d) upstream gradients.

    ``d_alpha`` lets relation-attention inject an extra upstream gradient on
    the raw gates.
    """
    feats, alpha = cache.features, cache.alpha
    # pooled = sum(alpha_i f_i) / asum;  d pooled / d alpha_i = (f_i - pooled)/asum
    g_alpha = _row_dot(feats - cache.pooled[:, None, :], d_pooled) / cache.alpha_sum
    if d_alpha is not None:
        g_alpha += d_alpha
    g_score = g_alpha * alpha * (1.0 - alpha)
    d_w0 = g_score.reshape(-1) @ feats.reshape(-1, feats.shape[2])
    d_feats = None
    if need_features:
        d_feats = (cache.norm_weights[:, :, None] * d_pooled[:, None, :]
                   + g_score[:, :, None] * cache.w0)
    return d_w0, d_feats


# --- relation-attention -----------------------------------------------------


class RelationAttnCache(NamedTuple):
    self_cache: SelfAttnCache
    w1: np.ndarray
    beta: np.ndarray          # (B, n)
    norm_weights: np.ndarray  # alpha*beta normalized
    weight_sum: np.ndarray    # (B, 1)
    pooled_lo: np.ndarray     # (B, d) weighted average of the f_i


def relation_pool(feats: np.ndarray, w0: np.ndarray, w1: np.ndarray):
    """Batched relation-attention: (B, n, d) -> ((B, 2d) pooled, cache)."""
    d = feats.shape[2]
    f_s, self_cache = self_pool(feats, w0)
    # score t_i = [f_i : f_s] . w1, without forming the concatenation
    beta = sigmoid(feats @ w1[:d] + (f_s @ w1[d:])[:, None])
    weights = self_cache.alpha * beta
    wsum = weights.sum(axis=1, keepdims=True)
    norm_weights = weights / wsum
    pooled_lo = _weighted_rows(norm_weights, feats)
    pooled = np.concatenate([pooled_lo, f_s], axis=1)
    return pooled, RelationAttnCache(self_cache, w1, beta, norm_weights, wsum, pooled_lo)


def relation_pool_backward(cache: RelationAttnCache, d_pooled: np.ndarray,
                           need_features: bool = False):
    """Returns (d_w0, d_w1, d_features or None) for (B, 2d) upstream gradients."""
    self_cache = cache.self_cache
    feats, alpha = self_cache.features, self_cache.alpha
    d = feats.shape[2]
    beta, w1 = cache.beta, cache.w1
    g_lo, g_hi = d_pooled[:, :d], d_pooled[:, d:]

    # low block: weighted average of the f_i under weights alpha*beta
    g_weight = _row_dot(feats - cache.pooled_lo[:, None, :], g_lo) / cache.weight_sum
    g_score = alpha * g_weight * beta * (1.0 - beta)
    g_score_sum = g_score.sum(axis=1)
    # scores t_i = [f_i : f_s] . w1 touch both f_i and f_s
    d_w1 = np.concatenate([g_score.reshape(-1) @ feats.reshape(-1, d),
                           g_score_sum @ self_cache.pooled])
    d_fs = g_hi + g_score_sum[:, None] * w1[d:]
    d_w0, d_feats_sa = self_pool_backward(self_cache, d_fs, need_features,
                                          d_alpha=beta * g_weight)
    d_feats = None
    if need_features:
        d_feats = (cache.norm_weights[:, :, None] * g_lo[:, None, :]
                   + g_score[:, :, None] * w1[:d] + d_feats_sa)
    return d_w0, d_w1, d_feats


# --- transformer-attention --------------------------------------------------


class TransformerAttnCache(NamedTuple):
    features: np.ndarray  # (B, n, d)
    w2: np.ndarray
    u: np.ndarray
    tanh_h: np.ndarray    # (B, n, m)
    weights: np.ndarray   # normalized (B, n)


def transformer_pool(feats: np.ndarray, w2: np.ndarray, b: np.ndarray, u: np.ndarray):
    """Batched transformer-attention: (B, n, d) -> ((B, d) pooled, cache)."""
    tanh_h = np.tanh(feats @ w2.T + b)
    scores = tanh_h @ u
    # normalized weights via max-subtraction
    shifted = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights = shifted / shifted.sum(axis=1, keepdims=True)
    pooled = _weighted_rows(weights, feats)
    return pooled, TransformerAttnCache(feats, w2, u, tanh_h, weights)


def transformer_pool_backward(cache: TransformerAttnCache, d_pooled: np.ndarray,
                              need_features: bool = False):
    """Returns (d_w2, d_b, d_u, d_features or None) for (B, d) upstream gradients."""
    feats, tanh_h, weights = cache.features, cache.tanh_h, cache.weights
    m, d = cache.w2.shape
    g_weight = _row_dot(feats, d_pooled)
    # softmax backward: d score_i = w_i (g_i - sum_j w_j g_j)
    g_score = weights * (g_weight - (weights * g_weight).sum(axis=1, keepdims=True))
    d_u = g_score.reshape(-1) @ tanh_h.reshape(-1, m)
    g_h = (g_score[:, :, None] * cache.u) * (1.0 - tanh_h ** 2)
    flat_g_h = g_h.reshape(-1, m)
    d_w2 = flat_g_h.T @ feats.reshape(-1, d)
    d_b = flat_g_h.sum(axis=0)
    d_feats = None
    if need_features:
        d_feats = weights[:, :, None] * d_pooled[:, None, :] + g_h @ cache.w2
    return d_w2, d_b, d_u, d_feats


# --- validated per-sample API (B = 1) ---------------------------------------


@dataclass
class SelfAttnResult:
    pooled: np.ndarray
    weights: np.ndarray
    cache: SelfAttnCache


@dataclass
class RelationAttnResult:
    pooled: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    cache: RelationAttnCache


@dataclass
class TransformerAttnResult:
    pooled: np.ndarray
    gamma: np.ndarray
    cache: TransformerAttnCache


def _upstream(d_pooled, width: int) -> np.ndarray:
    g = np.asarray(d_pooled, dtype=np.float64)
    if g.shape != (width,):
        raise DimMismatch(f"upstream gradient must have shape ({width},), got {g.shape}")
    return g[None]


def self_attend(fs: FeatureSet, params: SelfAttnParams) -> SelfAttnResult:
    w0 = check_vec(params.w0, "w0")
    if w0.shape[0] != fs.dim:
        raise DimMismatch(f"w0 has dim {w0.shape[0]}, features have dim {fs.dim}")
    pooled, cache = self_pool(fs.vectors[None], w0)
    return SelfAttnResult(pooled=pooled[0], weights=cache.alpha[0], cache=cache)


def self_attend_backward(cache: SelfAttnCache | None, d_pooled: np.ndarray):
    """Gradients of the self-attention pooling: (d_w0, d_features)."""
    if cache is None:
        raise MissingForwardCache("self_attend_backward needs the forward cache")
    d_w0, d_feats = self_pool_backward(cache, _upstream(d_pooled, cache.w0.shape[0]),
                                       need_features=True)
    return d_w0, d_feats[0]


def relation_attend(fs: FeatureSet, p0: SelfAttnParams,
                    p1: RelationAttnParams) -> RelationAttnResult:
    """Second-stage attention on [f_i : f_s]; pooled output has dimension 2d."""
    w0 = check_vec(p0.w0, "w0")
    w1 = check_vec(p1.w1, "w1")
    if w0.shape[0] != fs.dim:
        raise DimMismatch(f"w0 has dim {w0.shape[0]}, features have dim {fs.dim}")
    if w1.shape[0] != 2 * fs.dim:
        raise DimMismatch(f"w1 has dim {w1.shape[0]}, expected {2 * fs.dim}")
    pooled, cache = relation_pool(fs.vectors[None], w0, w1)
    return RelationAttnResult(pooled=pooled[0], alpha=cache.self_cache.alpha[0],
                              beta=cache.beta[0], cache=cache)


def relation_attend_backward(cache: RelationAttnCache | None, d_pooled: np.ndarray):
    """Returns (d_w0, d_w1, d_features)."""
    if cache is None:
        raise MissingForwardCache("relation_attend_backward needs the forward cache")
    d_w0, d_w1, d_feats = relation_pool_backward(
        cache, _upstream(d_pooled, cache.w1.shape[0]), need_features=True)
    return d_w0, d_w1, d_feats[0]


def transformer_attend(fs: FeatureSet, params: TransformerAttnParams) -> TransformerAttnResult:
    w2 = check_mat(params.w2, "w2")
    b = check_vec(params.b, "b")
    u = check_vec(params.u, "u")
    if w2.shape[1] != fs.dim:
        raise DimMismatch(f"w2 shape {w2.shape} does not match feature dim {fs.dim}")
    if b.shape[0] != w2.shape[0] or u.shape[0] != w2.shape[0]:
        raise DimMismatch("b and u must match the hidden dim of w2")
    pooled, cache = transformer_pool(fs.vectors[None], w2, b, u)
    # the raw gamma is part of the per-sample result only
    gamma = np.exp(cache.tanh_h[0] @ u)
    return TransformerAttnResult(pooled=pooled[0], gamma=gamma, cache=cache)


def transformer_attend_backward(cache: TransformerAttnCache | None, d_pooled: np.ndarray):
    """Returns (d_w2, d_b, d_u, d_features)."""
    if cache is None:
        raise MissingForwardCache("transformer_attend_backward needs the forward cache")
    d_w2, d_b, d_u, d_feats = transformer_pool_backward(
        cache, _upstream(d_pooled, cache.w2.shape[1]), need_features=True)
    return d_w2, d_b, d_u, d_feats[0]
