"""Intra-modal attention pooling.

Three mechanisms collapse a set of features {f_1..f_n} into one vector:

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
itself exactly (w_1 = a_1/a_1 = 1.0 in floating point too); a set whose
gates all underflow to 0 takes them from its max-shifted log gates.  All three are
set functions: permuting the inputs permutes the returned weights and leaves
the pooled vector unchanged.

Each ``*_pool`` function takes a batch of feature sets stacked as a (B, n, d)
array and returns (B, out) pooled rows plus a cache; its backward pass
returns parameter gradients summed over the batch, and forms the gradient
with respect to the input features only when asked for.  ``POOLS`` maps each
kind to its parameter init, pool, backward and pooled width;
``experiment.IntraStage`` wraps one kind as a pipeline stage.
"""

from typing import NamedTuple

import numpy as np

from .numeric import sigmoid, softmax
from .rng import Rng


def _weighted_rows(weights: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """sum_i weights[b, i] * feats[b, i] for every batch row b: (B, d)."""
    return (weights[:, None, :] @ feats)[:, 0]


def _row_dot(feats: np.ndarray, g: np.ndarray) -> np.ndarray:
    """feats[b, i] . g[b] for every b, i: (B, n)."""
    return (feats @ g[:, :, None])[:, :, 0]


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    """log(sigmoid(x)), finite for every finite x."""
    return np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))


def _saturated_weights(gates: np.ndarray, total: np.ndarray, log_gates: np.ndarray):
    """(weights, sums, saturated) for (B, n) gates some of whose rows sum to
    exactly 0 (all gates underflowed): those rows take softmax(log_gates) and
    a sum of 1."""
    saturated = total[:, 0] == 0.0
    total[saturated] = 1.0
    weights = gates / total
    weights[saturated] = softmax(log_gates[saturated])
    return weights, total, saturated


# --- self-attention ---------------------------------------------------------


class SelfAttnCache(NamedTuple):
    features: np.ndarray   # (B, n, d)
    w0: np.ndarray
    alpha: np.ndarray      # (B, n) raw sigmoid gates
    alpha_sum: np.ndarray  # (B, 1), 1 on saturated rows
    norm_weights: np.ndarray
    pooled: np.ndarray     # (B, d)
    saturated: np.ndarray | None  # (B,) rows whose gates all underflow


def self_pool(feats: np.ndarray, w0: np.ndarray):
    """Batched self-attention: (B, n, d) -> ((B, d) pooled, cache)."""
    scores = feats @ w0
    alpha = sigmoid(scores)
    asum = alpha.sum(axis=1, keepdims=True)
    if np.count_nonzero(asum) == len(asum):  # no zero sum; the cheapest test of it
        norm_weights, saturated = alpha / asum, None
    else:
        norm_weights, asum, saturated = _saturated_weights(alpha, asum, _log_sigmoid(scores))
    pooled = _weighted_rows(norm_weights, feats)
    return pooled, SelfAttnCache(feats, w0, alpha, asum, norm_weights, pooled, saturated)


def self_pool_backward(cache: SelfAttnCache, d_pooled: np.ndarray,
                       need_features: bool = False, d_alpha: np.ndarray | None = None,
                       d_score: np.ndarray | None = None):
    """Returns (d_w0, d_features or None) for (B, d) upstream gradients.

    ``d_alpha`` and ``d_score`` let relation-attention inject extra upstream
    gradients on the raw gates and on the gate scores.
    """
    feats, alpha = cache.features, cache.alpha
    # pooled = sum(alpha_i f_i) / asum;  d pooled / d alpha_i = (f_i - pooled)/asum
    dots = _row_dot(feats - cache.pooled[:, None, :], d_pooled)
    g_alpha = dots / cache.alpha_sum
    if d_alpha is not None:
        g_alpha += d_alpha
    g_score = g_alpha * alpha * (1.0 - alpha)
    rows = cache.saturated
    if rows is not None:
        # the same gradient through log alpha, which has not underflowed
        g_score[rows] = cache.norm_weights[rows] * (1.0 - alpha[rows]) * dots[rows]
    if d_score is not None:
        g_score += d_score
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
    weight_sum: np.ndarray    # (B, 1), 1 on saturated rows
    pooled_lo: np.ndarray     # (B, d) weighted average of the f_i
    saturated: np.ndarray | None  # (B,) rows whose alpha*beta all underflow


def relation_pool(feats: np.ndarray, w0: np.ndarray, w1: np.ndarray):
    """Batched relation-attention: (B, n, d) -> ((B, 2d) pooled, cache)."""
    d = feats.shape[2]
    f_s, self_cache = self_pool(feats, w0)
    # score t_i = [f_i : f_s] . w1, without forming the concatenation
    scores = feats @ w1[:d] + (f_s @ w1[d:])[:, None]
    beta = sigmoid(scores)
    weights = self_cache.alpha * beta
    wsum = weights.sum(axis=1, keepdims=True)
    if np.count_nonzero(wsum) == len(wsum):
        norm_weights, saturated = weights / wsum, None
    else:
        norm_weights, wsum, saturated = _saturated_weights(
            weights, wsum, _log_sigmoid(feats @ w0) + _log_sigmoid(scores))
    pooled_lo = _weighted_rows(norm_weights, feats)
    pooled = np.concatenate([pooled_lo, f_s], axis=1)
    return pooled, RelationAttnCache(self_cache, w1, beta, norm_weights, wsum, pooled_lo,
                                     saturated)


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
    d_alpha, d_score = beta * g_weight, None
    rows = cache.saturated
    if rows is not None:
        # through log(alpha*beta); weight_sum is 1 there, so g_weight holds
        # <f_i - pooled_lo, g_lo> (and d_alpha's share, times alpha, underflows)
        g_log = cache.norm_weights[rows] * g_weight[rows]
        g_score[rows] = g_log * (1.0 - beta[rows])
        d_score = np.zeros_like(alpha)
        d_score[rows] = g_log * (1.0 - alpha[rows])
    g_score_sum = g_score.sum(axis=1)
    # scores t_i = [f_i : f_s] . w1 touch both f_i and f_s
    d_w1 = np.concatenate([g_score.reshape(-1) @ feats.reshape(-1, d),
                           g_score_sum @ self_cache.pooled])
    d_fs = g_hi + g_score_sum[:, None] * w1[d:]
    d_w0, d_feats_sa = self_pool_backward(self_cache, d_fs, need_features, d_alpha, d_score)
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


def _self_init(d: int, hidden: int, rng: Rng) -> dict:
    scale = 1.0 / np.sqrt(d)
    return {"w0": rng.uniform_vec(d, -scale, scale)}


def _relation_init(d: int, hidden: int, rng: Rng) -> dict:
    # w1 (2d,) applies to [f_i : f_s]; drawn after the self-attention w0
    scale = 1.0 / np.sqrt(2 * d)
    return {**_self_init(d, hidden, rng), "w1": rng.uniform_vec(2 * d, -scale, scale)}


def _transformer_init(d: int, hidden: int, rng: Rng) -> dict:
    scale = 1.0 / np.sqrt(d)
    return {"w2": rng.uniform_mat(hidden, d, -scale, scale),
            "b": np.zeros(hidden), "u": np.zeros(hidden)}


# kind -> (init, pool, pool_backward, out_dim): init(d, hidden, rng) draws the
# ordered parameter dict; pool takes (B, n, d) features and then the
# parameters in order; pool_backward returns their gradients in the same
# order, then d_features or None; out_dim(d) is the pooled width
POOLS = {
    "self": (_self_init, self_pool, self_pool_backward, lambda d: d),
    "relation": (_relation_init, relation_pool, relation_pool_backward, lambda d: 2 * d),
    "transformer": (_transformer_init, transformer_pool, transformer_pool_backward,
                    lambda d: d),
}
