"""Softmax classifier, hand-derived cross-entropy gradients, class re-weighting.

``class_probs`` and ``xent_rows`` work on stacked (B, d_in) rows.
Training is ``experiment.descend``, the package's one gradient-descent loop.
Predicted scores can be re-weighted by per-class positive factors
before the argmax; the default weight vector used by the experiment configs
reflects square-root class frequencies of an emotion corpus.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch
from .numeric import check_finite, check_vec, softmax
from .rng import Rng

# square-root sample-count weights for the 7 emotion classes
DEFAULT_CLASS_WEIGHTS = (0.15, 0.097, 0.129, 0.185, 0.138, 0.082, 0.215)


@dataclass
class SoftmaxParams:
    weight: np.ndarray  # (C, d_in)
    bias: np.ndarray    # (C,)

    @property
    def classes(self) -> int:
        return self.weight.shape[0]

    @classmethod
    def init(cls, classes: int, d_in: int, rng: Rng) -> "SoftmaxParams":
        scale = 1.0 / np.sqrt(d_in)
        return cls(weight=rng.uniform_mat(classes, d_in, -scale, scale),
                   bias=np.zeros(classes))


@dataclass
class ClassWeights:
    weights: np.ndarray  # (C,), strictly positive

    def __post_init__(self):
        self.weights = check_vec(self.weights, "class weights")
        if np.any(self.weights <= 0.0):
            raise ValueError("class weights must be strictly positive")


@dataclass
class ClassScores:
    probs: np.ndarray  # (C,) or (B, C); nonnegative rows that sum to 1

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim not in (1, 2) or probs.size < 1:
            raise DimMismatch(f"class scores must be (C,) or (B, C), got shape {probs.shape}")
        self.probs = check_finite(probs, "class scores")
        if np.any(probs < 0.0) or np.any(np.abs(probs.sum(axis=-1) - 1.0) > 1e-9):
            raise ValueError("class scores must be a probability vector")


def class_probs(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Softmax class probabilities for input rows x (B, d_in): (B, C)."""
    return softmax(x @ weight.T + bias)


def xent_rows(x: np.ndarray, labels: np.ndarray, weight: np.ndarray, bias: np.ndarray):
    """Summed cross-entropy over rows, and a thunk for its hand-derived gradients.

    Returns (loss sum, backward); ``backward()`` returns (d_weight, d_bias,
    d_x): parameter gradients are summed over the rows, d_x is per row;
    d_logits = probs - onehot(label).
    """
    probs = class_probs(x, weight, bias)
    rows = np.arange(labels.shape[0])
    loss = -float(np.log(np.maximum(probs[rows, labels], 1e-300)).sum())

    def backward():
        d_logits = probs - (np.arange(probs.shape[1]) == labels[:, None])
        return d_logits.T @ x, d_logits.sum(axis=0), d_logits @ weight

    return loss, backward


def apply_class_weights(scores: ClassScores, weights: ClassWeights):
    """Multiply scores by per-class weights (no renormalization) and argmax.

    Ties in the reweighted scores break toward the higher raw score, then
    the lowest index.  Rounding can make two distinct scores tie once scaled
    by the same weight, so this keeps uniform weights from changing the
    prediction.  Returns (reweighted, predicted): an int for one score
    vector, an int array for stacked (B, C) scores.
    """
    probs = scores.probs
    w = weights.weights
    if probs.shape[-1:] != w.shape:
        raise DimMismatch(f"scores dim {probs.shape} != weights dim {w.shape}")
    reweighted = probs * w
    best = reweighted == reweighted.max(axis=-1, keepdims=True)
    predicted = np.argmax(np.where(best, probs, -1.0), axis=-1)
    return reweighted, (int(predicted) if probs.ndim == 1 else predicted)
