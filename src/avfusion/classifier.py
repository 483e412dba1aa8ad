"""Softmax classifier, hand-derived cross-entropy gradients, class re-weighting.

``SoftmaxParams`` is the pipeline's classifier stage: ``loss`` sums the
cross-entropy of stacked (B, d_in) rows and ``backward`` takes its cache.
Scoring calls ``class_probs`` on the stage's arrays.
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

    @property
    def params(self) -> dict:
        return {"weight": self.weight, "bias": self.bias}

    def loss(self, x: np.ndarray, labels: np.ndarray):
        """(summed cross-entropy over the rows x (B, d_in), cache (x, labels, probs)).

        The loss ends the chain: ``backward`` takes no g.
        """
        probs = class_probs(x, self.weight, self.bias)
        rows = np.arange(labels.shape[0])
        loss = -float(np.log(np.maximum(probs[rows, labels], 1e-300)).sum())
        return loss, (x, labels, probs)

    def backward(self, cache):
        """(gradients summed over the rows, d_x per row); d_logits = probs - onehot(label)."""
        x, labels, probs = cache
        d_logits = probs - (np.arange(probs.shape[1]) == labels[:, None])
        return {"weight": d_logits.T @ x, "bias": d_logits.sum(axis=0)}, d_logits @ self.weight


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
