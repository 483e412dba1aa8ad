"""Softmax classifier, hand-derived cross-entropy gradients, class re-weighting.

``SoftmaxParams`` is the pipeline's classifier stage: ``loss`` sums the
cross-entropy of stacked (B, d_in) rows and ``backward`` takes its cache.
Scoring calls ``class_probs`` on the stage's arrays.
Training is ``experiment.descend``, the package's one gradient-descent loop.
Class probabilities and class weights are plain arrays: ``apply_class_weights``
multiplies the scores by per-class positive factors before the argmax.  The
weights come from a config, which checks them; the default weight vector
reflects square-root class frequencies of an emotion corpus.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch
from .numeric import reduce_last, softmax
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
        return -float(label_log_probs(probs, labels).sum()), (x, labels, probs)

    def backward(self, cache):
        """(gradients summed over the rows, d_x per row); d_logits = probs - onehot(label)."""
        x, labels, probs = cache
        d_logits = probs - (np.arange(probs.shape[1]) == labels[:, None])
        return {"weight": d_logits.T @ x, "bias": d_logits.sum(axis=0)}, d_logits @ self.weight


def class_probs(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Softmax class probabilities for input rows x (B, d_in): (B, C).

    A stack of S weights (S, C, d_in) gives (S, B, C) probabilities, and at
    B=1 a stack of biases (S, C) gives (S, C): each one's bytes of one call.
    """
    return softmax(x @ weight.swapaxes(-1, -2) + bias)


def label_log_probs(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """log p(label) of each row of (B, C) probabilities, floored at 1e-300: (B,)."""
    return np.log(np.maximum(probs[np.arange(len(labels)), labels], 1e-300))


def apply_class_weights(probs: np.ndarray, weights: np.ndarray):
    """Argmax of (C,) or (B, C) class probabilities times (C,) per-class
    weights, without renormalization: the predicted index for one score
    vector, an int array (B,) for stacked scores.

    Ties in the reweighted scores break toward the higher raw score, then
    the lowest index.  Rounding can make two distinct scores tie once scaled
    by the same weight, so this keeps uniform weights from changing the
    prediction.
    """
    if probs.shape[-1:] != weights.shape:
        raise DimMismatch(f"scores dim {probs.shape} != weights dim {weights.shape}")
    reweighted = probs * weights
    best = reweighted == reduce_last(np.maximum, reweighted)
    return np.argmax(np.where(best, probs, -1.0), axis=-1)
