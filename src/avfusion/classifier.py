"""Softmax classifier with cross-entropy training and class re-weighting.

Training is plain gradient descent (full batch by default, optional seeded
mini-batches).  ``class_probs`` and ``xent_rows`` work on stacked (B, d_in)
rows; ``softmax_forward`` and ``xent_loss_grad`` are their validated
single-sample case.  Predicted scores can be re-weighted by per-class positive
factors before the argmax; the default weight vector used by the experiment
configs reflects square-root class frequencies of an emotion corpus.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, EmptyDataset
from .numeric import check_finite, check_mat, check_vec, softmax
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
    """Summed cross-entropy over rows and its hand-derived gradients.

    Returns (loss sum, d_weight, d_bias, d_x): parameter gradients are summed
    over the rows, d_x is per row; d_logits = probs - onehot(label).
    """
    d_logits = class_probs(x, weight, bias)
    rows = np.arange(labels.shape[0])
    loss = -float(np.log(np.maximum(d_logits[rows, labels], 1e-300)).sum())
    d_logits[rows, labels] -= 1.0
    return loss, d_logits.T @ x, d_logits.sum(axis=0), d_logits @ weight


def _check_input(x, params: SoftmaxParams) -> np.ndarray:
    x = check_vec(x, "classifier input")
    w = check_mat(params.weight, "classifier weight")
    if w.shape[1] != x.shape[0]:
        raise DimMismatch(f"input dim {x.shape[0]} != weight cols {w.shape[1]}")
    return x


def softmax_forward(x: np.ndarray, params: SoftmaxParams) -> ClassScores:
    x = _check_input(x, params)
    return ClassScores(probs=class_probs(x[None], params.weight, params.bias)[0])


def xent_loss_grad(x: np.ndarray, label: int, params: SoftmaxParams):
    """Single-sample cross-entropy loss and hand-derived gradients.

    Returns (loss, d_weight, d_bias, d_x); d_logits = probs - onehot(label).
    """
    x = _check_input(x, params)
    if not 0 <= label < params.classes:
        raise DimMismatch(f"label {label} outside 0..{params.classes - 1}")
    loss, d_weight, d_bias, d_x = xent_rows(x[None], np.array([label]),
                                            params.weight, params.bias)
    return loss, d_weight, d_bias, d_x[0]


def train(features, labels, params: SoftmaxParams, lr: float, epochs: int,
          rng: Rng | None = None, batch_size: int | None = None):
    """Gradient-descent training; returns (trained params, per-epoch loss curve).

    Full-batch by default.  With ``batch_size`` set, sample order is shuffled
    each epoch by the supplied rng (required then) for mini-batch steps.
    """
    xs = [check_vec(x, "feature") for x in features]
    ys = np.asarray(list(labels), dtype=np.int64)
    if len(xs) == 0:
        raise EmptyDataset("no training samples")
    if len(xs) != len(ys):
        raise DimMismatch(f"{len(xs)} features but {len(ys)} labels")
    if len({x.shape for x in xs}) != 1:
        raise DimMismatch("features differ in dim")
    xs = np.stack(xs)
    if np.any((ys < 0) | (ys >= params.classes)):
        raise DimMismatch(f"labels must lie in 0..{params.classes - 1}")
    if lr < 0:
        raise ValueError("lr must be >= 0")
    if batch_size is not None and rng is None:
        raise ValueError("mini-batch training needs an rng for shuffling")

    weight = params.weight.copy()
    bias = params.bias.copy()
    curve = []
    n = len(xs)
    for _ in range(epochs):
        order = list(range(n))
        if batch_size is not None:
            rng.shuffle(order)
        batches = ([order] if batch_size is None else
                   [order[i:i + batch_size] for i in range(0, n, batch_size)])
        total = 0.0
        for batch in batches:
            loss, gw, gb, _ = xent_rows(xs[batch], ys[batch], weight, bias)
            total += loss
            weight = weight - lr * gw / len(batch)
            bias = bias - lr * gb / len(batch)
        curve.append(total / n)
    return SoftmaxParams(weight=weight, bias=bias), curve


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
