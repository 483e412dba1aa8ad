"""End-to-end experiment harness.

A FusionPipeline composes one intra-modal attention per modality, a
cross-modal fusion (factorized bilinear pooling or concatenation), and a
softmax classifier.  Gradients are chained by hand through all stages, so
the whole pipeline passes the central-difference gradient check.

``run_experiment`` generates a synthetic dataset, trains the pipeline with
gradient descent on a seeded 80/20 split, evaluates with class-reweighted
predictions, and optionally writes a flat text report, a confusion-matrix
CSV, and a binary checkpoint.  Identical config and seed give byte-identical
outputs.
"""

import os
from dataclasses import dataclass

import numpy as np

from . import attention, fbp
from .classifier import (ClassScores, ClassWeights, SoftmaxParams,
                         apply_class_weights, class_probs, xent_rows)
from .config import ExperimentConfig, config_summary, resolved_class_weights
from .errors import DimMismatch, EmptyDataset, NumericalDivergence
from .features import FeatureSet
from .featfile import save_checkpoint
from .numeric import BLOCK_FLOATS, check_finite
from .rng import Rng
from .synthetic import SyntheticDataset, enhanced_dim, gen_synthetic


@dataclass
class Metrics:
    accuracy: float
    per_class_recall: np.ndarray  # (C,)
    confusion: np.ndarray         # (C, C) ints, rows = true class


def compute_metrics(y_true, y_pred, classes: int) -> Metrics:
    confusion = np.zeros((classes, classes), dtype=np.int64)
    np.add.at(confusion, (np.asarray(y_true, dtype=np.int64),
                          np.asarray(y_pred, dtype=np.int64)), 1)
    total = int(confusion.sum())
    accuracy = float(np.trace(confusion)) / total if total else 0.0
    row_sums = confusion.sum(axis=1)
    recall = np.where(row_sums > 0, np.diag(confusion) / np.maximum(row_sums, 1), 0.0)
    return Metrics(accuracy=accuracy, per_class_recall=recall, confusion=confusion)


class IntraStage:
    """One modality's attention pooling with a uniform batched forward/backward API."""

    def __init__(self, kind: str, in_dim: int, hidden: int, rng: Rng):
        if kind not in attention.POOLS:
            raise ValueError(f"unknown intra fusion kind {kind!r}")
        self.kind = kind
        self.in_dim = in_dim
        init, self._pool, self._backward, out_dim = attention.POOLS[kind]
        self.params = init(in_dim, hidden, rng)
        self.out_dim = out_dim(in_dim)
        # floats per feature in the widest (B, n, .) intermediate
        self.frame_floats = max(in_dim, hidden) if kind == "transformer" else in_dim

    def pool(self, feats: np.ndarray):
        """(B, n, in_dim) stacked feature sets -> ((B, out_dim) pooled rows, cache)."""
        return self._pool(feats, *self.params.values())

    def backward(self, cache, d_pooled: np.ndarray) -> dict:
        """Parameter gradients summed over the batch; no input gradient is formed."""
        grads = self._backward(cache, d_pooled)
        # the trailing input gradient is None here and falls off the zip
        return dict(zip(self.params, grads))

    def forward(self, fs: FeatureSet):
        """One feature set -> (pooled vector, cache): the B=1 case of ``pool``."""
        if fs.dim != self.in_dim:
            raise DimMismatch(f"features have dim {fs.dim}, the stage expects {self.in_dim}")
        pooled, cache = self.pool(fs.vectors[None])
        return pooled[0], cache


def _stack_sets(sets, dim: int, name: str) -> np.ndarray:
    """Equal-size feature sets stacked into one finite (B, n, dim) array."""
    shape = sets[0].vectors.shape
    if shape[1] != dim:
        raise DimMismatch(f"{name} features have dim {shape[1]}, the model expects {dim}")
    if any(fs.vectors.shape != shape for fs in sets):
        raise DimMismatch(f"{name} feature sets differ in size; every set must be {shape}")
    return check_finite(np.array([fs.vectors for fs in sets]), f"{name} features")


class FusionPipeline:
    """Attention pooling per modality -> cross-modal fusion -> softmax.

    The arithmetic runs on stacked batches: ``fuse_rows``, ``batch_loss``
    and ``predict_rows`` take (B, n, d) audio and visual arrays, which
    ``stack`` validates.  Training, scoring, the CLI's ``fuse`` and the
    gradient checks all run this one forward.
    """

    def __init__(self, cfg: ExperimentConfig, rng: Rng):
        self.cfg = cfg
        visual_in = enhanced_dim(cfg.visual_dim, cfg.enhance_mode)
        self.audio = IntraStage(cfg.audio_fusion, cfg.audio_dim, cfg.attn_hidden, rng)
        self.visual = IntraStage(cfg.visual_fusion, visual_in, cfg.attn_hidden, rng)
        m, n = self.audio.out_dim, self.visual.out_dim
        if cfg.cross_mode == "fbp":
            self.fbp_params = fbp.FBPParams.init(m, n, cfg.fbp_k, cfg.fbp_o,
                                                 cfg.fbp_dropout, rng)
            clf_in = cfg.fbp_o
        else:
            self.fbp_params = None
            clf_in = m + n
        self.clf = SoftmaxParams.init(cfg.classes, clf_in, rng)
        self.class_weights = ClassWeights(np.array(resolved_class_weights(cfg)))

    # --- parameter registry -------------------------------------------------
    def tensors(self) -> dict:
        out = {}
        for prefix, stage in (("audio", self.audio), ("visual", self.visual)):
            for name, arr in stage.params.items():
                out[f"{prefix}.{name}"] = arr
        if self.fbp_params is not None:
            out["fbp.u_tilde"] = self.fbp_params.u_tilde
            out["fbp.v_tilde"] = self.fbp_params.v_tilde
        out["clf.weight"] = self.clf.weight
        out["clf.bias"] = self.clf.bias
        return out

    def set_tensors(self, tensors: dict) -> None:
        current = self.tensors()
        if set(tensors) != set(current):
            missing = set(current) - set(tensors)
            extra = set(tensors) - set(current)
            raise DimMismatch(f"checkpoint tensors do not match model "
                              f"(missing {sorted(missing)}, unexpected {sorted(extra)})")
        for name, arr in tensors.items():
            arr = np.asarray(arr, dtype=np.float64)
            target = current[name]
            if arr.size != target.size:
                raise DimMismatch(f"tensor {name!r} has {arr.size} entries, "
                                  f"model expects {target.size}")
            target[...] = arr.reshape(target.shape)

    # --- input validation ---------------------------------------------------
    def stack(self, audio_sets, visual_sets, labels=None):
        """Validated (B, n, d) audio and visual arrays, and (B,) int labels.

        Every set of a modality must have the same size (ragged sets raise
        DimMismatch); labels must lie in 0..classes-1.
        """
        audio = _stack_sets(audio_sets, self.audio.in_dim, "audio")
        visual = _stack_sets(visual_sets, self.visual.in_dim, "visual")
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
            if np.any((labels < 0) | (labels >= self.clf.classes)):
                raise DimMismatch(f"labels must lie in 0..{self.clf.classes - 1}")
        return audio, visual, labels

    def block_rows(self, audio: np.ndarray, visual: np.ndarray) -> int:
        """Rows per block: one row's share of every stage's widest intermediate,
        summed, times the rows is at most BLOCK_FLOATS (51 rows by default)."""
        fused = self.clf.weight.shape[1]
        if self.fbp_params is not None:
            fused = max(fused, self.fbp_params.u_tilde.shape[1])
        row_floats = (audio.shape[1] * self.audio.frame_floats
                      + visual.shape[1] * self.visual.frame_floats + fused)
        return max(1, BLOCK_FLOATS // row_floats)

    @property
    def dropout_active(self) -> bool:
        return self.fbp_params is not None and self.fbp_params.dropout_p > 0.0

    # --- forward / backward on stacked rows ---------------------------------
    def fuse_rows(self, audio, visual, mask_scale=None):
        """(B, fused) rows and the stage caches; no dropout when ``mask_scale`` is None."""
        a_vec, a_cache = self.audio.pool(audio)
        v_vec, v_cache = self.visual.pool(visual)
        if self.fbp_params is not None:
            fused, f_cache = fbp.fbp_rows(a_vec, v_vec, self.fbp_params, mask_scale)
        else:
            fused, f_cache = np.concatenate([a_vec, v_vec], axis=1), None
        return fused, (a_cache, v_cache, f_cache)

    def batch_loss(self, audio, visual, labels, mask_scale=None):
        """Summed loss and hand-chained gradients over stacked rows.

        ``mask_scale`` is the (B, k*o) rescaled FBP dropout mask, None for
        no dropout.
        """
        fused, (a_cache, v_cache, f_cache) = self.fuse_rows(audio, visual, mask_scale)
        loss, d_weight, d_bias, d_fused = xent_rows(fused, labels, self.clf.weight,
                                                    self.clf.bias)
        grads = {"clf.weight": d_weight, "clf.bias": d_bias}
        if f_cache is not None:
            d_u, d_v_tilde, d_a, d_v = fbp.fbp_rows_backward(f_cache, d_fused)
            grads["fbp.u_tilde"] = d_u
            grads["fbp.v_tilde"] = d_v_tilde
        else:
            d_a = d_fused[:, :self.audio.out_dim]
            d_v = d_fused[:, self.audio.out_dim:]
        for prefix, stage, cache, d_vec in (("audio", self.audio, a_cache, d_a),
                                            ("visual", self.visual, v_cache, d_v)):
            for name, g in stage.backward(cache, d_vec).items():
                grads[f"{prefix}.{name}"] = g
        return loss, grads

    def update_loss(self, audio, visual, labels, key: int | None = None):
        """Summed loss and gradients of one update, walked in row blocks.

        ``key`` keys the dropout counter stream for this update (None: no
        dropout).  Row r uses counters r*k*o .. (r+1)*k*o - 1, so the masks,
        and the result up to summation order, do not depend on the blocks.
        """
        step = self.block_rows(audio, visual)
        total, acc = 0.0, None
        for r0 in range(0, len(labels), step):
            r1 = min(r0 + step, len(labels))
            mask = None if key is None else fbp.dropout_scale(key, r0, r1, self.fbp_params)
            loss, grads = self.batch_loss(audio[r0:r1], visual[r0:r1], labels[r0:r1], mask)
            total += loss
            if acc is None:
                acc = grads
            else:
                for name, g in grads.items():
                    acc[name] += g
        return total, acc

    def predict_rows(self, audio, visual) -> np.ndarray:
        """Class-reweighted predictions (B,) for stacked rows, in row blocks.

        As in training, numpy's overflow warnings are silenced; non-finite
        scores raise NonFiniteValue.
        """
        step = self.block_rows(audio, visual)
        preds = []
        with np.errstate(over="ignore", invalid="ignore"):
            for r0 in range(0, len(audio), step):
                fused, _ = self.fuse_rows(audio[r0:r0 + step], visual[r0:r0 + step])
                scores = ClassScores(class_probs(fused, self.clf.weight, self.clf.bias))
                preds.append(apply_class_weights(scores, self.class_weights)[1])
        return np.concatenate(preds)


def stack_samples(model: FusionPipeline, samples):
    """(audio, visual, labels) arrays for a list of (audio, visual, label) triples."""
    return model.stack([s[0] for s in samples], [s[1] for s in samples],
                       [s[2] for s in samples])


def descend(tensors: dict, n: int, step, epochs: int, lr: float, rng: Rng | None,
            batch_size: int = 0) -> list:
    """Gradient descent on ``tensors`` in place; returns the per-epoch mean loss.

    ``step(batch)`` returns (summed loss, gradients by tensor name) over the
    rows ``batch`` of the n training rows: ``slice(None)`` for a full-batch
    epoch, else an index array of a mini-batch of ``batch_size`` from an
    order ``rng`` shuffles each epoch.  numpy's overflow and invalid-value
    warnings are silenced: the check is the mean loss of each epoch, and a
    non-finite one raises NumericalDivergence.
    """
    curve = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            if batch_size:
                order = list(range(n))
                rng.shuffle(order)
                batches = [np.array(order[i:i + batch_size])
                           for i in range(0, n, batch_size)]
            else:
                batches = [slice(None)]
            total = 0.0
            for batch in batches:
                loss, grads = step(batch)
                total += loss
                rows = n if batch_size == 0 else len(batch)
                for name, arr in tensors.items():
                    arr -= lr * grads[name] / rows
            avg = total / n
            if not np.isfinite(avg):
                raise NumericalDivergence(f"training loss became {avg} at epoch {epoch}")
            curve.append(avg)
    return curve


def train_pipeline(model: FusionPipeline, samples, epochs: int, lr: float,
                   rng: Rng, batch_size: int = 0) -> list:
    """Gradient descent over (audio, visual, label) triples; returns loss curve.

    The samples are validated and stacked once.  Each update (the whole set,
    or a shuffled mini-batch of ``batch_size``) is one batched step; with
    FBP dropout it draws one ``rng.next_u64()`` key for its masks.
    """
    if not samples:
        raise EmptyDataset("no training samples")
    audio, visual, labels = stack_samples(model, samples)

    def step(batch):
        key = rng.next_u64() if model.dropout_active else None
        return model.update_loss(audio[batch], visual[batch], labels[batch], key)

    return descend(model.tensors(), len(labels), step, epochs, lr, rng, batch_size)


def split_indices(n: int, rng: Rng, train_frac: float = 0.8):
    """Seeded shuffle split; returns (train_idx, test_idx)."""
    order = list(range(n))
    rng.shuffle(order)
    cut = int(round(train_frac * n))
    return order[:cut], order[cut:]


def experiment_rngs(seed: int) -> dict:
    """Fixed derivation order for the per-purpose child generators."""
    root = Rng(seed)
    return {"data": root.split(), "split": root.split(),
            "init": root.split(), "train": root.split()}


@dataclass
class ExperimentResult:
    metrics: Metrics
    loss_curve: list
    model: FusionPipeline
    report_path: str | None = None
    confusion_path: str | None = None
    checkpoint_path: str | None = None


def prepare_dataset(cfg: ExperimentConfig):
    """Dataset plus the split both train and eval agree on."""
    rngs = experiment_rngs(cfg.seed)
    dataset = gen_synthetic(cfg, rngs["data"])
    train_idx, test_idx = split_indices(len(dataset.samples), rngs["split"])
    return dataset, train_idx, test_idx, rngs


def evaluate_pipeline(model: FusionPipeline, dataset: SyntheticDataset, indices) -> Metrics:
    """Metrics of class-reweighted predictions on the indexed samples, batched."""
    samples = [dataset.samples[i] for i in indices]
    if not samples:
        return compute_metrics([], [], dataset.classes)
    audio, visual, labels = stack_samples(model, samples)
    return compute_metrics(labels, model.predict_rows(audio, visual), dataset.classes)


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None,
                   train_on_all: bool = False) -> ExperimentResult:
    dataset, train_idx, test_idx, rngs = prepare_dataset(cfg)
    model = FusionPipeline(cfg, rngs["init"])
    chosen = list(range(len(dataset.samples))) if train_on_all else train_idx
    train_samples = [dataset.samples[i] for i in chosen]
    curve = train_pipeline(model, train_samples, cfg.epochs, cfg.lr,
                           rngs["train"], cfg.batch_size)
    metrics = evaluate_pipeline(model, dataset, test_idx)
    result = ExperimentResult(metrics=metrics, loss_curve=curve, model=model)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        result.report_path = os.path.join(out_dir, "report.txt")
        result.confusion_path = os.path.join(out_dir, "confusion.csv")
        result.checkpoint_path = os.path.join(out_dir, "checkpoint.bin")
        with open(result.report_path, "w", encoding="utf-8") as fh:
            fh.write(render_report(cfg, metrics, curve, len(chosen), len(test_idx)))
        with open(result.confusion_path, "w", encoding="utf-8") as fh:
            for row in metrics.confusion:
                fh.write(",".join(str(int(v)) for v in row) + "\n")
        save_checkpoint(result.checkpoint_path, model.tensors())
    return result


def render_report(cfg: ExperimentConfig, metrics: Metrics, curve, n_train, n_test) -> str:
    lines = [f"accuracy={metrics.accuracy!r}",
             f"samples.train={n_train}",
             f"samples.test={n_test}"]
    if curve:
        lines.append(f"loss.first={curve[0]!r}")
        lines.append(f"loss.last={curve[-1]!r}")
    for c, r in enumerate(metrics.per_class_recall):
        lines.append(f"recall.{c}={float(r)!r}")
    lines.append("")
    lines.append("[config]")
    lines.append(config_summary(cfg))
    lines.append("")
    return "\n".join(lines)
