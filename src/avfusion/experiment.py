"""End-to-end experiment harness.

A FusionPipeline chains stages: an intra-modal attention per modality
(``IntraStage``), a cross-modal fusion (``fbp.FBPParams`` or ``Concat``) and
a softmax classifier (``classifier.SoftmaxParams``).  Each has ``params``,
its arrays by checkpoint name, a batched forward that returns (output,
cache), and ``backward(cache, g)`` -> (gradients keyed like ``params``, input
gradient or None).  Gradients are chained by hand through the stages, so
the whole pipeline passes the central-difference gradient check.  Its
input is a feature set per modality and sample, an (n, d) array, stacked
into (B, n, d) arrays that ``check_rows`` checks against the model.

``run_experiment`` generates a synthetic dataset, trains the pipeline with
gradient descent on a seeded 80/20 split, evaluates with class-reweighted
predictions, and optionally writes a flat text report, a confusion-matrix
CSV, and a binary checkpoint.  Identical config and seed give byte-identical
outputs.
"""

import os
import threading
from dataclasses import dataclass

import numpy as np

from . import attention, fbp
from .classifier import SoftmaxParams, apply_class_weights, class_probs
from .config import ExperimentConfig, config_summary, resolved_class_weights
from .errors import DimMismatch, EmptyDataset, InvalidConfig, NumericalDivergence
from .featfile import save_checkpoint
from .numeric import Scratch, check_finite, check_set, row_blocks
from .rng import Rng
from .synthetic import SyntheticDataset, enhanced_dim, gen_synthetic


@dataclass
class Metrics:
    accuracy: float
    per_class_recall: np.ndarray     # (C,)
    per_class_precision: np.ndarray  # (C,), 0.0 for a class never predicted
    confusion: np.ndarray            # (C, C) ints, rows = true class


def compute_metrics(y_true, y_pred, classes: int) -> Metrics:
    confusion = np.zeros((classes, classes), dtype=np.int64)
    np.add.at(confusion, (np.asarray(y_true, dtype=np.int64),
                          np.asarray(y_pred, dtype=np.int64)), 1)
    total = int(confusion.sum())
    accuracy = float(np.trace(confusion)) / total if total else 0.0
    row_sums = confusion.sum(axis=1)
    recall = np.where(row_sums > 0, np.diag(confusion) / np.maximum(row_sums, 1), 0.0)
    precision = np.diag(confusion) / np.maximum(confusion.sum(axis=0), 1)
    return Metrics(accuracy=accuracy, per_class_recall=recall,
                   per_class_precision=precision, confusion=confusion)


class IntraStage:
    """One modality's attention pooling with a uniform batched forward/backward API."""

    def __init__(self, kind: str, in_dim: int, hidden: int, rng: Rng):
        if kind not in attention.POOLS:
            raise InvalidConfig(f"unknown intra fusion kind {kind!r}")
        self.in_dim = in_dim
        init, self._pool, self._backward, out_dim = attention.POOLS[kind]
        self.params = init(in_dim, hidden, rng)
        self.out_dim = out_dim(in_dim)
        # floats per feature in the widest (B, n, .) intermediate
        self.frame_floats = max(in_dim, hidden) if kind == "transformer" else in_dim

    def pool(self, feats: np.ndarray):
        """(B, n, in_dim) stacked feature sets -> ((B, out_dim) pooled rows, cache)."""
        return self._pool(feats, *self.params.values())

    def backward(self, cache, d_pooled: np.ndarray):
        """(parameter gradients summed over the batch, None: no input gradient)."""
        *grads, d_feats = self._backward(cache, d_pooled)
        return dict(zip(self.params, grads)), d_feats

    def forward(self, feats):
        """One (n, in_dim) feature set -> (pooled vector, cache): the B=1 case
        of ``pool``.  The set is checked here (``check_set``)."""
        feats = check_set(feats, "features")
        if feats.shape[1] != self.in_dim:
            raise DimMismatch(f"features have dim {feats.shape[1]}, "
                              f"the stage expects {self.in_dim}")
        pooled, cache = self.pool(feats[None])
        return pooled[0], cache


class Concat:
    """Cross-modal fusion by concatenation, [a : v]: a cross stage without parameters."""

    dropout_p = 0.0

    def __init__(self, m: int, n: int):
        self.params = {}
        self.out_dim = self.width = m + n

    def fuse(self, a: np.ndarray, v: np.ndarray, mask_scale, scratch):
        """((B, m+n) rows, m): the cache is where ``backward`` splits."""
        return np.concatenate([a, v], axis=1), a.shape[1]

    def backward(self, m: int, g: np.ndarray):
        return {}, (g[:, :m], g[:, m:])


def _prefixed(**by_stage) -> dict:
    """{"prefix.name": array} from prefix={name: array} keywords, in order."""
    return {f"{prefix}.{name}": arr
            for prefix, arrays in by_stage.items() for name, arr in arrays.items()}


def _stack_sets(sets, name: str) -> np.ndarray:
    """Equal-size feature sets stacked into one finite array; its shape is
    ``check_rows``'s to check."""
    try:
        stacked = np.array(sets, dtype=np.float64)
    except ValueError:  # ragged: numpy cannot stack them
        raise DimMismatch(f"{name} feature sets differ in size; every set must be "
                          f"{np.shape(sets[0])}") from None
    return check_finite(stacked, f"{name} features")


class FusionPipeline:
    """Attention pooling per modality -> cross-modal fusion -> softmax.

    The arithmetic runs on stacked batches: ``fuse_rows``, ``batch_loss``
    and ``predict_rows`` take (B, n, d) audio and visual arrays, which
    ``check_rows`` checks.  Training, scoring, the CLI's ``fuse`` and the
    gradient checks all run this one forward.
    """

    def __init__(self, cfg: ExperimentConfig, rng: Rng):
        visual_in = enhanced_dim(cfg.visual_dim, cfg.enhance_mode)
        self.audio = IntraStage(cfg.audio_fusion, cfg.audio_dim, cfg.attn_hidden, rng)
        self.visual = IntraStage(cfg.visual_fusion, visual_in, cfg.attn_hidden, rng)
        m, n = self.audio.out_dim, self.visual.out_dim
        self.cross = (fbp.FBPParams.init(m, n, cfg.fbp_k, cfg.fbp_o, cfg.fbp_dropout, rng)
                      if cfg.cross_mode == "fbp" else Concat(m, n))
        self.clf = SoftmaxParams.init(cfg.classes, self.cross.out_dim, rng)
        self.class_weights = np.array(resolved_class_weights(cfg))  # (C,)
        # scoring's block buffers, kept across predict_rows calls; the lock
        # marks them taken, and a call that finds them taken makes its own
        self._score_scratch, self._scoring = Scratch(), threading.Lock()

    # --- parameter registry -------------------------------------------------
    def tensors(self) -> dict:
        return _prefixed(audio=self.audio.params, visual=self.visual.params,
                         fbp=self.cross.params, clf=self.clf.params)

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
    def check_rows(self, audio, visual, labels=None):
        """(B, n, d) audio and visual arrays and (B,) int labels, checked
        against the model, or DimMismatch is raised: both stacks are 3-D with
        one B, each set holds n >= 1 vectors of its stage's dim, and the
        labels are B integers in 0..classes-1."""
        for name, rows, stage in (("audio", audio, self.audio), ("visual", visual, self.visual)):
            if rows.ndim != 3:
                raise DimMismatch(f"{name} features must be a (B, n, d) stack, got {rows.shape}")
            if rows.shape[1] < 1:
                raise DimMismatch(f"{name} feature sets need n >= 1 vectors, got {rows.shape}")
            if rows.shape[2] != stage.in_dim:
                raise DimMismatch(f"{name} features have dim {rows.shape[2]}, "
                                  f"the model expects {stage.in_dim}")
        if len(visual) != len(audio):
            raise DimMismatch(f"{len(audio)} audio sets but {len(visual)} visual sets")
        if labels is not None:
            raw = np.asarray(labels)
            if raw.shape != (len(audio),) or raw.dtype.kind not in "iu":
                raise DimMismatch(f"labels must be {len(audio)} integers, "
                                  f"got {raw.dtype} of shape {raw.shape}")
            labels = raw.astype(np.int64, copy=False)
            if np.any((labels < 0) | (labels >= self.clf.classes)):
                raise DimMismatch(f"labels must lie in 0..{self.clf.classes - 1}")
        return audio, visual, labels

    def blocks(self, audio: np.ndarray, visual: np.ndarray) -> list:
        """``row_blocks`` of the stacked rows; a row's floats are its share of
        every stage's widest intermediate, summed (51 rows a block by default)."""
        return row_blocks(0, len(audio), audio.shape[1] * self.audio.frame_floats
                          + visual.shape[1] * self.visual.frame_floats + self.cross.width)

    # --- forward / backward on stacked rows ---------------------------------
    def fuse_rows(self, audio, visual, scratch: Scratch | None = None):
        """The pooled rows through the cross stage without dropout: (B, fused) rows."""
        return self.cross.fuse(self.audio.pool(audio)[0], self.visual.pool(visual)[0],
                               None, scratch)[0]

    def batch_loss(self, audio, visual, labels, mask_scale=None, scratch: Scratch | None = None):
        """Summed loss over stacked rows, and a thunk for the hand-chained gradient dict.

        Call ``backward()`` before changing a parameter: the caches hold the
        arrays.  ``mask_scale`` is the (B, k*o) rescaled FBP dropout mask,
        None for no dropout.  With a ``scratch``, call ``backward()`` before
        the scratch is used again.  It is the two pools, then ``head_loss``.
        """
        (a_vec, a_cache), (v_vec, v_cache) = self.audio.pool(audio), self.visual.pool(visual)
        loss, head_backward = self.head_loss(a_vec, v_vec, labels, mask_scale, scratch)

        def backward():
            grads, (d_a, d_v) = head_backward()
            return {**grads, **_prefixed(audio=self.audio.backward(a_cache, d_a)[0],
                                         visual=self.visual.backward(v_cache, d_v)[0])}

        return loss, backward

    def head_loss(self, a_vec, v_vec, labels, mask_scale, scratch: Scratch | None):
        """``batch_loss`` after the pools; ``backward()`` gives (head gradients, (d_a, d_v))."""
        fused, x_cache = self.cross.fuse(a_vec, v_vec, mask_scale, scratch)
        loss, c_cache = self.clf.loss(fused, labels)

        def backward():
            c_grads, d_fused = self.clf.backward(c_cache)
            x_grads, d_pooled = self.cross.backward(x_cache, d_fused)
            return _prefixed(clf=c_grads, fbp=x_grads), d_pooled

        return loss, backward

    def update_loss(self, audio, visual, labels, key: int | None = None,
                    scratch: Scratch | None = None):
        """Summed loss and gradients of one update, walked in row blocks.

        ``key`` keys the dropout counter stream for this update (None: no
        dropout).  Row r uses counters r*k*o .. (r+1)*k*o - 1, so the masks,
        and the result up to summation order, do not depend on the blocks.
        A ``scratch`` lends every block the same FBP buffers.
        """
        total, acc = 0.0, None
        for rows in self.blocks(audio, visual):
            mask = (None if key is None
                    else self.cross.dropout_mask(key, rows.start, rows.stop, scratch))
            loss, backward = self.batch_loss(audio[rows], visual[rows], labels[rows], mask, scratch)
            total += loss
            if acc is None:
                acc = backward()
            else:
                for name, g in backward().items():
                    acc[name] += g
        return total, acc

    def predict_rows(self, audio, visual) -> np.ndarray:
        """Class-reweighted predictions (B,) for stacked rows.

        The blocks share the model's scoring ``Scratch``, so that repeated
        scoring does not fault its buffers in again (a call made while
        another holds it makes its own), and write their class
        probabilities into one (B, C) array, which is checked and reweighted
        once.  As in training, numpy's overflow warnings are silenced;
        non-finite scores raise NonFiniteValue.
        """
        probs = np.empty((len(audio), self.clf.classes))
        owned = self._scoring.acquire(blocking=False)
        scratch = self._score_scratch if owned else Scratch()
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                for rows in self.blocks(audio, visual):
                    fused = self.fuse_rows(audio[rows], visual[rows], scratch)
                    probs[rows] = class_probs(fused, self.clf.weight, self.clf.bias)
            finally:
                if owned:
                    self._scoring.release()
            return apply_class_weights(check_finite(probs, "class scores"), self.class_weights)


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


def train_rows(model: FusionPipeline, audio, visual, labels, epochs: int, lr: float,
               rng: Rng, batch_size: int = 0) -> list:
    """Gradient descent over rows that ``check_rows`` passed; returns the loss curve.

    Each update (the whole set, or a shuffled mini-batch of ``batch_size``)
    is one batched step; with FBP dropout it draws one ``rng.next_u64()``
    key for its masks.  The updates share one ``Scratch``, made here.
    """
    if not len(labels):
        raise EmptyDataset("no training samples")
    scratch = Scratch()

    def step(batch):
        key = rng.next_u64() if model.cross.dropout_p > 0.0 else None
        return model.update_loss(audio[batch], visual[batch], labels[batch], key, scratch)

    return descend(model.tensors(), len(labels), step, epochs, lr, rng, batch_size)


def train_pipeline(model: FusionPipeline, samples, epochs: int, lr: float,
                   rng: Rng, batch_size: int = 0) -> list:
    """``train_rows`` over (audio, visual, label) triples of (n, d) feature
    sets, stacked and checked once; returns the loss curve.  Ragged or
    non-(n, d) sets raise DimMismatch."""
    if not samples:
        raise EmptyDataset("no training samples")
    audio, visual, labels = zip(*samples)
    rows = model.check_rows(_stack_sets(audio, "audio"), _stack_sets(visual, "visual"), labels)
    return train_rows(model, *rows, epochs, lr, rng, batch_size)


def split_indices(n: int, rng: Rng):
    """Seeded shuffle 80/20 split; returns (train_idx, test_idx)."""
    order = list(range(n))
    rng.shuffle(order)
    cut = int(round(0.8 * n))
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
    train_idx, test_idx = split_indices(len(dataset.labels), rngs["split"])
    return dataset, train_idx, test_idx, rngs


def evaluate_pipeline(model: FusionPipeline, dataset: SyntheticDataset, indices) -> Metrics:
    """Metrics of class-reweighted predictions on the indexed rows, batched.

    The rows are indexed out of the dataset's arrays, which were checked
    finite when generated; ``check_rows`` checks them against the model.
    """
    if not len(indices):
        return compute_metrics([], [], dataset.classes)
    audio, visual, labels = dataset_rows(model, dataset, indices)
    return compute_metrics(labels, model.predict_rows(audio, visual), dataset.classes)


def dataset_rows(model: FusionPipeline, dataset: SyntheticDataset, indices):
    """The dataset's (audio, visual, labels) rows at ``indices``, through
    ``check_rows``: read-only views for an in-bounds ``range`` of step 1, else copies."""
    if (isinstance(indices, range) and indices.step == 1
            and 0 <= indices.start <= indices.stop <= len(dataset.labels)):
        idx = slice(indices.start, indices.stop)
    else:
        idx = np.asarray(indices, dtype=np.intp)
    return model.check_rows(dataset.audio[idx], dataset.visual[idx], dataset.labels[idx])


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None,
                   train_on_all: bool = False) -> ExperimentResult:
    dataset, train_idx, test_idx, rngs = prepare_dataset(cfg)
    model = FusionPipeline(cfg, rngs["init"])
    chosen = range(len(dataset.labels)) if train_on_all else train_idx
    curve = train_rows(model, *dataset_rows(model, dataset, chosen), cfg.epochs, cfg.lr,
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
