"""Span tracing for the benchmark's traced run.

``Tracer.install`` rebinds avfusion's public functions to wrappers defined
here; ``Tracer.uninstall`` puts the originals back.  Nothing under ``src/``
changes.  A module-level function is rebound in every ``avfusion`` module
that holds a reference to it (``from .numeric import check_vec`` copies the
name into the importing module), a method is rebound on its class.

Each span records its name, start, end, parent span and job id (spans of one
job share the id); the run id names the whole run.  Spans stay in memory and
are written out by ``dump`` when the run ends.  Self time is a span's
duration minus the time its direct child spans cover; there is one thread and
no queue, so self time is busy time and nothing waits.

Hot scalar functions (``Rng.next_u64``, ``check_vec``, ``check_mat``) get
counting wrappers only, keyed by the phase the workload is in.  A target that
a later refactor removes is listed in ``missing`` and its metrics read 0.
"""

import functools
import importlib
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, attribute path, span label, kind); kind "count" means no span.
TARGETS = (
    ("avfusion.config", "load_config", "config.load_config", "span"),
    ("avfusion.experiment", "prepare_dataset", "experiment.prepare_dataset", "span"),
    ("avfusion.experiment", "train_pipeline", "experiment.train_pipeline", "span"),
    ("avfusion.experiment", "evaluate_pipeline", "experiment.evaluate_pipeline", "span"),
    ("avfusion.experiment", "FusionPipeline.sample_loss", "experiment.sample_loss", "span"),
    ("avfusion.experiment", "FusionPipeline.predict", "experiment.predict", "span"),
    ("avfusion.experiment", "IntraStage.forward", "experiment.IntraStage.forward", "span"),
    ("avfusion.experiment", "IntraStage.backward", "experiment.IntraStage.backward", "span"),
    ("avfusion.attention", "self_attend", "attention.self.fwd", "span"),
    ("avfusion.attention", "self_attend_backward", "attention.self.bwd", "span"),
    ("avfusion.attention", "relation_attend", "attention.relation.fwd", "span"),
    ("avfusion.attention", "relation_attend_backward", "attention.relation.bwd", "span"),
    ("avfusion.attention", "transformer_attend", "attention.transformer.fwd", "span"),
    ("avfusion.attention", "transformer_attend_backward", "attention.transformer.bwd", "span"),
    ("avfusion.fbp", "fbp_fuse", "fbp.fuse", "span"),
    ("avfusion.fbp", "fbp_backward", "fbp.backward", "span"),
    ("avfusion.fbp", "concat_fuse", "fbp.concat", "span"),
    ("avfusion.rng", "Rng.next_u64", "rng.next_u64", "count"),
    ("avfusion.rng", "Rng.shuffle", "rng.shuffle", "span"),
    ("avfusion.numeric", "check_vec", "numeric.check", "count"),
    ("avfusion.numeric", "check_mat", "numeric.check", "count"),
    ("avfusion.numeric", "sigmoid", "numeric.sigmoid", "span"),
    ("avfusion.numeric", "softmax", "numeric.softmax", "span"),
    ("avfusion.numeric", "fft_radix2", "numeric.fft", "span"),
    ("avfusion.classifier", "xent_loss_grad", "classifier.xent", "span"),
    ("avfusion.classifier", "softmax_forward", "classifier.softmax_forward", "span"),
    ("avfusion.classifier", "apply_class_weights", "classifier.apply_weights", "span"),
    ("avfusion.audio", "read_wav", "audio.read_wav", "span"),
    ("avfusion.audio", "frame_signal", "audio.frame_signal", "span"),
    ("avfusion.audio", "speech_spectrogram", "audio.spectrogram", "span"),
    ("avfusion.audio", "log_mel_3d", "audio.log_mel", "span"),
    ("avfusion.audio", "mel_filterbank", "audio.mel_filterbank", "span"),
    ("avfusion.audio", "patch_embed", "audio.patch_embed", "span"),
    ("avfusion.synthetic", "gen_synthetic", "synthetic.gen", "span"),
    ("avfusion.enhance", "f_mean", "enhance.aggregate", "span"),
    ("avfusion.enhance", "f_meanstd", "enhance.aggregate", "span"),
    ("avfusion.enhance", "f_normfft", "enhance.aggregate", "span"),
    ("avfusion.enhance", "f_ar_mean", "enhance.aggregate", "span"),
    ("avfusion.featfile", "save_checkpoint", "featfile.save_checkpoint", "span"),
    ("avfusion.featfile", "load_checkpoint", "featfile.load_checkpoint", "span"),
    ("avfusion.gradcheck", "grad_check", "gradcheck.grad_check", "span"),
    ("avfusion.checks", "run_module_checks", "checks.run_module_checks", "span"),
    ("avfusion.checks", "check_pipeline", "checks.check_pipeline", "span"),
)

_ATTN_BACKWARD = ("attention.self.bwd", "attention.relation.bwd", "attention.transformer.bwd")


class Tracer:
    """In-memory span recorder plus per-phase call counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.phase = "setup"
        self.job = -1
        self.missing = []
        self._restore = []
        self._names = {}
        # one row per closed span, in closing order; ids number spans in
        # opening order and the parent column refers to those ids
        self._rec_id = array("i")
        self._rec_name = array("i")
        self._rec_start = array("d")
        self._rec_end = array("d")
        self._rec_parent = array("i")
        self._rec_job = array("i")
        self._rec_phase = array("i")
        self._phases = {}
        # open spans: [label, start, child time, span id]
        self._stack = []
        self._next_id = 0
        # (phase, label) -> [calls, total s, self s]
        self.spans = {}
        # (phase, label) -> count
        self.counts = {}

    # --- recording ----------------------------------------------------------
    def _open(self, label):
        self._stack.append([label, time.perf_counter(), 0.0, self._next_id])
        self._next_id += 1

    def _close(self):
        end = time.perf_counter()
        label, start, child, span_id = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        key = (self.phase, label)
        agg = self.spans.get(key)
        if agg is None:
            agg = self.spans[key] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child
        self._rec_id.append(span_id)
        self._rec_name.append(self._names.setdefault(label, len(self._names)))
        self._rec_start.append(start)
        self._rec_end.append(end)
        self._rec_parent.append(parent[3] if parent is not None else -1)
        self._rec_job.append(self.job)
        self._rec_phase.append(self._phases.setdefault(self.phase, len(self._phases)))

    def count(self, label, n=1):
        key = (self.phase, label)
        self.counts[key] = self.counts.get(key, 0) + n

    def parent_label(self):
        return self._stack[-1][0] if self._stack else None

    # --- wrappers -----------------------------------------------------------
    def _span_wrapper(self, label, fn):
        tracer = self
        if label == "fbp.fuse":
            def namer(args, kwargs):
                mode = kwargs.get("mode", args[3] if len(args) > 3 else "eval")
                return "fbp.fuse.train" if mode == "train" else "fbp.fuse.eval"
        else:
            namer = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if label == "gradcheck.grad_check":
                args = (tracer._counted_loss(args[0]),) + args[1:]
            tracer._open(namer(args, kwargs) if namer else label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if label in _ATTN_BACKWARD and tracer.parent_label() == "experiment.IntraStage.backward":
                # IntraStage.backward keeps the parameter gradients and drops
                # the input gradient, which is always the last element.
                tracer.count("attention.dfeat_discarded_floats", int(np.size(result[-1])))
            return result
        return wrapper

    def _counted_loss(self, loss_fn):
        def counted(params):
            self.count("gradcheck.loss_eval")
            return loss_fn(params)
        return counted

    def _count_wrapper(self, label, fn):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (tracer.phase, label)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    # --- install / uninstall -----------------------------------------------
    def install(self):
        """Rebind every target; records targets that no longer exist."""
        self.missing = []
        package_modules = [m for name, m in sys.modules.items()
                           if m is not None and (name == "avfusion" or name.startswith("avfusion."))]
        for module_name, path, label, kind in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{path}")
                continue
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            attr = parts[-1]
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{module_name}.{path}")
                continue
            raw = vars(owner)[attr]
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            make = self._count_wrapper if kind == "count" else self._span_wrapper
            wrapped = make(label, fn)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            if isinstance(owner, type):
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            for module in package_modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        self._restore.append((module, name, value))
                        setattr(module, name, wrapped)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # --- queries ------------------------------------------------------------
    def span_stat(self, label, phases=None):
        """(calls, total seconds, self seconds) summed over the given phases."""
        calls, total, self_total = 0, 0.0, 0.0
        for (phase, name), (n, t, s) in self.spans.items():
            if name == label and (phases is None or phase in phases):
                calls += n
                total += t
                self_total += s
        return calls, total, self_total

    def counter(self, label, phases=None):
        return sum(n for (phase, name), n in self.counts.items()
                   if name == label and (phases is None or phase in phases))

    def durations(self, label):
        """Per-call durations in seconds of every recorded span with this label."""
        if label not in self._names:
            return np.zeros(0)
        names = np.frombuffer(self._rec_name, dtype=np.int32)
        keep = names == self._names[label]
        start = np.frombuffer(self._rec_start, dtype=np.float64)[keep]
        end = np.frombuffer(self._rec_end, dtype=np.float64)[keep]
        return end - start

    def dump(self, path: Path):
        """Write every span (id, name, start, end, parent id, job, phase) as .npz."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            id=np.frombuffer(self._rec_id, dtype=np.int32),
            name=np.frombuffer(self._rec_name, dtype=np.int32),
            start=np.frombuffer(self._rec_start, dtype=np.float64),
            end=np.frombuffer(self._rec_end, dtype=np.float64),
            parent=np.frombuffer(self._rec_parent, dtype=np.int32),
            job=np.frombuffer(self._rec_job, dtype=np.int32),
            phase=np.frombuffer(self._rec_phase, dtype=np.int32),
            names=np.array(json.dumps({"run_id": self.run_id,
                                       "names": sorted(self._names, key=self._names.get),
                                       "phases": sorted(self._phases, key=self._phases.get)})))
