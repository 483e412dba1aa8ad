"""Per-layer metrics of the traced run, derived from ``spans.Tracer``.

Times are means per call unless the name says otherwise, taken over the
phases where users pay them (set-up, training, scoring, clips); gradient
checks run on tiny instances and are kept out of every metric but the
``gradcheck.*`` ones.  Counts are exact: for a given seed they repeat on
every traced run.  A layer a workload does not use reads 0.
"""

import numpy as np

# name -> (unit, better); the order is the order printed.
PER_LAYER = {
    "experiment.train_self_us_per_step": ("us", "lower"),
    "experiment.sample_loss_self_us": ("us", "lower"),
    "experiment.sample_loss_calls_per_update": ("count", "lower"),
    "experiment.evaluate_self_us_per_pred": ("us", "lower"),
    "experiment.predict_us_p50": ("us", "lower"),
    "experiment.predict_us_p99": ("us", "lower"),
    "attention.self.fwd_us": ("us", "lower"),
    "attention.self.bwd_us": ("us", "lower"),
    "attention.relation.fwd_us": ("us", "lower"),
    "attention.relation.bwd_us": ("us", "lower"),
    "attention.transformer.fwd_us": ("us", "lower"),
    "attention.transformer.bwd_us": ("us", "lower"),
    "attention.dfeat_discarded_floats_per_step": ("count", "lower"),
    "fbp.fuse_train_us": ("us", "lower"),
    "fbp.fuse_eval_us": ("us", "lower"),
    "fbp.dropout_mask_us": ("us", "lower"),
    "fbp.backward_us": ("us", "lower"),
    "fbp.concat_us": ("us", "lower"),
    "rng.u64_per_step": ("count", "lower"),
    "rng.u64_setup": ("count", "lower"),
    "rng.shuffle_us": ("us", "lower"),
    "numeric.check_calls_per_step": ("count", "lower"),
    "numeric.sigmoid_us": ("us", "lower"),
    "numeric.softmax_us": ("us", "lower"),
    "numeric.fft_ms_per_audio_s": ("ms/s", "lower"),
    "classifier.xent_us": ("us", "lower"),
    "classifier.softmax_forward_us": ("us", "lower"),
    "classifier.apply_weights_us": ("us", "lower"),
    "audio.read_wav_ms": ("ms", "lower"),
    "audio.frame_ms_per_audio_s": ("ms/s", "lower"),
    "audio.spectrogram_self_ms": ("ms", "lower"),
    "audio.log_mel_self_ms": ("ms", "lower"),
    "audio.mel_filterbank_ms": ("ms", "lower"),
    "audio.patch_embed_ms": ("ms", "lower"),
    "audio.clip_ms_p50": ("ms", "lower"),
    "audio.clip_ms_p90": ("ms", "lower"),
    "audio.failed_clips": ("count", "lower"),
    "synthetic.gen_ms": ("ms", "lower"),
    "enhance.aggregate_us": ("us", "lower"),
    "enhance.calls": ("count", "lower"),
    "featfile.save_checkpoint_ms": ("ms", "lower"),
    "featfile.load_checkpoint_ms": ("ms", "lower"),
    "gradcheck.loss_evals": ("count", "lower"),
    "gradcheck.us_per_loss_eval": ("us", "lower"),
    "gradcheck.max_rel_err": ("ratio", "lower"),
    "trace.overhead.setup_pct": ("%", "lower"),
    "trace.overhead.work_pct": ("%", "lower"),
    "trace.overhead.score_pct": ("%", "lower"),
    "trace.overhead.gradcheck_pct": ("%", "lower"),
}

WORK = ("setup", "train", "eval", "clip")


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, traced_jobs, e2e, e2e_traced, audio_workload: bool) -> dict:
    """name -> (value, unit) for every PER_LAYER metric.

    ``e2e`` and ``e2e_traced`` are the end-to-end metrics of the untraced and
    the traced jobs of the same run; they give the tracing overhead.
    """
    t = tracer
    work = sum(j.work_units for j in traced_jobs)
    steps = 0 if audio_workload else int(work)
    good_audio_s = work if audio_workload else 0.0
    preds = 0 if audio_workload else sum(j.score_items for j in traced_jobs)
    updates = sum(j.updates for j in traced_jobs)
    setups = sum(len(j.setup) for j in traced_jobs)
    passes = len(traced_jobs)
    rounds = sum(len(j.gradcheck) for j in traced_jobs)
    all_audio_s = sum(j.audio_s_attempted for j in traced_jobs)
    clip_ms = [ms for j in traced_jobs for ms in j.clip_ms]

    def mean(label, scale=1e6, phases=WORK):
        calls, total, _ = t.span_stat(label, phases)
        return _ratio(total * scale, calls)

    def self_mean(label, scale=1e6, phases=WORK):
        calls, _, self_total = t.span_stat(label, phases)
        return _ratio(self_total * scale, calls)

    def total(label, phases=WORK):
        return t.span_stat(label, phases)[1]

    predict_us = 1e6 * t.durations("experiment.predict")
    fuse_train = mean("fbp.fuse.train")
    fuse_eval = mean("fbp.fuse.eval")
    loss_evals = t.counter("gradcheck.loss_eval", ("gradcheck",))
    values = {
        "experiment.train_self_us_per_step":
            _ratio(1e6 * t.span_stat("experiment.train_pipeline", ("train",))[2], steps),
        "experiment.sample_loss_self_us": self_mean("experiment.sample_loss", phases=("train",)),
        "experiment.sample_loss_calls_per_update":
            _ratio(t.span_stat("experiment.sample_loss", ("train",))[0], updates),
        "experiment.evaluate_self_us_per_pred":
            _ratio(1e6 * t.span_stat("experiment.evaluate_pipeline", ("eval",))[2], preds),
        "experiment.predict_us_p50": float(np.percentile(predict_us, 50)) if predict_us.size else 0.0,
        "experiment.predict_us_p99": float(np.percentile(predict_us, 99)) if predict_us.size else 0.0,
        "attention.self.fwd_us": mean("attention.self.fwd"),
        "attention.self.bwd_us": mean("attention.self.bwd"),
        "attention.relation.fwd_us": mean("attention.relation.fwd"),
        "attention.relation.bwd_us": mean("attention.relation.bwd"),
        "attention.transformer.fwd_us": mean("attention.transformer.fwd"),
        "attention.transformer.bwd_us": mean("attention.transformer.bwd"),
        "attention.dfeat_discarded_floats_per_step":
            _ratio(t.counter("attention.dfeat_discarded_floats", ("train",)), steps),
        "fbp.fuse_train_us": fuse_train,
        "fbp.fuse_eval_us": fuse_eval,
        "fbp.dropout_mask_us": fuse_train - fuse_eval if fuse_train and fuse_eval else 0.0,
        "fbp.backward_us": mean("fbp.backward"),
        "fbp.concat_us": mean("fbp.concat"),
        "rng.u64_per_step": _ratio(t.counter("rng.next_u64", ("train",)), steps),
        "rng.u64_setup": _ratio(t.counter("rng.next_u64", ("setup",)), setups),
        "rng.shuffle_us": mean("rng.shuffle"),
        "numeric.check_calls_per_step": _ratio(t.counter("numeric.check", ("train",)), steps),
        "numeric.sigmoid_us": mean("numeric.sigmoid"),
        "numeric.softmax_us": mean("numeric.softmax"),
        "numeric.fft_ms_per_audio_s": _ratio(1e3 * total("numeric.fft", ("clip",)), good_audio_s),
        "classifier.xent_us": mean("classifier.xent"),
        "classifier.softmax_forward_us": mean("classifier.softmax_forward"),
        "classifier.apply_weights_us": mean("classifier.apply_weights"),
        "audio.read_wav_ms": mean("audio.read_wav", 1e3),
        "audio.frame_ms_per_audio_s":
            _ratio(1e3 * total("audio.frame_signal", ("clip",)), all_audio_s),
        "audio.spectrogram_self_ms": self_mean("audio.spectrogram", 1e3),
        "audio.log_mel_self_ms": self_mean("audio.log_mel", 1e3),
        "audio.mel_filterbank_ms": mean("audio.mel_filterbank", 1e3),
        "audio.patch_embed_ms": mean("audio.patch_embed", 1e3),
        "audio.clip_ms_p50": float(np.percentile(clip_ms, 50)) if clip_ms else 0.0,
        "audio.clip_ms_p90": float(np.percentile(clip_ms, 90)) if clip_ms else 0.0,
        "audio.failed_clips": _ratio(sum(j.failed for j in traced_jobs), passes) if audio_workload else 0.0,
        "synthetic.gen_ms": mean("synthetic.gen", 1e3),
        "enhance.aggregate_us": mean("enhance.aggregate"),
        "enhance.calls": _ratio(t.span_stat("enhance.aggregate", ("setup",))[0], setups),
        "featfile.save_checkpoint_ms": mean("featfile.save_checkpoint", 1e3, ("io",)),
        "featfile.load_checkpoint_ms": mean("featfile.load_checkpoint", 1e3),
        "gradcheck.loss_evals": _ratio(loss_evals, rounds),
        "gradcheck.us_per_loss_eval":
            _ratio(1e6 * total("gradcheck.grad_check", ("gradcheck",)), loss_evals),
        "gradcheck.max_rel_err": max(j.gradcheck_max_err for j in traced_jobs),
    }
    for name, key in (("setup", "setup_s"), ("work", "work_per_s"),
                      ("score", "score_per_s"), ("gradcheck", "gradcheck_s")):
        plain, traced = e2e[key][0], e2e_traced[key][0]
        # times grow and rates shrink under tracing; both give a positive overhead
        slowdown = _ratio(plain, traced) if key.endswith("_per_s") else _ratio(traced, plain)
        values[f"trace.overhead.{name}_pct"] = 100.0 * (slowdown - 1.0) if slowdown else 0.0
    return {name: (float(values[name]), unit) for name, (unit, _) in PER_LAYER.items()}
