"""avfusion benchmark: one workload per invocation.

Usage, from the repository root:

    python3 perfbench/run.py --workload train-default --seed 1 --seconds 25 --trace 0

It imports avfusion from ``src/`` next to this directory and nowhere else;
without it, it exits 2 and prints no result.  It writes its inputs under
``.perfbench/`` in the repository root, removes them when done, and keeps a
full result file (environment, gates, failures, and the trace-overhead table)
in ``.perfbench/results/``.

With ``--trace 0`` the last stdout line is the JSON result with every
end-to-end metric; with ``--trace 1`` it carries every per-layer metric of
``spans.py``'s traced run instead.  See README.md for the metric
definitions.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("train-default", "train-interaction", "audio-frontend", "small-batch")
# Held out of tuning: confirm a claimed gain on this seed as well.
CONFIRM_SEED = 7919
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def cap_threads() -> dict:
    """One BLAS/OpenMP thread unless the caller asked for more, never above nproc.

    Must run before numpy is imported.  Returns the values found.
    """
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    found = {}
    for var in THREAD_VARS:
        found[var] = os.environ.get(var)
        try:
            wanted = int(found[var]) if found[var] is not None else 1
        except ValueError:
            wanted = 1
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return {"nproc": nproc, "found": found}


def git_sha() -> str:
    """HEAD commit read from .git without starting a process; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_avfusion():
    """Import avfusion from this checkout's src/ only."""
    if not (SRC / "avfusion" / "__init__.py").is_file():
        raise ImportError(f"no avfusion package under {SRC}")
    sys.path.insert(0, str(SRC))
    import avfusion
    if Path(avfusion.__file__).resolve().parent != (SRC / "avfusion").resolve():
        raise ImportError(f"imported avfusion from {avfusion.__file__}, not from {SRC}")
    return avfusion


def run_jobs(workloads, inputs, seconds: float, tracer):
    """Repeat jobs until the window is spent.

    Untraced runs need two jobs (the determinism gate compares them); traced
    runs alternate untraced and traced jobs and need two of each, so the
    tracing overhead is measured in the same process.
    """
    min_jobs = 4 if tracer is not None else 2
    jobs = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(jobs) % 2 == 1
        if traced:
            tracer.job = len(jobs)
            tracer.install()
        try:
            jobs.append(workloads.run_job(inputs, tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()
        elapsed = time.perf_counter() - start
        if len(jobs) >= min_jobs and elapsed * (len(jobs) + 1) / len(jobs) > seconds:
            return jobs


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(jobs, peak_rss_mb: float, adjusted: bool = True) -> dict:
    """Every end-to-end metric: medians over jobs, train chunks, calls or rounds.

    ``adjusted`` scales each sample to the reference machine speed (see
    ``workloads.CAL_REF_S``); the raw medians go to the result file.
    """
    def values(samples, rate):
        return [s.adjusted(rate) if adjusted else s.value for s in samples]

    return {
        "setup_s": (median([sum(values(j.setup, False)) for j in jobs]), "s"),
        "work_per_s": (median([v for j in jobs for v in values(j.work, True)]), "1/s"),
        "score_per_s": (median([v for j in jobs for v in values(j.score, True)]), "1/s"),
        "gradcheck_s": (median([v for j in jobs for v in values(j.gradcheck, False)]), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke sizes (perfbench/selfcheck.py); not for measurements")
    args = parser.parse_args(argv)

    threads = cap_threads()
    try:
        avfusion = import_avfusion()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import numpy as np
    sys.path.insert(0, str(HERE))
    import layers
    import spans
    import workloads

    env = {"git_sha": git_sha(), "python": platform.python_version(),
           "numpy": np.__version__, "avfusion": avfusion.__version__,
           "nproc": threads["nproc"],
           "threads": {v: os.environ[v] for v in THREAD_VARS},
           "threads_found": threads["found"],
           "workload": args.workload, "seed": args.seed, "confirm_seed": CONFIRM_SEED,
           "seconds": args.seconds, "trace": args.trace,
           "sizes": "tiny" if args.tiny else "full"}
    run_id = f"{args.workload}-s{args.seed}-p{os.getpid()}"
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{run_id}"
    sizes = workloads.TINY if args.tiny else workloads.FULL
    tracer = spans.Tracer(run_id) if args.trace else None
    try:
        inputs = workloads.make_inputs(args.workload, args.seed, sizes, workdir)
        jobs = run_jobs(workloads, inputs, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(j.attempted for j in jobs)
    failed = sum(j.failed for j in jobs)
    unexpected = failed - sum(j.expected_failures for j in jobs)
    failures = {}
    for job in jobs:
        for what, n in job.failures.items():
            failures[what] = failures.get(what, 0) + n
    # every job of the run must write the same checkpoint bytes as the first
    digests = {}
    for job in jobs:
        for name, digest in job.digests.items():
            first = digests.setdefault(name, digest)
            if digest != first:
                failures["gate:checkpoint-digest-repeats"] = (
                    failures.get("gate:checkpoint-digest-repeats", 0) + 1)
                failed += 1
                unexpected += 1
    correct = unexpected == 0

    untraced = [j for j in jobs if not j.traced]
    e2e = end_to_end(untraced, peak_rss_mb)
    report = {"env": env, "jobs": len(jobs), "attempted": attempted, "failed": failed,
              "failed_ratio": failed / attempted, "unexpected_failures": unexpected,
              "failures": failures, "checkpoint_digests": digests,
              "accuracies": [j.accuracies for j in jobs],
              "gradcheck_max_rel_err": max(j.gradcheck_max_err for j in jobs),
              "end_to_end": {k: v for k, (v, _) in e2e.items()},
              "end_to_end_raw": {k: v for k, (v, _) in end_to_end(untraced, peak_rss_mb,
                                                                  adjusted=False).items()},
              "samples": {name: [[s.value, s.cal] for j in untraced for s in getattr(j, name)]
                          for name in ("setup", "work", "score", "gradcheck")}}
    if tracer is not None:
        traced = [j for j in jobs if j.traced]
        e2e_traced = end_to_end(traced, peak_rss_mb)
        report["end_to_end_traced"] = {k: v for k, (v, _) in e2e_traced.items()}
        report["missing_targets"] = tracer.missing
        metrics = layers.per_layer(tracer, traced, e2e, e2e_traced,
                                   args.workload == "audio-frontend")
        tracer.dump(out_dir / "spans" / f"{run_id}.npz")
    else:
        metrics = e2e
    report["metrics"] = {k: v for k, (v, _) in metrics.items()}
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run_id}-t{args.trace}.json").write_text(json.dumps(report, indent=1, default=str))

    print("env: " + json.dumps(env, sort_keys=True))
    print(f"jobs: {len(jobs)}  failed_ratio: {failed}/{attempted} = {failed / attempted:.4f}"
          f"  unexpected: {unexpected}")
    if failures:
        print("failures: " + json.dumps(failures, sort_keys=True))
    print("raw (not speed-adjusted): " + "  ".join(
        f"{k}={v:.6g}" for k, v in report["end_to_end_raw"].items()))
    if tracer is not None:
        if tracer.missing:
            print("missing (metrics read 0): " + ", ".join(tracer.missing))
        for name in ("setup_s", "work_per_s", "score_per_s", "gradcheck_s"):
            print(f"trace overhead {name}: untraced {report['end_to_end'][name]:.6g}"
                  f"  traced {report['end_to_end_traced'][name]:.6g}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
