"""Guard-rail runner: the seeded runs and gradient-check floats a change must
keep byte-identical.

    python tools/guard.py > guard.txt
    python tools/guard.py --compare OTHER_TREE

It imports avfusion from the ``src/`` next to this directory.  For each
guard config it trains and evaluates as ``avfusion train`` does, in a
temporary directory, and prints one line: the config's keys, the accuracy,
and the sha256 of ``checkpoint.bin``, ``report.txt`` and ``confusion.csv``.
The line ends with ``train_pipeline=``, the sha256 of the checkpoint that
``train_pipeline`` trains on the same split taken from ``dataset.samples``:
the path perfbench times, which ``run_experiment`` does not take.  The two
checkpoint digests of a line are equal.
Then it prints the ``rng`` line: the sha256 of seeded generator draws
(``u64_block`` at the lane and bulk boundaries of this tree and of earlier
ones and at 152,000 outputs, ``normal_vec(72000)``, the interaction data's
``draws`` layout and ``shuffle(list(range(2000)))``), each followed by the
generator's next output, which pins the state the call left.  A change to
the seeded stream shows there even where no guard run reaches it.
The ``fbp`` line is the sha256 of the ``out``, ``denom`` and ``tiny`` arrays
of ``FBPParams.fuse`` on blocks that take its guarded normalization: the
``TestExtremeScales`` instance (seed 30) at scales 1e80, 1e-80, 1e-85 and
1e150, the zero/1e-85/1e200 batch, the 1e-155 row, and a block of ordinary
rows with an overflowing, an underflowing and a zero row.  No guard run or
gradient check reaches those rows, so the line pins the extreme path where
the floats below pin only the ordinary one.
Last come the ``run_module_checks("all", 10)`` floats and the
``check_pipeline(seed, cross, kind, kind)`` floats for every cross and kind
at seeds 104000, 73000 and 3000, one per line.

``--compare OTHER_TREE`` runs the same set twice: here, and in a
subprocess on ``OTHER_TREE/src`` (which needs no copy of this file).  It
prints only the lines that differ, ``- `` the other tree's and ``+ `` this
tree's, and exits 1 when any does.  The digests depend on the BLAS build
and the CPU, so only outputs from one machine are comparable.
"""

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from avfusion.attention import POOLS  # noqa: E402
from avfusion.checks import check_pipeline, run_module_checks  # noqa: E402
from avfusion.config import CROSS_FUSIONS, parse_config  # noqa: E402
from avfusion.experiment import (FusionPipeline, prepare_dataset, run_experiment,  # noqa: E402
                                 train_pipeline)
from avfusion.fbp import FBPParams  # noqa: E402
from avfusion.featfile import save_checkpoint  # noqa: E402
from avfusion.rng import Rng  # noqa: E402

ARTIFACTS = ("checkpoint.bin", "report.txt", "confusion.csv")

_CRITERION_4 = {"seed": 777, "data.mode": "interaction", "data.samples": 2000,
                "classifier.classes": 2, "audio.dim": 6, "visual.dim": 6,
                "audio.frames": 3, "visual.frames": 3, "classifier.epochs": 80,
                "classifier.lr": 0.5, "fbp.k": 2, "fbp.o": 8, "fbp.dropout": 0.0,
                "audio.fusion": "self", "visual.fusion": "self", "data.noise": 0.1}

# (name, config keys): the default config, both halves of acceptance
# criterion 4, and relation attention with meanstd enhancement, mini-batches
# of 8 and FBP dropout
GUARD = (
    ("default", {}),
    ("criterion-4-concat", {**_CRITERION_4, "cross.mode": "concat"}),
    ("criterion-4-fbp", {**_CRITERION_4, "cross.mode": "fbp"}),
    ("relation-meanstd-b8-dropout", {"audio.fusion": "relation", "visual.fusion": "relation",
                                     "enhance.mode": "meanstd", "classifier.batch": 8,
                                     "fbp.dropout": 0.3}),
)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_line(name: str, keys: dict, out_dir: str) -> str:
    """Train and evaluate one config into ``out_dir``, train it again through
    ``train_pipeline``; its guard line."""
    cfg = parse_config("\n".join(f"{key}={value}" for key, value in keys.items()))
    result = run_experiment(cfg, out_dir=out_dir)
    digests = " ".join(f"{artifact}={_sha256(Path(out_dir) / artifact)}"
                       for artifact in ARTIFACTS)
    dataset, train_idx, _, rngs = prepare_dataset(cfg)
    model = FusionPipeline(cfg, rngs["init"])
    train_pipeline(model, [dataset.samples[i] for i in train_idx], cfg.epochs, cfg.lr,
                   rngs["train"], cfg.batch_size)
    save_checkpoint(Path(out_dir) / "train_pipeline.bin", model.tensors())
    config = ",".join(f"{key}={value}" for key, value in keys.items()) or "defaults"
    return (f"{name} [{config}] accuracy={result.metrics.accuracy!r} {digests} "
            f"train_pipeline={_sha256(Path(out_dir) / 'train_pipeline.bin')}")


# u64_block sizes: around the lane (16, 64) and bulk (256, 512) sizes the
# generator has used, and a large call; fixed here so that two trees compare
# the same calls
RNG_COUNTS = (1, 15, 16, 17, 63, 64, 65, 255, 256, 257, 511, 512, 513, 152000)


def rng_line() -> str:
    """The sha256 of the seeded draws listed in the module docstring."""
    digest = hashlib.sha256()

    def take(rng: Rng, values) -> None:
        digest.update(np.asarray(values).tobytes())
        digest.update(rng.next_u64().to_bytes(8, "little"))

    for count in RNG_COUNTS:
        rng = Rng(count)
        take(rng, rng.u64_block(count))
    rng = Rng(1)
    take(rng, rng.normal_vec(72000))
    take(rng, rng.draws(np.tile([False] * 4 + [True] * 36, 2000)))
    order = list(range(2000))
    rng.shuffle(order)
    take(rng, np.array(order, dtype=np.int64))
    return f"rng sha256={digest.hexdigest()}"


def _fbp_cases():
    """(params, a, v) for the blocks the ``fbp`` line fuses: each needs the
    guarded normalization, or mixes such rows with ordinary ones."""
    rng = Rng(30)
    params = FBPParams.init(4, 5, 2, 3, 0.0, rng)
    a, v = rng.normal_mat(6, 4), rng.normal_mat(6, 5)
    for scale in (1e80, 1e-80, 1e-85, 1e150):
        yield (FBPParams(u_tilde=scale * params.u_tilde, v_tilde=scale * params.v_tilde,
                         k=2, o=3, dropout_p=0.0), a, v)
    yield (FBPParams(u_tilde=np.ones((1, 1)), v_tilde=np.ones((1, 1)), k=1, o=1, dropout_p=0.0),
           np.array([[0.0], [1e-85], [1e200]]), np.array([[3.0], [1e-85], [1e100]]))
    yield (FBPParams.init(3, 3, 2, 4, 0.0, Rng(1)), np.full((1, 3), 1e-155),
           np.full((1, 3), 1e-155))
    rng = Rng(31)
    params = FBPParams.init(1, 1, 2, 3, 0.0, rng)
    a, v = rng.normal_mat(3, 1), rng.normal_mat(3, 1)
    scale = np.array([[1.0], [1.0], [1.0], [1e80], [1e-85], [0.0]])
    yield params, np.vstack([a, a]) * scale, np.vstack([v, v]) * scale


def fbp_line() -> str:
    """The sha256 of ``FBPParams.fuse``'s ``out``, ``denom`` and ``tiny`` on
    the blocks listed in the module docstring."""
    digest = hashlib.sha256()
    for params, a, v in _fbp_cases():
        out, cache = params.fuse(a, v)
        tiny = () if cache.tiny is None else cache.tiny
        for values in (out, cache.denom, *tiny):
            digest.update(np.asarray(values).tobytes())
        digest.update(len(tiny).to_bytes(1, "little"))
    return f"fbp sha256={digest.hexdigest()}"


# check_pipeline seeds: 104000, the set the guard rails name, then 73000
# (the round-off instance of ROADMAP item 5) and 3000
PIPELINE_SEEDS = (104000, 73000, 3000)


def check_lines() -> list:
    """The module gradient-check floats, then the pipeline ones at ``PIPELINE_SEEDS``."""
    lines = [f"module {name} {float(value)!r}"
             for name, value in run_module_checks("all", 10).items()]
    for seed in PIPELINE_SEEDS:
        for cross in CROSS_FUSIONS:
            for kind in POOLS:
                lines.append(f"pipeline {seed} {cross} {kind} "
                             f"{float(check_pipeline(seed, cross, kind, kind))!r}")
    return lines


def guard_lines(runs=GUARD, checks: bool = True):
    """The set's lines, one at a time: ``runs`` as (name, config keys), the
    ``rng`` and ``fbp`` lines, then the gradient-check floats when ``checks``."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, keys in runs:
            yield run_line(name, keys, str(Path(tmp) / name))
    yield rng_line()
    yield fbp_line()
    if checks:
        yield from check_lines()


# the other tree's package is imported first, so every avfusion module the
# script imports after putting its own src/ first comes from that tree
_CHILD = """import json, runpy, sys
sys.path.insert(0, sys.argv[1])
import avfusion
guard = runpy.run_path(sys.argv[2])
runs, checks = json.loads(sys.argv[3])
for line in guard["guard_lines"](runs, checks):
    print(line)
"""


def compare(other: str, runs=GUARD, checks: bool = True) -> list:
    """The set's lines that differ between ``other``/src and this tree, as
    "- other line" / "+ this line" pairs; both run at once."""
    with subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(Path(other).resolve() / "src"),
             str(Path(__file__).resolve()), json.dumps([list(runs), checks])],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as child:
        mine = list(guard_lines(runs, checks))
        out, err = child.communicate()
    if child.returncode:
        raise RuntimeError(f"the set failed on {other}: {err.strip()}")
    diff = []
    for theirs, ours in zip_longest(out.splitlines(), mine, fillvalue="(no line)"):
        if theirs != ours:
            diff += [f"- {theirs}", f"+ {ours}"]
    return diff


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", metavar="OTHER_TREE",
                        help="print only the lines that differ from OTHER_TREE/src's")
    args = parser.parse_args(argv)
    if args.compare is None:
        for line in guard_lines():
            print(line, flush=True)
        return 0
    diff = compare(args.compare)
    for line in diff:
        print(line)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
