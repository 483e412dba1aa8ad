"""Guard-rail runner: the seeded runs and gradient-check floats a change must
keep byte-identical.

    python tools/guard.py > guard.txt

It imports avfusion from the ``src/`` next to this directory.  For each
guard config it trains and evaluates as ``avfusion train`` does, in a
temporary directory, and prints one line: the config's keys, the accuracy,
and the sha256 of ``checkpoint.bin``, ``report.txt`` and ``confusion.csv``.
Then it prints the ``run_module_checks("all", 10)`` floats and the six
``check_pipeline(104000, cross, kind, kind)`` floats, one per line.

To compare two trees, run it in each (copy this file into the other tree's
``tools/``) and ``diff`` the outputs.  The digests depend on the BLAS build
and the CPU, so only outputs from one machine are comparable.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from avfusion.attention import POOLS  # noqa: E402
from avfusion.checks import check_pipeline, run_module_checks  # noqa: E402
from avfusion.config import CROSS_FUSIONS, parse_config  # noqa: E402
from avfusion.experiment import run_experiment  # noqa: E402

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


def run_line(name: str, keys: dict, out_dir: str) -> str:
    """Train and evaluate one config into ``out_dir``; its guard line."""
    text = "\n".join(f"{key}={value}" for key, value in keys.items())
    result = run_experiment(parse_config(text), out_dir=out_dir)
    digests = " ".join(
        f"{artifact}={hashlib.sha256((Path(out_dir) / artifact).read_bytes()).hexdigest()}"
        for artifact in ARTIFACTS)
    config = ",".join(f"{key}={value}" for key, value in keys.items()) or "defaults"
    return f"{name} [{config}] accuracy={result.metrics.accuracy!r} {digests}"


def check_lines() -> list:
    """The module gradient-check floats, then the pipeline ones at seed 104000."""
    lines = [f"module {name} {float(value)!r}"
             for name, value in run_module_checks("all", 10).items()]
    for cross in CROSS_FUSIONS:
        for kind in POOLS:
            lines.append(f"pipeline 104000 {cross} {kind} "
                         f"{float(check_pipeline(104000, cross, kind, kind))!r}")
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name, keys in GUARD:
            print(run_line(name, keys, str(Path(tmp) / name)), flush=True)
    for line in check_lines():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
