"""Smoke check of the benchmark itself, at tiny sizes.

    python3 perfbench/selfcheck.py

For every workload it runs ``run.py`` in this process with ``--tiny``, once
untraced and twice traced on the same seed, and checks:

* the last stdout line is the result object with exactly the keys
  ``correct``, ``attempted``, ``failed`` and ``metrics``;
* the untraced run reports exactly the ``end_to_end`` metrics of
  BENCHMARK.json and the traced run exactly its ``per_layer`` metrics, each
  with the unit listed there;
* every exact counter repeats on both traced runs;
* ``correct`` is true (tiny sizes skip the accuracy floors, which need
  full-length training; every other gate applies).

Exits 1 on the first failed check.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Counters a later change may claim; they must repeat exactly for a seed.
EXACT = ("rng.u64_per_step", "rng.u64_setup", "numeric.check_calls_per_step",
         "experiment.sample_loss_calls_per_update",
         "attention.dfeat_discarded_floats_per_step", "gradcheck.loss_evals",
         "enhance.calls", "audio.failed_clips")


def result_of(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    if code != 0:
        raise AssertionError(f"{argv} exited {code}")
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"{argv}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        raise AssertionError(f"{argv}: attempted/failed {result['attempted']}/{result['failed']}")
    return result


def check_metrics(argv, result, spec):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec}
    if got != want:
        raise AssertionError(f"{argv}: metrics differ from BENCHMARK.json: "
                             f"missing {sorted(set(want) - set(got))}, "
                             f"extra {sorted(set(got) - set(want))}, "
                             f"units {[(n, got[n], want[n]) for n in got if n in want and got[n] != want[n]]}")


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seed = 11
    for workload in (w["name"] for w in bench["workloads"]):
        common = ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--tiny"]
        plain = result_of(common + ["--trace", "0"])
        check_metrics(common, plain, bench["end_to_end"])
        if not plain["correct"]:
            raise AssertionError(f"{workload}: correct is false")
        first = result_of(common + ["--trace", "1"])
        check_metrics(common, first, bench["per_layer"])
        second = result_of(common + ["--trace", "1"])
        for name in EXACT:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                raise AssertionError(f"{workload}: counter {name} gave {a} then {b}")
        print(f"ok {workload}: failed {plain['failed']}/{plain['attempted']}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"selfcheck failed: {exc}", file=sys.stderr)
        sys.exit(1)
