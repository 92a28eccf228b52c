"""Paired timings of two checkouts in one process, to resolve a small change.

    python3 tools/pair.py --base ../parent/src --workload specialized-zeta4 --pairs 40
    python3 tools/pair.py --base src --new src --workload steinberg-all --pairs 10   # an A/A control

Copies each checkout's `src/triform` into a temporary directory under the
package names `triform_base` and `triform_new` (the package imports itself
only relatively, so both load side by side), then certifies perfbench's jobs
with its `run_job`, alternating the two engines job by job and swapping which
goes first on every pair.  Pair k certifies the workload's first job seed plus
k on both engines.  Prints each pair's ratio new/base of `certify_s`, then one
JSON object: the quartiles of the paired ratio and of each engine's
`certify_s`, and the two parts of the resolution rule for a claimed gain:
the pairs new won (lower, ties counting for neither) out of the pairs run,
which must be at least nine tenths, and the base median minus the new median,
which must exceed the base's interquartile spread.  A ratio below 1 means the
new checkout is faster.  Separate perfbench processes cannot resolve a 10%
change on this machine; alternating in one process removes the drift between
runs, and an A/A run is the control for what is left.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(src: Path, name: str, into: Path):
    """Import the verifier of src/triform as the package `name`."""
    shutil.copytree(src / "triform", into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.verifier")


def quartiles(xs: list) -> list:
    return [round(x, 4) for x in statistics.quantiles(xs, n=4)] if len(xs) > 1 else [round(xs[0], 4)] * 3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="the src directory of the reference checkout")
    ap.add_argument("--new", default=str(ROOT / "src"), help="the src directory of the checkout measured (default: this one)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=20)
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, run_job

    workload = WORKLOADS[args.workload]
    first = workload.job_seeds(0, 0)[0]
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        engines = {"base": load(Path(args.base), "triform_base", Path(tmp)), "new": load(Path(args.new), "triform_new", Path(tmp))}
        times: dict = {"base": [], "new": []}
        for k in range(args.pairs):
            order = ("base", "new") if k % 2 == 0 else ("new", "base")
            for name in order:
                job = run_job(engines[name], workload, first + k)
                if job.errors:
                    raise SystemExit(f"{name}, job seed {first + k}: {job.errors}")
                times[name].append(job.certify_s)
            print(f"pair {k}: base {times['base'][-1]:.4f} s, new {times['new'][-1]:.4f} s, ratio {times['new'][-1] / times['base'][-1]:.3f}", flush=True)
    ratios = [n / b for b, n in zip(times["base"], times["new"])]
    won = sum(n < b for b, n in zip(times["base"], times["new"]))
    q1, _, q3 = quartiles(times["base"])
    gain = statistics.median(times["base"]) - statistics.median(times["new"])
    print(json.dumps({
        "workload": workload.name,
        "pairs": args.pairs,
        "ratio_quartiles": quartiles(ratios),
        "base_quartiles_s": quartiles(times["base"]),
        "new_quartiles_s": quartiles(times["new"]),
        "pairs_won": f"{won}/{args.pairs}",
        "wins_nine_tenths": won >= 0.9 * args.pairs,
        "median_gain_s": round(gain, 4),
        "base_iqr_s": round(q3 - q1, 4),
        "gain_exceeds_iqr": gain > q3 - q1,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
