"""Paired timings of two checkouts, to resolve a small change.

    python3 tools/pair.py --base ../parent/src --workload specialized-zeta4 --pairs 40
    python3 tools/pair.py --base src --new src --workload steinberg-all --pairs 10   # an A/A control
    python3 tools/pair.py --base ../parent/src --workload steinberg-all --pairs 20 --setup

By default it measures `certify_s` in one process.  It copies each
checkout's `src/triform` into a temporary directory under the package names
`triform_base` and `triform_new` (the package imports itself only
relatively, so both load side by side), then certifies perfbench's jobs with
its `run_job`, alternating the two engines job by job and swapping which goes
first on every pair.  Pair k certifies the workload's first job seed plus k
on both engines.

With --setup it measures `setup_s` instead: each pair starts each checkout's
own `perfbench/probe.py` in a fresh interpreter, swapping which goes first on
every pair, after one discarded warm-up probe of each, and takes import_s +
env_s as perfbench/run.py does.  Each checkout's probes get their own fresh
`PYTHONPYCACHEPREFIX`, so no probe reads a `__pycache__` left in a checkout,
stale or not, and both start from the same cache state.  The probes run in
this environment otherwise: with `PYTHONDONTWRITEBYTECODE=1` every probe
measures an import that compiles, and without it the warm-up writes the
bytecode caches that the later probes read, as an installed package does.

Prints each pair's ratio new/base, then one JSON object: the quartiles of
the paired ratio and of each engine's times, and the two parts of the
resolution rule for a claimed gain: the pairs new won (lower, ties counting
for neither) out of the pairs run, which must be at least nine tenths, and
the base median minus the new median, which must exceed the base's
interquartile spread.  A ratio below 1 means the new checkout is faster.
Separate perfbench processes cannot resolve a 10% change in `certify_s` on
a shared 2-vCPU machine; alternating in one process removes the drift
between runs, and an A/A run is the control for what is left.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE_SECONDS = 40  # the run length the set-up probe builds Envs for: BENCHMARK.json's run_seconds


def load(src: Path, name: str, into: Path):
    """Import the verifier of src/triform as the package `name`."""
    shutil.copytree(src / "triform", into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.verifier")


def quartiles(xs: list) -> list:
    return [round(x, 4) for x in statistics.quantiles(xs, n=4)] if len(xs) > 1 else [round(xs[0], 4)] * 3


def certify_times(args, workload) -> dict:
    """certify_s of each engine, one job seed per pair, alternated in this process."""
    from workloads import run_job

    first = workload.job_seeds(0, 0)[0]
    times: dict = {"base": [], "new": []}
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        engines = {"base": load(Path(args.base), "triform_base", Path(tmp)), "new": load(Path(args.new), "triform_new", Path(tmp))}
        for k in range(args.pairs):
            for name in order(k):
                job = run_job(engines[name], workload, first + k)
                if job.errors:
                    raise SystemExit(f"{name}, job seed {first + k}: {job.errors}")
                times[name].append(job.certify_s)
            report_pair(k, times)
    return times


def setup_times(args, workload) -> dict:
    """setup_s of each checkout's own set-up probe, alternated in fresh interpreters."""
    probes = {name: Path(src).resolve().parent / "perfbench" / "probe.py" for name, src in (("base", args.base), ("new", args.new))}
    with tempfile.TemporaryDirectory() as tmp:
        envs = {name: dict(os.environ, PYTHONPYCACHEPREFIX=str(Path(tmp) / name)) for name in probes}

        def probe(name: str) -> float:
            cmd = [sys.executable, str(probes[name]), "--workload", workload.name, "--seed", "0", "--seconds", str(PROBE_SECONDS)]
            proc = subprocess.run(cmd, cwd=probes[name].parent.parent, env=envs[name], capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                raise SystemExit(f"{name}: set-up probe failed:\n{proc.stderr}")
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            return out["import_s"] + out["env_s"]

        for name in ("base", "new"):
            probe(name)  # warm-up: fills the file cache, and the bytecode caches where they are written
        times: dict = {"base": [], "new": []}
        for k in range(args.pairs):
            for name in order(k):
                times[name].append(probe(name))
            report_pair(k, times)
    return times


def order(k: int) -> tuple:
    return ("base", "new") if k % 2 == 0 else ("new", "base")


def report_pair(k: int, times: dict):
    print(f"pair {k}: base {times['base'][-1]:.4f} s, new {times['new'][-1]:.4f} s, ratio {times['new'][-1] / times['base'][-1]:.3f}", flush=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="the src directory of the reference checkout")
    ap.add_argument("--new", default=str(ROOT / "src"), help="the src directory of the checkout measured (default: this one)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=20)
    ap.add_argument("--setup", action="store_true", help="measure setup_s with each checkout's perfbench/probe.py, not certify_s")
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    times = (setup_times if args.setup else certify_times)(args, workload)
    ratios = [n / b for b, n in zip(times["base"], times["new"])]
    won = sum(n < b for b, n in zip(times["base"], times["new"]))
    q1, _, q3 = quartiles(times["base"])
    gain = statistics.median(times["base"]) - statistics.median(times["new"])
    print(json.dumps({
        "workload": workload.name,
        "metric": "setup_s" if args.setup else "certify_s",
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
