"""Reach rows: one timed run of a configuration too long for perfbench's paired runs.

    python3 tools/reach.py --p 3 --n 4 --scenario intro-vanishing --budget 240
    python3 tools/reach.py --p 5 --n 2 --scenario main-theorem --budget 600 --specialize a=2,b=3,u=5
    python3 tools/reach.py --src ../other-checkout/src ...     # the same row for another checkout

Runs `run_scenario` once in this process and prints one JSON object: the wall
time, the verdict counts, and the Tate vectors built (cache misses of
`TorusFunctional.tate_vector` that completed) with the seconds spent building them.  A run
still going when the budget runs out is stopped there and reported with
`"status": "exceeded"`; its Tate-vector rate still covers the budget, which
is how the (3,4) row is read.  `peak_rss_mb` is the process's peak resident
set size (`getrusage`), imports included.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path


class BudgetExceeded(BaseException):
    pass


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--p", type=int, required=True)
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--scenario", required=True)
    ap.add_argument("--budget", type=float, required=True, help="wall seconds before the run is stopped")
    ap.add_argument("--specialize", default=None, help="exact values, e.g. a=2,b=3,u=5")
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    args = ap.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    from triform.functionals import TorusFunctional
    from triform.verifier import ScenarioConfig, run_scenario

    builds = [0, 0.0]  # Tate vectors built, seconds inside those builds
    tate_vector = TorusFunctional.tate_vector

    def counted(self, level, x0_key):
        if (level, x0_key) in self._vectors:
            return tate_vector(self, level, x0_key)
        t0 = time.perf_counter()
        out = tate_vector(self, level, x0_key)  # a build the budget cuts short is not counted
        builds[0] += 1
        builds[1] += time.perf_counter() - t0
        return out

    TorusFunctional.tate_vector = counted

    def stop(signum, frame):
        raise BudgetExceeded

    specialize = None
    if args.specialize:
        specialize = {k.strip(): Fraction(v) for k, v in (kv.split("=") for kv in args.specialize.split(","))}
    cfg = ScenarioConfig(p=args.p, n=args.n, scenario=args.scenario, specialize=specialize)
    row = {"p": args.p, "n": args.n, "scenario": args.scenario, "specialize": args.specialize, "budget_s": args.budget}
    signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, args.budget)
    t0 = time.perf_counter()
    try:
        report = run_scenario(cfg)
        row["status"] = "finished"
        verdicts = [c.verdict for c in report.checks]
        row["verdicts"] = {v: verdicts.count(v) for v in sorted(set(verdicts))}
    except BudgetExceeded:
        row["status"] = "exceeded"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    row["wall_s"] = round(time.perf_counter() - t0, 2)
    row["tate_vectors_built"] = builds[0]
    row["tate_build_s"] = round(builds[1], 2)
    row["s_per_tate_vector"] = round(builds[1] / builds[0], 4) if builds[0] else None
    row["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
