"""Set-up probe: time `import triform.verifier` in a fresh interpreter, then the
Env construction of every job one run of the workload certifies.

    python3 perfbench/probe.py --workload NAME --seed N --seconds S

Prints {"import_s": ..., "env_s": ...} as its last line.  run.py starts it
several times per run and reports the median of import_s + env_s as setup_s.
"""

from time import perf_counter

T0 = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
import triform.verifier as verifier  # noqa: E402

IMPORT_S = perf_counter() - T0

import argparse  # noqa: E402
import json  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args()
    if Path(verifier.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"triform was imported from {verifier.__file__}, not from {SRC}")
    w = WORKLOADS[args.workload]
    env_s = 0.0
    for job_seed in w.job_seeds(args.seed, args.seconds):
        cfg = w.config(verifier, w.scenarios[0], job_seed)
        t0 = perf_counter()
        verifier.Env(cfg)
        env_s += perf_counter() - t0
    print(json.dumps({"import_s": IMPORT_S, "env_s": env_s}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
