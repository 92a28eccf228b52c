"""Regenerate goldens.json: the expected verdicts and certificate scalars of
every workload, from the code in this checkout.

    python3 perfbench/capture_goldens.py

Each workload's job runs at every job seed in SEEDS.  Verdicts must agree across
seeds; a scalar becomes a golden only when its rendering is the same at every
seed, so the goldens hold for whichever seeds a run picks.  Run it only at a
commit whose certificates are trusted, and review the diff.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import WORKLOADS, import_engine, run_job

HERE = Path(__file__).resolve().parent
SEEDS = (0, 7)


def capture(verifier, workload, seeds) -> dict:
    runs = []
    for seed in seeds:
        job = run_job(verifier, workload, seed)
        if job.errors:
            raise SystemExit(f"{workload.name} job seed {seed}: {job.errors}")
        runs.append({c.id: c for report in job.reports for c in report.checks})
        print(f"{workload.name} job seed {seed}: {len(runs[-1])} checks, certify {job.certify_s:.2f} s", flush=True)
    first = runs[0]
    checks = {}
    for cid, c in first.items():
        if any(set(r) != set(first) or r[cid].verdict != c.verdict for r in runs):
            raise SystemExit(f"{workload.name}: check {cid} differs between job seeds")
        scalars = {k: v for k, v in sorted(c.scalars.items()) if all(r[cid].scalars.get(k) == v for r in runs)}
        checks[cid] = {"verdict": c.verdict, "scalars": scalars}
    return {"job_seeds": list(seeds), "checks": checks}


def main() -> int:
    verifier = import_engine()
    goldens = {name: capture(verifier, w, SEEDS) for name, w in WORKLOADS.items()}
    (HERE / "goldens.json").write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
