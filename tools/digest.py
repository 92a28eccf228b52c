"""Certificate digests: one sha256 per configuration, to compare two checkouts.

    python3 tools/digest.py                               # this checkout
    python3 tools/digest.py --src ../other-checkout/src   # another checkout
    diff <(python3 tools/digest.py) <(python3 tools/digest.py --src ../other-checkout/src)

Each line is the sha256 of one structured report (`run_scenario`, fresh Env)
or one `--dump-tables` output, followed by the configuration it covers:

- (2,1) `all` at seeds 3 to 6, the job seeds of the `steinberg-all` workload;
- (5,2) at a=2, b=3, u=5: `Phi-lambda`, `proportionality` and
  `phi-nonvanishing` at seeds 0 and 1, the scenarios of `specialized-zeta4`;
- (3,2) `all` at seed 1, and (2,4) `main-theorem`, `g-invariance` and
  `proportionality` at seed 0 (the kernel evaluator on pair characters of
  conductor 2);
- (5,2) symbolic in a, b and u: `phi-equivariance` and `phi-nonvanishing`,
  which put the annulus reference route on Q(zeta_4)(a, b, u), and
  `main-theorem`, which puts the chain's deferred sums there, with
  denominators of several factors;
- the coset tables of (2,1) at level 2 and of (3,2).

Structured reports carry no timings, so equal certificates give equal lines.
The whole run takes about 3.5 s on one core (2-vCPU machine, Python 3.11).
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from fractions import Fraction
from pathlib import Path

SPECIALIZED = {"a": Fraction(2), "b": Fraction(3), "u": Fraction(5)}


def configurations(verifier):
    """(label, ScenarioConfig) for every report the digest covers."""
    cfg = verifier.ScenarioConfig
    for seed in range(3, 7):
        yield f"(2,1) all seed {seed}", cfg(p=2, n=1, scenario="all", seed=seed)
    for seed in (0, 1):
        for scenario in ("Phi-lambda", "proportionality", "phi-nonvanishing"):
            yield f"(5,2) a=2,b=3,u=5 {scenario} seed {seed}", cfg(p=5, n=2, scenario=scenario, seed=seed, specialize=dict(SPECIALIZED))
    yield "(3,2) all seed 1", cfg(p=3, n=2, scenario="all", seed=1)
    for scenario in ("main-theorem", "g-invariance", "proportionality"):
        yield f"(2,4) {scenario} seed 0", cfg(p=2, n=4, scenario=scenario)
    for scenario in ("phi-equivariance", "phi-nonvanishing", "main-theorem"):
        yield f"(5,2) symbolic {scenario} seed 0", cfg(p=5, n=2, scenario=scenario)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    args = ap.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    from triform import verifier
    from triform.cli import dump_tables

    def line(text: str, label: str):
        print(f"{hashlib.sha256(text.encode()).hexdigest()}  {label}", flush=True)

    for label, cfg in configurations(verifier):
        line(verifier.run_scenario(cfg).emit("structured"), label)
    line(dump_tables(verifier.ScenarioConfig(p=2, n=1, level=2)), "(2,1) --dump-tables level 2")
    line(dump_tables(verifier.ScenarioConfig(p=3, n=2)), "(3,2) --dump-tables")
    return 0


if __name__ == "__main__":
    sys.exit(main())
