"""The benchmark's workloads, and how one job of a workload is certified.

A job is one (p, n, scenarios, seed).  It gets a fresh ``Env``, so every
Tate-vector and coset cache starts cold, as it does for a command-line user,
and it runs its scenarios through the public entry point
``triform.verifier.run_scenario``, one call per scenario, all on that Env.
"""

from __future__ import annotations

import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_engine():
    """Import triform.verifier from this checkout's src/ and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import triform.verifier as verifier
    except ModuleNotFoundError as e:
        raise SystemExit(f"cannot import the engine from {SRC}: {e}") from e
    if Path(verifier.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"triform was imported from {verifier.__file__}, not from {SRC}")
    return verifier


@dataclass(frozen=True)
class Workload:
    name: str
    p: int
    n: int
    scenarios: tuple  # one run_scenario call per entry, all on the job's Env
    nominal_job_s: float  # typical certify time of one job on the reference machine
    specialize: tuple = ()  # (variable, value) pairs passed as --specialize would
    fixed_first_job_seed: int | None = None  # certify job seeds N, N + 1, ... whatever the run seed is

    def job_seeds(self, seed: int, seconds: float) -> list[int]:
        """The job seeds one run certifies: as many jobs as fit in `seconds` at
        the nominal job cost, and at least one."""
        count = max(1, int(seconds // self.nominal_job_s))
        first = seed if self.fixed_first_job_seed is None else self.fixed_first_job_seed
        return [first + i for i in range(count)]

    def config(self, verifier, scenario: str, job_seed: int):
        return verifier.ScenarioConfig(
            p=self.p,
            n=self.n,
            scenario=scenario,
            seed=job_seed,
            specialize={k: Fraction(v) for k, v in self.specialize} or None,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "steinberg-all",
            p=2,
            n=1,
            scenarios=("all",),
            nominal_job_s=9.0,
            # job seeds 3 to 6 cost 7-9 s each; job seed 2 alone costs 12-19 s
            fixed_first_job_seed=3,
        ),
        Workload(
            "specialized-zeta4",
            p=5,
            n=2,
            scenarios=("Phi-lambda", "proportionality", "phi-nonvanishing"),
            nominal_job_s=25.0,
            specialize=(("a", 2), ("b", 3), ("u", 5)),
        ),
    )
}


class SharedEnv:
    """Stands in for ``triform.verifier.Env`` during one job: builds the job's
    Env once, timing the construction, and hands it to every run_scenario call
    of the job, so the scenarios share caches as they do under ``--scenario all``."""

    def __init__(self, env_cls):
        self.env_cls = env_cls
        self.env = None
        self.seconds = 0.0

    def __call__(self, cfg):
        if self.env is None:
            t0 = perf_counter()
            self.env = self.env_cls(cfg)
            self.seconds += perf_counter() - t0
        return self.env


@dataclass
class JobResult:
    seed: int
    certify_s: float = 0.0  # wall seconds in run_scenario, minus Env construction
    env_s: float = 0.0
    reports: list = field(default_factory=list)
    errors: list = field(default_factory=list)  # engine exceptions that escaped run_scenario
    field_spec: object = None

    def scenario_s(self) -> dict:
        """Seconds per scenario, from the per-check timings of the reports."""
        out: dict = {}
        for report in self.reports:
            for c in report.checks:
                sid = c.id.split(".")[0]
                out[sid] = out.get(sid, 0.0) + c.ms / 1000
        return out

    def structured(self) -> str:
        return "\n".join(r.emit("structured") for r in self.reports)


def run_job(verifier, workload: Workload, job_seed: int) -> JobResult:
    shared = SharedEnv(verifier.Env)
    verifier.Env = shared
    out = JobResult(seed=job_seed)
    elapsed = 0.0
    try:
        for scenario in workload.scenarios:
            cfg = workload.config(verifier, scenario, job_seed)
            t0 = perf_counter()
            try:
                out.reports.append(verifier.run_scenario(cfg))
            except Exception as e:  # an engine error must count as a failed job, not end the run
                out.errors.append(f"{scenario}: {type(e).__name__}: {e}")
                traceback.print_exc(file=sys.stderr)
            finally:
                elapsed += perf_counter() - t0
    finally:
        verifier.Env = shared.env_cls
    out.env_s = shared.seconds
    out.certify_s = elapsed - shared.seconds
    if shared.env is not None:
        out.field_spec = shared.env.ctx.field
    return out
