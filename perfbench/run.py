"""The triform benchmark: certify one workload's jobs and report its metrics.

    python3 perfbench/run.py --workload steinberg-all --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

--trace 0 measures the end-to-end metrics (BENCHMARK.json "end_to_end") with
tracing off.  --trace 1 certifies the same jobs once untraced and once traced,
then the first job traced a second time, and reports the per-layer metrics
("per_layer") with the tracing overhead.  Every job's verdicts and certificate
scalars are checked against goldens.json.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics; the
exit status is 0 exactly when correct is true.  Each run also writes a full
report (run context, job seeds, per-job timings) and, traced, its spans to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import Tracer
from workloads import ROOT, SRC, WORKLOADS, import_engine, run_job

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 12  # at least; rounded up to a multiple of (jobs + 1)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def same_element(field_spec, got: str, want: str) -> bool:
    """Rendered scalars are compared as field elements, not as strings."""
    from triform.scalars import parse_scalar

    try:
        return parse_scalar(field_spec, got) == parse_scalar(field_spec, want)
    except Exception:  # an unparsable certificate is a wrong certificate
        return False


def check_job(golden: dict, job) -> list[str]:
    """Everything wrong with one job's reports, as messages (empty when correct)."""
    tag = f"job seed {job.seed}"
    problems = [f"{tag}: engine error escaped run_scenario: {e}" for e in job.errors]
    got = {}
    for report in job.reports:
        for c in report.checks:
            if c.id in got:
                problems.append(f"{tag}: check {c.id} reported twice")
            got[c.id] = c
    for cid in sorted(set(got) | set(golden)):
        want, have = golden.get(cid), got.get(cid)
        if want is None:
            problems.append(f"{tag}: unexpected check {cid}")
            continue
        if have is None:
            problems.append(f"{tag}: missing check {cid}")
            continue
        if have.verdict != want["verdict"]:
            problems.append(f"{tag}: {cid} is {have.verdict}, expected {want['verdict']} {have.reason}".rstrip())
        for key, text in want["scalars"].items():
            value = have.scalars.get(key)
            if value is None:
                problems.append(f"{tag}: {cid} lacks scalar {key}")
            elif not same_element(job.field_spec, value, text):
                problems.append(f"{tag}: {cid}.{key} = {value}, expected {text}")
    return problems


def tally(jobs) -> tuple[int, int]:
    """(checks attempted, FAIL checks plus engine errors), over the given jobs."""
    attempted = failed = 0
    for job in jobs:
        for report in job.reports:
            attempted += len(report.checks)
            failed += sum(1 for c in report.checks if c.verdict == "FAIL")
        attempted += len(job.errors)
        failed += len(job.errors)
    return attempted, failed


# ---------------------------------------------------------------------------
# run context and set-up probes
# ---------------------------------------------------------------------------


def line_count(paths) -> int:
    return sum(len(p.read_text().splitlines()) for p in paths)


def run_context() -> dict:
    sha = None  # the checkout need not be a git repository; never ask an enclosing one
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": line_count(sorted((SRC / "triform").glob("*.py"))),
        "tests_lines": line_count(sorted((ROOT / "tests").glob("*.py"))),
    }


def setup_probes(args, count: int) -> list[dict]:
    """`count` set-up probes, after one discarded warm-up probe that refills the
    caches the preceding job evicted."""
    cmd = [sys.executable, str(HERE / "probe.py"), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
    out = []
    for _ in range(count + 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out[1:]


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def run_jobs(verifier, workload, seeds) -> list:
    jobs = []
    for job_seed in seeds:
        job = run_job(verifier, workload, job_seed)
        print(
            f"job seed {job_seed}: certify {job.certify_s:.3f} s, env {job.env_s:.4f} s, "
            f"{sum(len(r.checks) for r in job.reports)} checks, {len(job.errors)} engine errors",
            flush=True,
        )
        jobs.append(job)
    return jobs


def measure_end_to_end(verifier, args, workload, seeds, report) -> tuple[dict, list]:
    # the set-up probes are spread before and after every job, so that their
    # median samples the machine over the whole run, not one moment of it
    per_slot = -(-SETUP_PROBES // (len(seeds) + 1))
    probes = setup_probes(args, per_slot)
    jobs = []
    for job_seed in seeds:
        jobs += run_jobs(verifier, workload, [job_seed])
        probes += setup_probes(args, per_slot)
    report["setup_probes"] = probes
    metrics = {
        "certify_s": sum(j.certify_s for j in jobs),
        "setup_s": statistics.median(p["import_s"] + p["env_s"] for p in probes),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, jobs


def measure_per_layer(verifier, args, workload, seeds, golden, report, problems) -> tuple[dict, list]:
    print("untraced pass", flush=True)
    plain = run_jobs(verifier, workload, seeds)
    print("traced pass", flush=True)
    tracer = Tracer()
    first_job_counts = None
    traced = []
    try:
        tracer.install(verifier)
        for i, job_seed in enumerate(seeds):
            tracer.job[0] = i
            traced += run_jobs(verifier, workload, [job_seed])
            if i == 0:
                first_job_counts = tracer.counts()
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    # one spans file per workload, overwritten by its next traced run, to bound disk use
    report["spans"] = tracer.write_spans(OUT / workload.name)
    print("first job traced again", flush=True)
    again = Tracer()
    try:
        again.install(verifier)
        repeat = run_jobs(verifier, workload, seeds[:1])
    finally:
        again.uninstall()

    # determinism self-checks: tracing changes no report, and the counts repeat
    for p, t in zip(plain, traced):
        if p.structured() != t.structured():
            problems.append(f"job seed {p.seed}: structured report differs with tracing on")
    if again.counts() != first_job_counts:
        diff = {k: (v, again.counts().get(k)) for k, v in first_job_counts.items() if again.counts().get(k) != v}
        problems.append(f"job seed {seeds[0]}: two traced runs disagree on counts {diff}")
    for job in repeat:
        problems += check_job(golden, job)
    for job in plain:
        problems += check_job(golden, job)

    metrics = tracer.metrics()
    plain_s = sum(j.certify_s for j in plain)
    traced_s = sum(j.certify_s for j in traced)
    metrics["trace.overhead_ratio"] = traced_s / plain_s - 1
    metrics["trace.spans"] = report["spans"]
    attempted, failed = tally(traced)
    metrics["verifier.fail_ratio"] = failed / attempted
    report["untraced_certify_s"] = plain_s
    report["traced_certify_s"] = traced_s
    return metrics, traced


def run_stem(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}"


def run_one(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    verifier = import_engine()
    workload = WORKLOADS[args.workload]
    golden = json.loads((HERE / "goldens.json").read_text())[workload.name]["checks"]
    seeds = workload.job_seeds(args.seed, args.seconds)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    report = {"workload": workload.name, "why": why[workload.name], "seed": args.seed, "job_seeds": seeds}
    report["context"] = run_context()
    print("context: " + json.dumps(report), flush=True)

    problems: list[str] = []
    if args.trace:
        metrics, jobs = measure_per_layer(verifier, args, workload, seeds, golden, report, problems)
        wanted = spec["per_layer"]
    else:
        metrics, jobs = measure_end_to_end(verifier, args, workload, seeds, report)
        wanted = spec["end_to_end"]
    for job in jobs:
        problems += check_job(golden, job)
    attempted, failed = tally(jobs)

    out_metrics = {}
    for m in wanted:
        value = metrics.pop(m["name"])  # a KeyError here means a metric lost its source
        out_metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value:.6g} {m['unit']}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": out_metrics}
    for msg in problems:
        print("INCORRECT: " + msg)
    report.update(
        jobs=[
            {"seed": j.seed, "certify_s": j.certify_s, "env_s": j.env_s, "scenario_s": j.scenario_s(), "errors": j.errors}
            for j in jobs
        ],
        problems=problems,
        result=result,
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"{run_stem(args)}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Run every workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines() or [""]
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:  # the workload died before printing its result
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] = combined["correct"] and result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
