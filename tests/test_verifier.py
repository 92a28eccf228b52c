"""Report machinery: determinism, round trip, fault injection, coverage,
configuration validation, CLI plumbing."""

import importlib.util
import json
import random
import re
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from triform import verifier
from triform.cli import main as cli_main
from triform.context import MAX_LEVEL, Context
from triform.errors import PoleError, TailError, TriformError
from triform.functionals import TorusFunctional
from triform.matrices import GroupElement
from triform.models import Section, fixed_space, iwahori_generators
from triform.scalars import FieldSpec
from triform.trilinear import KernelForm
from triform.verifier import (
    COVERAGE,
    SCENARIOS,
    ConfigError,
    Env,
    ScenarioConfig,
    default_mu3_spec,
    parse_report,
    run_scenario,
)


def test_coverage_complete():
    assert all(COVERAGE.values())
    assert {cid.split(".")[0] for cid in sum(COVERAGE.values(), [])} <= set(SCENARIOS)


def test_gate_runs_every_covered_scenario():
    """The acceptance gate runs every COVERAGE scenario at one or more
    configurations, and each expected skip names a scenario run there."""
    from test_acceptance import EXPECTED_SKIPS, GATE

    assert set(EXPECTED_SKIPS) == set(GATE)
    gated = set().union(*GATE.values())
    assert {cid.split(".")[0] for cid in sum(COVERAGE.values(), [])} <= gated
    for key, skips in EXPECTED_SKIPS.items():
        assert {s.split(".")[0] for s in skips} <= set(GATE[key]) <= set(SCENARIOS)


def test_config_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(p=7).validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(p=2, n=3).validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(p=2, n=2, level=1).validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(p=2, n=1, scenario="nope").validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(p=2, n=1, level=MAX_LEVEL + 1).validate()
    ScenarioConfig(p=2, n=1, level=MAX_LEVEL).validate()


def test_no_conductor_two_at_p2():
    """(p, n) = (2, 2) is unrealizable: Q_2* has no conductor-one character."""
    with pytest.raises(ConfigError):
        Env(ScenarioConfig(p=2, n=2))
    with pytest.raises(ConfigError):
        default_mu3_spec(2, 1)


def test_default_mu3():
    assert default_mu3_spec(3, 1) == "ram(c=1, gens=[2->zeta2^1], pi=u)"
    assert default_mu3_spec(2, 2) == "ram(c=2, gens=[3->zeta2^1], pi=u)"
    assert "zeta4" in default_mu3_spec(5, 1)


def test_report_roundtrip_and_determinism():
    cfg = ScenarioConfig(p=2, n=1, scenario="simple-case", seed=7)
    rep1 = run_scenario(cfg)
    rep2 = run_scenario(ScenarioConfig(p=2, n=1, scenario="simple-case", seed=7))
    assert rep1.emit("structured") == rep2.emit("structured")
    parsed = parse_report(rep1.emit("structured"))
    assert parsed.seed == 7
    assert [c.id for c in parsed.checks] == [c.id for c in rep1.checks]
    assert [c.verdict for c in parsed.checks] == [c.verdict for c in rep1.checks]
    assert parsed.config == rep1.config
    data = json.loads(rep1.emit("structured"))
    assert data["schema_version"] == 2


DRAWERS = ("rand_unit", "rand_K", "rand_torus", "rand_G", "rand_section")


@pytest.mark.parametrize("p, n", [(2, 1), (3, 2), (2, 4)])
def test_scenario_draws_the_same_alone_and_inside_all(monkeypatch, p, n):
    """Each scenario draws from its own stream, seeded by (seed, scenario id):
    inside `all` it draws the same elements, and records the same ids,
    verdicts, reasons and scalars, as when it runs alone with the same seed."""
    current, draws = [None], []

    def recording(name, real):
        def drawer(*args):
            out = real(*args)
            shown = [v.render() for v in out.as_table().values] if isinstance(out, Section) else repr(out)
            draws.append((current[0], name, shown))
            return out

        return drawer

    def marking(sid, runner):
        def run(*args):
            current[0] = sid
            return runner(*args)

        return run

    for name in DRAWERS:
        monkeypatch.setattr(verifier, name, recording(name, getattr(verifier, name)))
    real_random = random.Random.random
    monkeypatch.setattr(random.Random, "random", recording("random", real_random))
    for sid in SCENARIOS:
        monkeypatch.setitem(verifier._RUNNERS, sid, marking(sid, verifier._RUNNERS[sid]))

    def per_scenario(scenario: str) -> dict:
        draws.clear()
        report = run_scenario(ScenarioConfig(p, n, scenario=scenario, seed=3))
        records = [(c.id, c.verdict, c.reason, c.scalars) for c in report.checks]
        return {
            sid: ([d[1:] for d in draws if d[0] == sid], [r for r in records if r[0].split(".")[0] == sid])
            for sid in {r[0].split(".")[0] for r in records}
        }

    inside_all = per_scenario("all")
    assert set(inside_all) == set(SCENARIOS)
    assert len(inside_all["g-invariance"][0]) >= 6 and inside_all["Phi-lambda"][0]  # the drawers are seen
    for sid in SCENARIOS:
        assert per_scenario(sid) == {sid: inside_all[sid]}, sid


def test_sqrt_q_convention_says_what_r_is():
    """The sqrt_q line keeps the formal text where Q(zeta_M) lacks sqrt(q),
    and says which root r is where Q(zeta_M) holds it (M = 20 and q = 5, as
    for the default mu3 at (5,4))."""
    assert verifier.sqrt_q_convention(FieldSpec(m=4, q=5)) == (
        "formal generator r with r^2 -> q; r -> -r is a field automorphism fixing every verdict"
    )
    assert verifier.sqrt_q_convention(FieldSpec(m=20, q=5)) == (
        "r is sqrt(5) in Q(zeta20), the root that is positive under zeta20 -> e^(2 pi i/20)"
    )


def test_scalar_strings_reparse():
    from triform.context import Context
    from triform.scalars import parse_scalar

    rep = run_scenario(ScenarioConfig(p=2, n=1, scenario="phi-nonvanishing"))
    ctx = Context(2, zeta_order=2)
    parsed = parse_report(rep.emit("structured"))
    found = 0
    for c in parsed.checks:
        for text in c.scalars.values():
            if "(" in text or text.strip("-").isdigit():
                parse_scalar(ctx.field, text)
                found += 1
    assert found >= 1


def test_chain_values_memoized_per_env(monkeypatch):
    """At n = 1, main-theorem, n1-identity and nb-swap share the values
    ell(gamma^-1 v1 (x) v2 (x) v3), ell(v1 (x) gamma^-1 v2 (x) v3) and
    Psi(ext f)(v3): each is computed once per Env (5 chain calls, not 10).
    formula-FK, lemma-FV and Psi(ext f) share one ext(f) per Env."""
    calls = []
    exts = []
    real = verifier.ell_chain
    real_ext = verifier.ext
    monkeypatch.setattr(verifier, "ell_chain", lambda *a, **k: calls.append(1) or real(*a, **k))
    monkeypatch.setattr(verifier, "ext", lambda *a, **k: exts.append(1) or real_ext(*a, **k))
    env = Env(ScenarioConfig(2, 1))
    checks = verifier.run_checks(env, ["formula-FK", "lemma-FV", "main-theorem", "n1-identity", "nb-swap"])
    assert [c.verdict for c in checks] == ["PASS"] * len(checks)
    assert len(calls) == 5
    assert len(exts) == 1
    assert env.ell_pure(1, 0) is env.ell_pure(1, 0) and len(calls) == 5


def test_engine_error_record_carries_scenario_time(monkeypatch, setup21):
    """A scenario that fails with an engine error after 50 ms of work ends as a
    FAIL record carrying the time since the previous record."""

    def slow_failure(env, checks, rng):
        time.sleep(0.05)
        raise TriformError("late failure")

    monkeypatch.setitem(verifier._RUNNERS, "lemma-FV", slow_failure)
    (check,) = verifier.run_checks(setup21, ["lemma-FV"])
    assert (check.id, check.verdict, check.reason) == ("lemma-FV", "FAIL", "TriformError: late failure")
    assert check.ms >= 50


def test_engine_error_keeps_the_checks_already_recorded(monkeypatch):
    """An engine error in main-theorem's second chain evaluation (Psi(ext f))
    ends the scenario after the three checks it had already recorded.  One
    clock stamps all four records, so their times add up to at most the run's
    wall time."""
    real = verifier.ell_chain
    calls = []

    def failing_second_call(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise TriformError("injected chain error")
        return real(*args, **kwargs)

    monkeypatch.setattr(verifier, "ell_chain", failing_second_call)
    env = Env(ScenarioConfig(2, 1))
    start = time.perf_counter()
    checks = verifier.run_checks(env, ["main-theorem"])
    elapsed_ms = (time.perf_counter() - start) * 1000
    assert [(c.id, c.verdict) for c in checks] == [
        ("main-theorem.newvector", "PASS"),
        ("main-theorem.invariance", "PASS"),
        ("main-theorem.testvector", "PASS"),
        ("main-theorem", "FAIL"),
    ]
    assert checks[-1].reason == "TriformError: injected chain error"
    assert sum(c.ms for c in checks) <= elapsed_ms


def test_fault_injection_pinpoints_cell(monkeypatch):
    """A wrong coefficient in the closed form, (1 + a) A for A, fails
    formula-FK.indicator at its first mismatched cell pair; the ext route,
    which does not read the closed form, still passes."""
    real = verifier.closed_form_tensor

    def wrong_coefficient(ctx, mu1, mu2, v1, v2, n, A):
        return real(ctx, mu1, mu2, v1, v2, n, A * (ctx.one() + ctx.a))

    monkeypatch.setattr(verifier, "closed_form_tensor", wrong_coefficient)
    rep = run_scenario(ScenarioConfig(p=2, n=1, scenario="formula-FK"))
    indicator, ext_route = rep.checks
    assert (indicator.id, indicator.verdict) == ("formula-FK.indicator", "FAIL")
    assert re.fullmatch(r"first mismatched cell pair \(\d+, \d+\)", indicator.reason)
    assert (ext_route.id, ext_route.verdict) == ("formula-FK.ext", "PASS")


def test_verdicts_partition():
    rep = run_scenario(ScenarioConfig(p=2, n=1, scenario="t-in-membership"))
    assert all(c.verdict in ("PASS", "FAIL", "SKIPPED") for c in rep.checks)
    assert not rep.has_failure()


def test_specialized_run():
    """Off the poles of A and of phi's geometric tails, every scenario passes."""
    from fractions import Fraction

    cfg = ScenarioConfig(p=2, n=1, scenario="all", specialize={"a": Fraction(2), "b": Fraction(3)})
    rep = run_scenario(cfg)
    assert not rep.has_failure()


def test_specialized_u_is_substituted_into_mu3():
    """--specialize u=5 substitutes u into mu3(pi) = 2u, giving 10, and does not replace it by 5."""
    cfg = ScenarioConfig(p=3, n=2, mu3="ram(c=1, gens=[2->zeta2^1], pi=2*u)", specialize={"u": 5})
    assert "pi=10" in Env(cfg).mu3.render_spec()


def test_cli_subprocess(tmp_path):
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "triform", "--p", "2", "--n", "1", "--scenario", "simple-case",
         "--format", "json-like", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert all(c["verdict"] == "PASS" for c in data["checks"])


def test_cli_config_file(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("p = 2\nn = 1\nscenario = intro-vanishing\nseed = 3\n")
    proc = subprocess.run(
        [sys.executable, "-m", "triform", "--config", str(cfgfile)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "[PASS] intro-vanishing.value" in proc.stdout


def test_cli_dump_tables():
    proc = subprocess.run(
        [sys.executable, "-m", "triform", "--p", "2", "--n", "1", "--dump-tables"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "level 1: [1 0; 0 1]" in proc.stdout


def test_cli_bad_config():
    proc = subprocess.run(
        [sys.executable, "-m", "triform", "--p", "2", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "configuration error" in proc.stderr


def test_cli_level_past_cap():
    """A level past MAX_LEVEL is a configuration error (exit 2), not a traceback,
    for a scenario run and for a table dump."""
    for extra in ([], ["--dump-tables"]):
        proc = subprocess.run(
            [sys.executable, "-m", "triform", "--p", "2", "--n", "1", "--level", "9", *extra],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert "configuration error" in proc.stderr
        assert "Traceback" not in proc.stderr


def _raises(error):
    def runner(env, checks, rng):
        raise error

    return runner


@pytest.mark.parametrize(
    "runner,reason",
    [
        (_raises(TriformError("injected engine error")), "TriformError: injected engine error"),
        (_raises(PoleError("injected pole")), "PoleError: injected pole"),
        (_raises(TailError("injected tail")), "TailError: injected tail"),
        (lambda env, checks, rng: GroupElement(2, 1, 2, 2, 4), "TriformError: singular matrix is not a group element"),
    ],
    ids=["TriformError", "PoleError", "TailError", "singular-matrix"],
)
def test_cli_engine_error_is_a_fail_record(monkeypatch, capsys, runner, reason):
    """An engine error inside a scenario (raised by its runner, or by the
    matrix layer it calls) is that scenario's FAIL record with the reason:
    exit 1, no traceback."""
    monkeypatch.setitem(verifier._RUNNERS, "intro-vanishing", runner)
    code = cli_main(["--p", "2", "--n", "1", "--scenario", "intro-vanishing", "--format", "json-like"])
    out, err = capsys.readouterr()
    assert code == 1, err
    assert "Traceback" not in err
    (check,) = json.loads(out)["checks"]
    assert (check["id"], check["verdict"]) == ("intro-vanishing", "FAIL")
    assert check["reason"] == reason


@pytest.mark.parametrize(
    "argv",
    [
        ["--p", "3", "--n", "2", "--mu3", "garbage"],
        ["--p", "3", "--n", "2", "--mu3", "ram(c=1, gens=[2->zeta3^1], pi=u)"],  # image of the wrong order
        ["--specialize", "a=x"],
        ["--config", "{tmp}/bad.cfg"],
        ["--config", "{tmp}/missing.cfg"],
        ["--scenario", "lemma-calcul", "--out", "{tmp}/no/such/dir/report.txt"],
        ["--dump-tables", "--out", "{tmp}/no/such/dir/tables.txt"],
        ["--p", "3", "--n", "2", "--mu3", "ram(c=1, gens=[2->zeta2^1], pi=zeta0)"],  # malformed literals
        ["--p", "3", "--n", "2", "--mu3", "ram(c=1, gens=[2->zeta2^1], pi=u+)"],
        ["--specialize", "a=0"],  # a character's value at pi must be nonzero
        ["--p", "3", "--n", "2", "--mu3", "ram(c=1, gens=[2->zeta2^1], pi=0)"],
        ["--p", "3", "--n", "2", "--mu3", "ram(c=1, gens=[2->zeta0^1], pi=u)"],  # no zeta of order 0
        ["--specialize", "a=1"],  # a^2 = 1 and b^2 = 1 are poles of A
        ["--specialize", "b=-1"],
        # geometric tails of phi at ratio 1: rho = 2b/a = 1, then X = b/(2a) = 1
        ["--specialize", "a=4,b=2", "--scenario", "main-theorem"],
        ["--specialize", "a=2,b=4", "--scenario", "main-theorem"],
        ["--specialize", "a=1/2,b=1/4"],
        ["--specialize", "u=5"],  # the Steinberg model at n = 1 has no u
        ["--p", "3", "--n", "2", "--mu3", "ram(c=1, gens=[2->zeta2^1], pi=u-5)", "--specialize", "u=5"],  # zero at pi
        ["--p", "3", "--n", "2", "--mu3", "ram(c=1, gens=[2->zeta2^1], pi=1/(u-5))", "--specialize", "u=5"],  # pole
        ["--config", "{tmp}/format.cfg"],  # a config file gets the checks of the flags
        ["--config", "{tmp}/flag.cfg"],
        ["--p", "2", "--n", "1", "--scenario", "main-theorem", "--specialize", "a=2,b=1/2"],  # depth tail at ab = 1
        ["--p", "2", "--n", "2", "--level", "8", "--dump-tables"],  # |I(2)/K(8)| is past the enumeration cap
        ["--p", "3", "--n", "2", "--mu3", "garbage", "--dump-tables"],  # tables only for a configuration a run accepts
        ["--p", "2", "--n", "1", "--specialize", "a=2,b=1/2", "--dump-tables"],
        ["--inject-fault"],  # no such flag
        ["--config", "{tmp}/fault.cfg"],  # no such config key
    ],
)
def test_cli_bad_input_is_a_config_error(argv, tmp_path):
    """Malformed input exits 2 with a configuration error, not a traceback."""
    (tmp_path / "bad.cfg").write_text("p = x\n")
    (tmp_path / "format.cfg").write_text("format = json\n")
    (tmp_path / "flag.cfg").write_text("dump_tables = treu\n")
    (tmp_path / "fault.cfg").write_text("inject_fault = 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "triform", *(a.format(tmp=tmp_path) for a in argv)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert "configuration error" in proc.stderr
    assert "Traceback" not in proc.stderr


BAD_CONFIGS = [
    ["--p", "7"],  # rejected by validation
    ["--p", "2", "--n", "1", "--level", "9"],
    ["--p", "2", "--n", "1", "--level", "9", "--dump-tables"],
    ["--p", "2", "--n", "2", "--level", "8", "--dump-tables"],  # refused before any table is built
    ["--p", "3", "--n", "4", "--mu3", "ram(c=1, gens=[2->zeta2^1], pi=u)"],  # rejected in Env: conductor 2, not 4
    ["--p", "3", "--n", "2", "--scenario", "intro-vanishing", "--mu3", f"ram(c=1, gens=[2->zeta2^1], pi={'(' * 400}u{')' * 400})"],
]


@pytest.mark.parametrize("argv", BAD_CONFIGS)
def test_cli_bad_config_leaves_no_report(argv, tmp_path, capsys):
    """A configuration error (exit 2) leaves no report file behind, and a file
    that was there before is left as it was."""
    out = tmp_path / "r.txt"
    assert cli_main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    assert "configuration error" in capsys.readouterr().err
    out.write_text("kept\n")
    assert cli_main([*argv, "--out", str(out)]) == 2
    assert out.read_text() == "kept\n"


def test_cli_unwritable_out_fails_before_any_work(tmp_path, monkeypatch, capsys):
    """An --out that cannot be written exits 2 before a scenario runs."""
    monkeypatch.setattr("triform.cli.run_scenario", lambda cfg: pytest.fail("ran a scenario"))
    assert cli_main(["--scenario", "all", "--out", str(tmp_path / "no" / "dir" / "r.txt")]) == 2
    assert "cannot write the report" in capsys.readouterr().err
    assert not (tmp_path / "no").exists()


@pytest.mark.parametrize("side", ["negative", "positive"])
def test_stabilization_fails_on_a_perturbed_annulus(setup32, monkeypatch, side):
    """One annulus past depth D moved by 1 makes phi-nonvanishing.stabilization
    FAIL with a reason: at k = -(D+1) the negative tail stops being geometric,
    at k = D+2 the closure at depth D+2 moves.  The depth-D closure does not
    read either annulus, so .value and .reference stand."""
    env = setup32
    D = env.v3.level_bound() + max(1, env.phi.chtil.c) + 2
    k_bad = -(D + 1) if side == "negative" else D + 2
    annulus = TorusFunctional.annulus

    def perturbed(self, section, k):
        out = annulus(self, section, k)
        return out + 1 if k == k_bad else out

    monkeypatch.setattr(TorusFunctional, "annulus", perturbed)
    checks = {c.id: c for c in verifier.run_checks(env, ["phi-nonvanishing"])}
    assert checks["phi-nonvanishing.value"].verdict == "PASS"
    assert checks["phi-nonvanishing.reference"].verdict == "PASS"
    stab = checks["phi-nonvanishing.stabilization"]
    assert stab.verdict == "FAIL"
    assert ("tail not stabilized" if side == "negative" else "depths D and D+2 differ") in stab.reason


@pytest.mark.parametrize("key", ["setup32", "setup24"])
def test_conductor_vanishing_fails_on_the_next_fixed_space(request, monkeypatch, key):
    """With V3's I(m + 1)-fixed space in place of its I(m)-fixed space, depth n-1
    reads V3^I(n), the new vector's line, so conductor-vanishing.depth{n-1} FAILs;
    V3^I(n-1) is still 0, so depth{n-2} stands."""
    env = request.getfixturevalue(key)
    n = env.cfg.n
    monkeypatch.setattr(verifier, "fixed_space", lambda model, m, level=None: fixed_space(model, m + 1, level))
    verdicts = {c.id: c.verdict for c in verifier.run_checks(env, ["conductor-vanishing"])}
    assert verdicts == {f"conductor-vanishing.depth{n - 2}": "PASS", f"conductor-vanishing.depth{n - 1}": "FAIL"}


@pytest.mark.parametrize("key", ["setup32", "setup24"])
def test_conductor_vanishing_fails_on_a_larger_iwahori(request, monkeypatch, key):
    """Checked against the generators of I(m - 1), gamma^-m v1 (x) v2 is not fixed
    for m >= 1 (lower(p^(m-1)) moves gamma^-m v1), so depth{m} FAILs; at m = 0
    the generators stay those of K."""
    env = request.getfixturevalue(key)
    n = env.cfg.n
    monkeypatch.setattr(verifier, "iwahori_generators", lambda ctx, m, level: iwahori_generators(ctx, max(m - 1, 0), level))
    verdicts = {c.id: c.verdict for c in verifier.run_checks(env, ["conductor-vanishing"])}
    assert verdicts == {f"conductor-vanishing.depth{m}": "PASS" if m == 0 else "FAIL" for m in (n - 2, n - 1)}


def test_kernel_form_built_once_per_env(setup21, setup24, setup32):
    """g-invariance.kernel and proportionality share Env.kernel_form, and skip
    with one reason where the kernel route does not apply."""
    reason = "Steinberg input: unsupported model for kernel route"
    assert setup21.kernel_form == reason
    (skip,) = verifier.run_checks(setup21, ["proportionality"])
    assert (skip.verdict, skip.reason) == ("SKIPPED", reason)
    for env in (setup24, setup32):
        assert isinstance(env.kernel_form, KernelForm)
        assert env.kernel_form is env.kernel_form


def test_kernel_scenarios_fail_on_zero_values(monkeypatch):
    """With both evaluators 0 on every input, g-invariance.kernel and
    proportionality FAIL after verifier.KERNEL_DRAWS draws each, with the
    counts in the reason: they neither pass as 0 == 0 nor draw forever."""
    env = Env(ScenarioConfig(3, 2))
    calls = [0]

    def zero(*args, **kwargs):
        calls[0] += 1
        assert calls[0] <= 1000, "a kernel scenario kept drawing"
        return env.ctx.zero()

    monkeypatch.setattr(Env, "ell", zero)
    monkeypatch.setattr(KernelForm, "eval", zero)
    checks = {c.id: c for c in verifier.run_checks(env, ["g-invariance", "proportionality"])}
    kernel, constant = checks["g-invariance.kernel"], checks["proportionality.constant"]
    assert (kernel.verdict, kernel.reason) == ("FAIL", f"the kernel value was 0 on all {verifier.KERNEL_DRAWS} random triples drawn")
    assert (constant.verdict, constant.reason) == ("FAIL", f"only 0 of the {verifier.KERNEL_DRAWS} random triples drawn gave a nonzero chain value")


def test_tracer_entry_points_resolve():
    """The benchmark's traced mode finds every function it wraps: each entry
    point and each scenario runner is a plain function of the package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for _, _, modname, attr_path in tracer.ENTRY_POINTS:
        owner = importlib.import_module(modname)
        *outer, attr = attr_path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert isinstance(vars(owner).get(attr), types.FunctionType), f"{modname}.{attr_path}"
    for sid in SCENARIOS:
        assert isinstance(verifier._RUNNERS.get(sid), types.FunctionType), sid


def test_tracer_installs_in_a_fresh_interpreter():
    """perfbench's Tracer installs on triform.verifier and uninstalls in a fresh
    interpreter with only src and perfbench on its path.  Installing audits the
    referrers of every wrapped function, so a module alias, closure or default
    argument that still holds an unwrapped original fails here, and not only in
    the benchmark's traced pass."""
    root = Path(__file__).resolve().parent.parent
    code = "import sys; sys.path[:0] = sys.argv[1:]; from triform import verifier; from tracer import Tracer; t = Tracer(); t.install(verifier); t.uninstall()"
    run = subprocess.run([sys.executable, "-I", "-c", code, str(root / "src"), str(root / "perfbench")], capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr


def test_benchmark_jobs_match_the_goldens(monkeypatch):
    """Job seed 0 of each benchmark workload, certified by perfbench's own
    run_job and checked by its check_job against perfbench/goldens.json (read,
    never written): a change that moves a benchmark check id, verdict or golden
    scalar fails tier-1, not only the benchmark run."""
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(bench))  # run.py imports its siblings by name
    spec = importlib.util.spec_from_file_location("perfbench_run", bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    goldens = json.loads((bench / "goldens.json").read_text())
    assert set(goldens) == set(run.WORKLOADS)
    for name, workload in run.WORKLOADS.items():
        job = run.run_job(verifier, workload, 0)
        assert run.check_job(goldens[name]["checks"], job) == [], name
