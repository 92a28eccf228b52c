"""Report machinery: determinism, round trip, fault injection, coverage,
configuration validation, CLI plumbing."""

import json
import subprocess
import sys

import pytest

from triform.context import MAX_LEVEL
from triform.verifier import (
    COVERAGE,
    SCENARIOS,
    ConfigError,
    Env,
    ScenarioConfig,
    coverage_complete,
    default_mu3_spec,
    parse_report,
    run_scenario,
)


def test_coverage_complete():
    assert coverage_complete()
    assert set(sum(COVERAGE.values(), [])) <= set(SCENARIOS)


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
    assert data["schema_version"] == 1


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


def test_fault_injection_pinpoints_cell():
    rep = run_scenario(ScenarioConfig(p=2, n=1, scenario="formula-FK", inject_fault=True))
    assert rep.has_failure()
    bad = [c for c in rep.checks if c.verdict == "FAIL"]
    assert any("first mismatched cell pair" in c.reason for c in bad)


def test_verdicts_partition():
    rep = run_scenario(ScenarioConfig(p=2, n=1, scenario="t-in-membership"))
    assert all(c.verdict in ("PASS", "FAIL", "SKIPPED") for c in rep.checks)
    assert not rep.has_failure()


def test_specialized_run():
    from fractions import Fraction

    cfg = ScenarioConfig(p=2, n=1, scenario="Phi-lambda", specialize={"a": Fraction(2), "b": Fraction(3)})
    rep = run_scenario(cfg)
    assert not rep.has_failure()


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
    """A level past MAX_LEVEL is a configuration error (exit 2), not a traceback."""
    proc = subprocess.run(
        [sys.executable, "-m", "triform", "--p", "2", "--n", "1", "--level", "9"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert "configuration error" in proc.stderr
    assert "Traceback" not in proc.stderr
