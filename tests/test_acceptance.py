"""Acceptance gate: one test per criterion.

The scenarios of triform.verifier are the only implementation of each claim.
The gate runs them once per configuration, on one Env per configuration, and
asserts that every check id verifier.COVERAGE lists for a criterion PASSes.
The SKIPPED records each configuration may show are listed in EXPECTED_SKIPS,
so a scenario that starts skipping fails the gate.  Each test prints a PASS
line on success (run with -s to see them).

Desk scale p in {2, 3}, n in {1, 2}, plus (5, 1), with one substitution: Q_2*
has no conductor-one character, so there is no third representation at (2, 2)
and the pi3-dependent claims run at (2, 4) instead (the nonexistence itself is
test_verifier.py::test_no_conductor_two_at_p2, and the (2, 2) open-orbit block,
which needs no third representation, is an input of
test_trilinear.py::test_closed_form_matches_ext); there both kernel
scenarios run on pair characters of conductor 2.  (3, 4) runs the claims on
phi (its equivariance, its nonvanishing on the new vector and
Phi = lambda phi), the depth vanishing below the conductor, the main
theorem, the proportionality of the two evaluators and the intro vanishing.  (5, 2) runs
every scenario symbolic in a, b and u over Q(zeta_4), last, as it is the
slowest configuration.

tests/gate_scalars.json pins the rendered scalars of every record the gate
produces, per configuration, so a change of a certified value fails the gate
until that file changes with it.
"""

import json
import re
from pathlib import Path

import pytest

from triform.verifier import COVERAGE, SCENARIOS, Env, ScenarioConfig, run_checks

# (p, n) -> the scenarios the gate runs there, in report order.  (2, 4) leaves
# out the Steinberg-only scenarios and the enumeration and open-orbit blocks,
# which (2, 1), (3, 1) and (3, 2) cover.  (3, 4) runs the three phi scenarios,
# conductor-vanishing, main-theorem, proportionality and intro-vanishing;
# tools/reach.py times its other chain scenarios (g-invariance's chain half
# alone takes about 3 s).
GATE = {
    (2, 1): SCENARIOS,
    (3, 1): SCENARIOS,
    (3, 2): SCENARIOS,
    (2, 4): (
        "phi-equivariance",
        "phi-nonvanishing",
        "Phi-lambda",
        "conductor-vanishing",
        "main-theorem",
        "nb-swap",
        "g-invariance",
        "proportionality",
        "intro-vanishing",
    ),
    (5, 1): SCENARIOS,
    (3, 4): (
        "phi-equivariance",
        "phi-nonvanishing",
        "Phi-lambda",
        "conductor-vanishing",
        "main-theorem",
        "proportionality",
        "intro-vanishing",
    ),
    (5, 2): SCENARIOS,
}

# the check ids that must come out SKIPPED, and no others
EXPECTED_SKIPS = {
    (2, 1): {"conductor-vanishing", "g-invariance.kernel", "proportionality"},  # n = 1, Steinberg
    (3, 1): {"conductor-vanishing", "g-invariance.kernel", "proportionality"},
    (3, 2): {"simple-case", "n1-identity"},  # n >= 2
    (2, 4): set(),
    (5, 1): {"conductor-vanishing", "g-invariance.kernel", "proportionality"},
    (3, 4): set(),
    (5, 2): {"simple-case", "n1-identity"},
}

_RUNS = {}


def gate_run(key):
    """(Env, check records) of the gate's scenarios at (p, n) = key, computed once per session."""
    if key not in _RUNS:
        env = Env(ScenarioConfig(*key))
        _RUNS[key] = (env, run_checks(env, GATE[key]))
    return _RUNS[key]


def covers(check_id: str, cid: str) -> bool:
    return check_id == cid or check_id.startswith(cid + ".")


def assert_criterion(number: int, claim: str, keys=tuple(GATE)) -> list:
    """Assert the COVERAGE ids of `claim` at every configuration of `keys` that
    runs their scenario; return the (key, record) pairs that were asserted."""
    asserted = []
    for key in keys:
        _, checks = gate_run(key)
        for cid in COVERAGE[claim]:
            if cid.split(".")[0] not in GATE[key]:
                continue
            records = [c for c in checks if covers(c.id, cid)]
            assert records, f"{cid} left no record at {key}"
            for c in records:
                want = "SKIPPED" if c.id in EXPECTED_SKIPS[key] else "PASS"
                assert c.verdict == want, f"{c.id} at {key}: {c.verdict} {c.reason}"
            skipped = {c.id for c in records if c.verdict == "SKIPPED"}
            assert skipped == {s for s in EXPECTED_SKIPS[key] if covers(s, cid)}, f"{cid} at {key}"
            asserted += [(key, c) for c in records]
    passed = sorted({c.id for _, c in asserted if c.verdict == "PASS"})
    assert passed, f"no check of {claim!r} passed"
    where = sorted({key for key, c in asserted if c.verdict == "PASS"})
    print(f"ACCEPTANCE criterion {number} PASS ({claim}): {', '.join(passed)} at {where}")
    return asserted


def test_criterion_01_translation_law():
    assert_criterion(1, "three-branch translation law")


def test_criterion_02_indicator_formula():
    assert_criterion(2, "open-orbit indicator formula and its closed form")


@pytest.mark.parametrize("key", list(GATE))
def test_criterion_03_phi_equivariance(key):
    assert_criterion(3, "torus equivariance of phi", keys=(key,))


@pytest.mark.parametrize("key", list(GATE))
def test_criterion_04_Phi_lambda(key):
    assert_criterion(4, "Phi equals lambda phi", keys=(key,))


def test_criterion_05_phi_nonvanishing():
    assert_criterion(5, "phi does not vanish on the new vector")


def test_criterion_06_main_theorem():
    assert_criterion(6, "main test-vector theorem with intro and depth vanishing")


def test_criterion_07_n1_identity_chain():
    assert_criterion(7, "depth-one identity chain")


def test_criterion_08_nb_swap():
    assert_criterion(8, "swapped test vector")


def test_criterion_09_proportionality():
    assert_criterion(9, "two evaluators proportional")


def test_criterion_10_g_invariance():
    asserted = assert_criterion(10, "invariance of both evaluators")

    def translations(cid):
        return [int(re.search(r"invariant under (\d+)", c.claim)[1]) for _, c in asserted if c.id == cid and c.verdict == "PASS"]

    assert sum(translations("g-invariance.chain")) >= 21
    assert translations("g-invariance.kernel") == [20, 20, 20]


def test_criterion_11_simple_case():
    assert_criterion(11, "simple-case pairing")


def test_criterion_12_structural():
    assert_criterion(12, "structural solves, conductors and enumerations")


def gate_scalars(key) -> dict:
    """check id -> {name: rendered scalar} over the gate's records at key that
    carry scalars: one configuration's entry in tests/gate_scalars.json, keyed
    there by "p,n"."""
    _, checks = gate_run(key)
    return {c.id: c.scalars for c in checks if c.scalars}


def test_gate_scalars_pinned():
    pinned = json.loads((Path(__file__).parent / "gate_scalars.json").read_text())
    assert sorted(pinned) == sorted(f"{p},{n}" for p, n in GATE)
    for p, n in GATE:
        assert gate_scalars((p, n)) == pinned[f"{p},{n}"], f"the recorded scalars at ({p},{n}) changed"
