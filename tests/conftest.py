from fractions import Fraction

import pytest

from triform import Context
from triform.characters import _dlog_table
from triform.matrices import GroupElement
from triform.models import TableSection
from triform.verifier import Env, ScenarioConfig, rand_G, rand_K, rand_section  # noqa: F401  (the test modules' drawers)


@pytest.fixture(scope="session")
def ctx2():
    return Context(2, zeta_order=2)


@pytest.fixture(scope="session")
def ctx3():
    return Context(3, zeta_order=2)


# one full setup per (p, n): the verifier's Env, with its models, new vectors,
# torus functional phi and default ramified character at even n


@pytest.fixture(scope="session")
def setup21():
    return Env(ScenarioConfig(2, 1))


@pytest.fixture(scope="session")
def setup31():
    return Env(ScenarioConfig(3, 1))


@pytest.fixture(scope="session")
def setup32():
    return Env(ScenarioConfig(3, 2))


@pytest.fixture(scope="session")
def setup24():
    return Env(ScenarioConfig(2, 4))


@pytest.fixture(scope="session")
def setup34():  # mu3 of order 6: mu3^-2 of a pivot is not +-1
    return Env(ScenarioConfig(3, 4))


@pytest.fixture(scope="session")
def setup52():
    return Env(ScenarioConfig(5, 2))


@pytest.fixture(scope="session")
def setup52z():  # the specialized-zeta4 benchmark's configuration: a = 2, b = 3, u = 5
    return Env(ScenarioConfig(5, 2, specialize={"a": Fraction(2), "b": Fraction(3), "u": Fraction(5)}))


def image_exponent(ch, residue: int) -> int:
    """The j with ch(residue) = zeta_M^j, from the generator exponents times the
    residue's discrete log: a reference that never reads the exponent table."""
    if not ch.c:
        return 0
    dlog = _dlog_table(ch.ctx.p, ch.c)[residue % ch.ctx.p**ch.c]
    return sum(j * e for j, e in zip(ch.images, dlog)) % ch.ctx.field.m


# readers of a GroupElement that only the tests use


def entry(g: GroupElement, i: int) -> tuple[int, int]:
    """Entry i of (x, y, z, t) as a pair (numerator, denominator)."""
    return (g.X, g.Y, g.Z, g.T)[i], g.D


def is_upper(g: GroupElement) -> bool:
    return not g.Z


def in_K_principal(g: GroupElement, m: int) -> bool:
    """g in K(m): integral entries, = 1 mod p^m."""
    if not g.in_K():
        return False
    mod, D = g.p**m, g.D
    return not ((g.X - D) % mod or g.Y % mod or g.Z % mod or (g.T - D) % mod)


def borel_diagonal(b: GroupElement) -> tuple[tuple[int, int], tuple[int, int]]:
    """The diagonal entries (x, t) as pairs, for b in the Borel subgroup."""
    assert not b.Z, f"{b} is off the Borel subgroup"
    return (b.X, b.D), (b.T, b.D)


def cell_of(table, k: GroupElement) -> int:
    """The cell of k in K in a P1Table."""
    return table.cell_of_row(entry(k, 2), entry(k, 3))


def translate(tbl: TableSection, k: GroupElement) -> TableSection:
    """The right translate of tbl by k in K, built in full, cell by cell, from
    InducedModel.action: cell i takes zeta_M^e * values[j] for the action's (j, e)."""
    zeta = tbl.ctx.zeta_powers
    return TableSection(tbl.model, tbl.level, [zeta[e] * tbl.values[j] for j, e in tbl.model.action(k, tbl.level)])
