from fractions import Fraction
from math import lcm

import pytest

from triform import Context
from triform.characters import _dlog_table
from triform.matrices import GroupElement
from triform.models import TableSection
from triform.scalars import Poly, Scalar
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


def reference_sum_products(field, items, den: int = 1) -> Scalar:
    """The sum over items (factors, e, n) of n zeta_M^e times the factors'
    product, over the int den, by a route that shares no accumulation code with
    sum_products: that function's oracle, and the sum the test-side references
    use.  is_zero and is_one per factor, the items grouped by denominator
    multiset, each item's numerators expanded with unreduced exponents into its
    group's int terms, and those reduced once, by r^2 = q and the row of
    zeta^(k mod M) (FieldSpec.zeta_rows), as the group becomes a Scalar.  A
    group of one item with e = 0, n = 1 and den = 1 is that item's Scalar
    product, as in sum_products, so the canonical forms agree."""
    groups: dict = {}
    for factors, e, n in items:
        fs = []
        for f in factors:
            if f.is_zero():
                break
            if not f.is_one():
                fs.append(f)
        else:
            groups.setdefault(tuple(sorted(g.den_key() for f in fs for g in f.den)), []).append((fs, e, n))
    out = Scalar(field, Poly.zero(field))
    for group in groups.values():
        fs, e, n = group[0]
        if len(group) == 1 and not e and n == 1 == den:
            term = fs[0] if fs else Scalar.from_rational(field, 1)
            for f in fs[1:]:
                term = term * f
            out = out + term
            continue
        acc, acc_den = {}, 1
        for item_fs, e, n in group:
            terms, d = {(0, 0, 0, 0, e): n}, 1
            for f in item_fs:
                expanded: dict = {}
                for (a1, b1, u1, r1, z1), c1 in terms.items():
                    for (a2, b2, u2, r2, z2), c2 in f.num.terms.items():
                        mo = (a1 + a2, b1 + b2, u1 + u2, r1 + r2, z1 + z2)
                        expanded[mo] = expanded.get(mo, 0) + c1 * c2
                terms, d = expanded, d * f.num.den
            common = lcm(acc_den, d)
            if common != acc_den:
                acc = {mo: c * (common // acc_den) for mo, c in acc.items()}
            for mo, c in terms.items():
                acc[mo] = acc.get(mo, 0) + c * (common // d)
            acc_den = common
        reduced: dict = {}
        for (a, b, u, r, z), c in acc.items():
            c *= field.q ** (r // 2)
            for j, k in field.zeta_rows[z % field.m]:
                mo = (a, b, u, r % 2, j)
                reduced[mo] = reduced.get(mo, 0) + c * k
        out = out + Scalar(field, Poly._make(field, reduced, acc_den * den), tuple(g for f in fs for g in f.den))
    return out
