"""Enumeration completeness against brute-force oracles."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from triform import Context
from triform.cosets import (
    CosetTable,
    enumerate_iwahori_mod,
    enumerate_K_mod,
    gl2_size,
    iwahori_orbit_key,
    p1_size,
    p1_table,
    torus_orbit_reps,
)
from triform.errors import TriformError
from triform.matrices import GroupElement
from triform.padic import ratio_val, residue

from conftest import cell_of, entry, rand_K


def brute_p1_count(p: int, m: int) -> int:
    """Primitive bottom rows mod p^m up to unit scaling, counted directly."""
    mod = p**m
    units = [x for x in range(mod) if x % p]
    seen = set()
    for z, t in product(range(mod), range(mod)):
        if z % p == 0 and t % p == 0:
            continue
        orbit = min((z * e % mod, t * e % mod) for e in units)
        seen.add(orbit)
    return len(seen)


def test_p1_counts_brute_force():
    assert p1_size(2, 1) == brute_p1_count(2, 1) == 3
    assert p1_size(3, 2) == brute_p1_count(3, 2) == 12
    assert p1_size(2, 2) == brute_p1_count(2, 2) == 6
    assert p1_size(5, 1) == brute_p1_count(5, 1) == 6


def test_K_mod_counts():
    ctx = Context(2)
    assert len(enumerate_K_mod(ctx, 1)) == 6  # GL2(F_2)
    assert len(enumerate_K_mod(ctx, 2)) == gl2_size(2, 2)
    ctx3 = Context(3)
    assert len(enumerate_K_mod(ctx3, 1)) == 48


def test_p1_cell_lookup_partition(ctx3):
    """Every k in K reduces to exactly one representative cell."""
    rng = random.Random(9)
    table = p1_table(ctx3, 2)
    for _ in range(100):
        k = rand_K(ctx3, rng, m=3)
        cell = cell_of(table, k)
        rep = table.reps[cell]
        h = k * rep.inv()
        # h lies in (B cap K) K(m): its lower-left entry dies mod p^m
        assert ratio_val(*entry(h, 2), 3) >= 2
    # distinct reps are pairwise inequivalent
    for i, rep in enumerate(table.reps):
        assert cell_of(table, rep) == i


def test_iwahori_enumeration(ctx2):
    t = enumerate_iwahori_mod(ctx2, 1, 2)
    assert len(t) == gl2_size(2, 2) // p1_size(2, 1)
    for rep in t.reps:
        assert rep.in_iwahori(1)
    # pairwise inequivalent mod K(2)
    keys = set()
    for rep in t.reps:
        keys.add(tuple(residue(*entry(rep, i), 2, 2) for i in range(4)))
    assert len(keys) == len(t)


def test_torus_orbit_mass(ctx2, ctx3):
    assert torus_orbit_reps(ctx2, 1, 1).total_mass() == Fraction(1, 3)
    assert torus_orbit_reps(ctx2, 1, 2).total_mass() == Fraction(1, 3)
    assert torus_orbit_reps(ctx3, 2, 2).total_mass() == Fraction(1, 12)


def test_orbit_key_invariance(ctx3):
    rng = random.Random(11)
    n, m = 1, 2
    for _ in range(40):
        k = rand_K(ctx3, rng, m=m)
        if not k.in_iwahori(n):
            continue
        e1, e2 = rng.choice([1, 2, 4, 5, 7, 8]), rng.choice([1, 2, 4, 5, 7, 8])
        t = GroupElement.diag(3, e1, e2)
        assert iwahori_orbit_key(ctx3, t * k, n, m) == iwahori_orbit_key(ctx3, k, n, m)


def ref_orbit_key(a, p: int, m: int) -> tuple[int, int]:
    """(u e1/e2, x') mod p^m from k = nbar(u) diag(e1, e2) n(x'), in Fractions."""
    x, y, z, t = a
    e1, xp, u = x, y / x, z / x
    e2 = t - z * y / x
    mod = p**m
    return tuple(f.numerator * pow(f.denominator, -1, mod) % mod for f in (u * e1 / e2, xp))


def iwahori_entries(p: int, n: int):
    """Entries (x, y, z, t) of an element of I(n), with denominators prime to p."""
    entry = st.builds(Fraction, st.integers(-300, 300), st.integers(1, 30).filter(lambda d: d % p))
    unit = entry.filter(lambda f: f.numerator % p)
    return st.tuples(unit, entry, entry.map(lambda f: f * p**n), unit)


ORBIT_CTX = {p: Context(p) for p in (2, 3, 5)}


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([(p, n) for p in (2, 3, 5) for n in (1, 2)]).flatmap(
        lambda pn: st.tuples(st.just(pn), st.integers(0, 1), iwahori_entries(*pn))
    )
)
def test_orbit_key_matches_fraction_reference(case):
    (p, n), extra, a = case
    m = n + extra
    k = GroupElement(p, *a)
    assert k.in_iwahori(n)
    assert iwahori_orbit_key(ORBIT_CTX[p], k, n, m) == ref_orbit_key(a, p, m)


def test_level_cap():
    ctx = Context(2)
    with pytest.raises(TriformError, match="level too deep"):
        p1_table(ctx, 40)
    with pytest.raises(TriformError, match="level too deep"):
        enumerate_K_mod(ctx, 5)


def test_dispatcher_and_dump(ctx2):
    """The P^1 table as a coset table, in the dump format --dump-tables prints."""
    t = p1_table(ctx2, 1).as_coset_table()
    dump = t.dump()
    assert "level 1: [1 0; 0 1]" in dump
    assert len(dump.splitlines()) == len(t) + 1
    half = CosetTable("T", 1, 0, [GroupElement(2, Fraction(1, 2), 0, Fraction(-3, 4), 3)], Fraction(1))
    assert half.dump().splitlines()[1] == "level 1: [1/2 0; -3/4 3]"
