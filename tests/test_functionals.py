"""The torus functional: its derived twist, equivariance, the two computation
routes, linearity, the indicator f and the compact-orbit integral
Phi = lambda phi."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from triform import Context
from triform.errors import TailError, TriformError
from triform.characters import SmoothCharacter, parse_character_spec
from triform.cosets import p1_size, p1_table, units_mod
from triform.functionals import (
    CompactInducedFn,
    Phi_eval,
    TorusFunctional,
    close_tail,
    coset_constant,
    derive_phi_twist,
)
from triform.matrices import GroupElement, iwasawa
from triform.models import Section, TableSection, principal_series_model, steinberg_model
from triform.padic import ratio_val, unit_residue
from triform.scalars import sum_products

from conftest import image_exponent, rand_G, rand_K, rand_section, reference_sum_products, translate


def test_twist_derivation(setup21, setup32):
    # Steinberg: the twist is unramified with value (b/a)/q at pi
    ch = derive_phi_twist(setup21.mu1, setup21.mu2, setup21.V3)
    ctx = setup21.ctx
    assert ch.c == 0
    assert ch.value_at_pi == ctx.b / (ctx.a * ctx.scalar(2))
    # ramified principal series: the unit data of mu3 survives into the twist
    ch3 = derive_phi_twist(setup32.mu1, setup32.mu2, setup32.V3)
    ctx3 = setup32.ctx
    assert ch3.c == 1
    assert ch3.value_at_pi == ctx3.b * ctx3.u / (ctx3.a * ctx3.r)


def test_cocycle_identity(setup21):
    """wbar n(y) t = diag(t2, t1) wbar n(y t2/t1): the change of variables
    behind the twist derivation, as an exact matrix identity."""
    rng = random.Random(0)
    p = 2
    wbar = GroupElement.w(p)
    for _ in range(20):
        y = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        t1 = Fraction(rng.choice([1, 3, 5])) * Fraction(p) ** rng.randint(-2, 2)
        t2 = Fraction(rng.choice([1, 3, 5])) * Fraction(p) ** rng.randint(-2, 2)
        lhs = wbar * GroupElement.upper(p, y) * GroupElement.diag(p, t1, t2)
        rhs = GroupElement.diag(p, t2, t1) * wbar * GroupElement.upper(p, y * t2 / t1)
        assert lhs == rhs


def test_equivariance_exact(setup21):
    s = setup21
    rng = random.Random(1)
    secs = [rand_section(s.ctx, rng, s.V3, 1) for _ in range(5)]
    for sec in secs:
        for _ in range(10):
            d1 = Fraction(rng.choice([1, 3, 5, 7])) * Fraction(2) ** rng.randint(-3, 3)
            d2 = Fraction(rng.choice([1, 3, 5, 7])) * Fraction(2) ** rng.randint(-3, 3)
            t = GroupElement.diag(2, d1, d2)
            assert s.phi.eval(sec.translated(t)) == s.phi.ratio21.eval(*t.ratio(0, 3)) * s.phi.eval(sec)


def test_equivariance_ramified(setup32):
    s = setup32
    rng = random.Random(2)
    sec = s.v3.translated(GroupElement.upper(3, 1))
    for _ in range(15):
        d1 = Fraction(rng.choice([1, 2, 4, 5])) * Fraction(3) ** rng.randint(-2, 2)
        d2 = Fraction(rng.choice([1, 2, 4, 5])) * Fraction(3) ** rng.randint(-2, 2)
        t = GroupElement.diag(3, d1, d2)
        assert s.phi.eval(sec.translated(t)) == s.phi.ratio21.eval(*t.ratio(0, 3)) * s.phi.eval(sec)


def test_fast_equals_reference(setup21, setup32):
    rng = random.Random(3)
    for s in (setup21, setup32):
        phi = s.phi
        targets = [s.v3, s.v3.translated(s.gamma(-1)), rand_section(s.ctx, rng, s.V3, s.V3.min_level)]
        targets.append(s.v3.translated(rand_G(s.ctx, rng, val_range=1)))
        for sec in targets:
            want = phi.eval(sec)
            closures = phi.eval_reference(sec)
            assert len(closures) == 4 and all(c == want for c in closures)
            first = phi.eval_reference(sec, depths=1)
            assert len(first) == 1 and first[0].render() == closures[0].render()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2**32))
def test_reader_matches_eval_of_the_translate(setup21, setup32, setup24, case, seed):
    """At an upper-triangular b, read as the ints (alpha, beta, delta), and a
    cell rep, the terms the reader hoists for (v, rep) sum to phi(pi(b rep) v),
    which eval reaches through the translated section and its own Iwasawa
    splits."""
    s = (setup21, setup32, setup24)[case]
    ctx, p = s.ctx, s.ctx.p
    rng = random.Random(seed)
    level = s.V3.min_level + rng.randint(0, 1)
    v = rand_section(s.ctx, rng, s.V3, level)
    for _ in range(rng.randint(1, 3)):
        v = v + rand_section(s.ctx, rng, s.V3, level).translated(rand_G(ctx, rng, val_range=1))
    rep = rng.choice(p1_table(ctx, level).reps)

    def unit():
        return Fraction(rng.choice([x for x in range(1, p**3) if x % p]))

    t = GroupElement.diag(p, unit() * Fraction(p) ** rng.randint(-3, 3), unit() * Fraction(p) ** rng.randint(-3, 3))
    b = t * GroupElement.upper(p, Fraction(rng.randint(-40, 40)) / unit() / p ** rng.randint(0, 3))
    # b = (alpha beta; 0 delta)/D, and the scalar 1/D acts trivially on phi
    got = sum_products(ctx.field, ((fs, 0, 1) for fs in s.phi.reader(v, rep)(b.X, b.Y, b.T)))
    assert got == s.phi.eval(v.translated(b * rep)), (s.cfg.p, s.cfg.n, seed)


def unit_average(phi: TorusFunctional, section: Section, k: int, prec: int):
    """The annulus at y in pi^k O*, averaged over the units mod p^prec."""
    ctx = phi.ctx
    p = ctx.p
    units = units_mod(p, prec)
    wbar = GroupElement.w(p)
    acc = ctx.zero()
    for eps in units:
        y = Fraction(eps * p**k) if k >= 0 else Fraction(eps, p**-k)
        chi = ctx.zeta_powers[phi.chtil.unit_exponent(eps)]
        acc = acc + section.eval(wbar * GroupElement.upper(p, y)) * chi
    return acc * ctx.scalar(Fraction(1, len(units)))


def test_annulus_resolution(setup21, setup32, setup24):
    """annulus sums over the units mod p^R, R = max(table level, c(chi~)), and
    gets the same Scalar as the averages at R + 1 and R + 2 on every annulus
    k in [-R - 2, R + 2].  Random tables and their translates, not only v3:
    on v3 a resolution of R - 1 happens to agree too."""
    rng = random.Random(12)
    for s in (setup21, setup32, setup24):
        phi = s.phi
        for level in (2, 3):
            sec = rand_section(s.ctx, rng, s.V3, level)
            for g in (None, s.gamma(1), s.gamma(-1), rand_G(s.ctx, rng, val_range=1)):
                target = sec if g is None else sec.translated(g)
                R = max(target.table_level(), phi.chtil.c)
                for k in range(-R - 2, R + 3):
                    got = phi.annulus(target, k)
                    for prec in (R + 1, R + 2):
                        assert got == unit_average(phi, target, k, prec), (s.cfg.p, s.cfg.n, level, k, prec)


def test_annulus_reads_the_rows_of_the_group_element_route(setup21, setup32, setup52):
    """annulus reads wbar n(y) as the int bottom row (den, eps num)/den with
    det -1, and gets the Scalar that unit_average gets from GroupElement
    products at the same resolution, on v3 and a gamma-translate of it."""
    for s in (setup21, setup32, setup52):
        for target in (s.v3, s.v3.translated(s.gamma(-1))):
            R = max(target.table_level(), s.phi.chtil.c)
            for k in range(-4, 5):
                assert s.phi.annulus(target, k) == unit_average(s.phi, target, k, R), (s.cfg.p, k)


def test_reference_route_on_the_empty_section(setup21, setup32):
    """The empty sum is K-invariant (level bound 0); at (2,1) chi~ is unramified
    too, so annulus still averages over the units mod p, and both it and the
    reference route read zero on it."""
    for s in (setup21, setup32):
        zero = Section(s.V3, ())
        assert zero.level_bound() == 0 and zero.table_level() == 1
        assert all(s.phi.annulus(zero, k).is_zero() for k in range(-3, 4))
        assert all(v.is_zero() for v in s.phi.eval_reference(zero, depths=1))


def test_phi_linear(setup21):
    s = setup21
    rng = random.Random(4)
    x = rand_section(s.ctx, rng, s.V3, 1)
    y = rand_section(s.ctx, rng, s.V3, 1)
    c = s.ctx.scalar(Fraction(3, 7))
    assert s.phi.eval(x.scaled(c) + y) == c * s.phi.eval(x) + s.phi.eval(y)
    assert s.phi.eval(Section(s.V3, ())).is_zero()


def test_phi_nonvanishing_on_new_vectors(setup21, setup32):
    assert not setup21.phi.eval(setup21.v3).is_zero()
    assert not setup32.phi.eval(setup32.v3).is_zero()


def test_indicator(setup21):
    s = setup21
    rng = random.Random(5)
    f = CompactInducedFn(s.ctx, s.mu1, s.mu2, 1, 1)
    for _ in range(20):
        k = rand_K(s.ctx, rng)
        if k.in_iwahori(1):
            assert f.eval(k).is_one()
    # f(diag(pi,1) k) = (mu1/mu2)(pi) = a/b
    k = rand_K(s.ctx, rng, m=2)
    while not k.in_iwahori(1):
        k = rand_K(s.ctx, rng, m=2)
    val = f.eval(GroupElement.diag(2, 2, 1) * k)
    assert val == s.ctx.a / s.ctx.b
    assert f.eval(GroupElement.w(2)).is_zero()


def test_indicator_needs_unramified(setup32):
    with pytest.raises(TriformError, match="unramified data required"):
        CompactInducedFn(setup32.ctx, setup32.mu3, setup32.mu2, 2, 2)


def test_Phi_equals_lambda_phi(setup21, setup32):
    for s in (setup21, setup32):
        p, n = s.cfg.p, s.cfg.n
        f = CompactInducedFn(s.ctx, s.mu1, s.mu2, n, n)
        lam = coset_constant(s.ctx, n)
        if (p, n) == (2, 1):
            assert lam == Fraction(1, 3)
        lhs = Phi_eval(s.phi, f, s.v3)
        assert lhs == s.ctx.scalar(lam) * s.phi.eval(s.v3)
        assert not lhs.is_zero()


def test_tate_engine_key_normalization(setup21):
    """pi(n(x0)) acts trivially on a level-m table once val(x0) >= m."""
    s = setup21
    tbl = s.v3.terms[0][2]
    assert s.phi.phi_table(tbl, 4) == s.phi.phi_table(tbl)  # x0 = 4: val 2 >= level 1
    # a genuinely translated argument (x0 = 1/2) changes the value here
    assert not (s.phi.phi_table(tbl, 1, 2) == s.phi.phi_table(tbl))


def test_phi_table_memo_on_the_table(setup21, setup32):
    """phi_table caches on the table per (functional, cell, unit u of x0 mod
    p^level, val x0): each cached value is the dot product of the Tate vector
    with the translate of the table by diag(1/u, 1) rep_cell, two functionals
    on one table keep their own values, every x0 with val >= level is the key
    (cell, 1, None), and x0 with one unit mod p^level share one entry."""
    s = setup21
    ctx = s.ctx
    swapped = TorusFunctional(ctx, s.mu2, s.mu1, s.V3)
    rng = random.Random(11)
    tbl = rand_section(s.ctx, rng, s.V3, 1).terms[0][2]

    def dot(phi, table, x0_key):
        out = phi.ctx.zero()
        for v, w in zip(table.values, phi.tate_vector(table.level, x0_key)):
            out = out + v * w
        return out

    half = -1  # the key of x0 = 1/2: val -1
    values = {phi: phi.phi_table(tbl, 1, 2) for phi in (s.phi, swapped)}
    assert not values[s.phi] == values[swapped]
    for phi, value in values.items():
        assert value == dot(phi, tbl, half)
        assert phi.phi_table(tbl, 1, 2) is value
        assert tbl.phi_values[(phi, 0, 1, half)] is value
    for x0 in (0, 2, 4, 6):  # val(x0) >= 1 = level
        assert s.phi.phi_table(tbl, x0) == dot(s.phi, tbl, None)
    assert set(tbl.phi_values) == {(s.phi, 0, 1, half), (swapped, 0, 1, half), (s.phi, 0, 1, None)}
    # x0 = 2/3 at (3, 2): val -1 and unit 2, read at cell 4 of the untranslated table
    t = setup32
    tbl3 = rand_section(t.ctx, rng, t.V3, 2).terms[0][2]
    value = t.phi.phi_table(tbl3, 2, 3, 4)
    assert tbl3.phi_values == {(t.phi, 4, 2, -1): value}
    rep4 = p1_table(t.ctx, 2).reps[4]
    assert value == dot(t.phi, translate(tbl3, GroupElement.diag(3, pow(2, -1, 9), 1) * rep4), -1)
    assert t.phi.phi_table(tbl3, 20, 3, 4) is value  # 20 = 2 mod 9


# ---------------------------------------------------------------------------
# the Tate histograms against the per-unit loop
# ---------------------------------------------------------------------------


def old_key_level(phi: TorusFunctional, level: int) -> int:
    """The Tate precision before the fold: level + max(1, chi~.c, (chi_d/chi_a).c)."""
    borel = phi.model3.borel
    return level + max(1, phi.chtil.c, (borel.chi_d / borel.chi_a).c)


def reference_tate_vector(phi: TorusFunctional, level: int, x0_key) -> list:
    """phi(pi(n(x0)) delta_cell) for every cell, one Scalar product per unit.

    The per-unit summation of the Tate windows: every unit adds
    X^k * cmass * chi~(eps) * W(pi^k key) to its cell, with each root of unity
    built from the generator exponents (image_exponent), not from exponent tables.
    x0_key is None or (val x0, unit of x0 mod p^mt), and the units run mod p^mt
    with mt = old_key_level(phi, level) above the table level: the unfolded
    path, independent of the fold of the unit into the table.
    """
    ctx = phi.ctx
    p, q, m = ctx.p, ctx.q, level
    borel = phi.model3.borel
    ratio = borel.chi_d / borel.chi_a
    chtil = phi.chtil
    mt = old_key_level(phi, level)
    units = units_mod(p, mt)
    cmass = ctx.scalar(Fraction(1, (q - 1) * q ** (mt - 1)))
    X = chtil.value_at_pi

    def zeta(ch, residue):
        return ctx.zeta_powers[image_exponent(ch, residue)]

    sign = zeta(borel.chi_a, -1)
    ratio_pi_q = ratio.value_at_pi * ctx.scalar(q)
    mod = p**m

    def term(k, eps):
        if k >= 1:
            tkey = (p**k * eps) % mod if k < m else 0
            return mod + tkey // p, sign
        zkey = (p ** (-k) * pow(eps, -1, mod)) % mod if -k < m else 0
        return zkey, sign * ratio_pi_q**k * zeta(ratio, eps)

    vec = [ctx.zero() for _ in range(p**m + p ** (m - 1))]

    def add(cell, s):
        vec[cell] = vec[cell] + s

    def plain_window(k, shift=0):
        for eps in units:
            cell, fac = term(k, (eps + shift) % p**mt)
            add(cell, X**k * cmass * zeta(chtil, eps) * fac)

    def plain_upto(k_hi):
        if (ratio * chtil).c == 0:  # the deep-negative annuli, closed
            add(0, sign * (X * ratio_pi_q).inverse().geometric_tail(-min(k_hi, -m)))
        for k in range(-m + 1, k_hi + 1):
            plain_window(k)

    if x0_key is None:
        plain_upto(m - 1)
        if chtil.c == 0:
            cell, fac = term(m, 1)
            add(cell, fac * X.geometric_tail(m))
        return vec
    K0, c0 = x0_key
    a_cut = K0 - mt
    plain_upto(a_cut - 1)
    for k in range(a_cut, K0):
        plain_window(k, shift=c0 * p ** (K0 - k))
    for k in range(K0 + 1, K0 + mt):
        for eps in units:
            cell, fac = term(K0, (c0 + eps * p ** (k - K0)) % p**mt)
            add(cell, X**k * cmass * zeta(chtil, eps) * fac)
    if chtil.c == 0:
        cell, fac = term(K0, c0)
        add(cell, fac * X.geometric_tail(K0 + mt))
    for eps in units:
        if (eps + c0) % p:
            cell, fac = term(K0, (eps + c0) % p**mt)
            add(cell, X**K0 * cmass * zeta(chtil, eps) * fac)
    d_plus = max(1, chtil.c, m - K0)
    for d in range(1, d_plus):
        dmass = X**K0 * ctx.scalar(Fraction(1, (q - 1) * q ** (d + mt - 1)))
        for eta in units:
            cell, fac = term(K0 + d, eta)
            add(cell, dmass * zeta(chtil, -c0 + p**d * eta) * fac)
    cell, fac = term(K0 + d_plus, 1)
    add(cell, fac * X**K0 * zeta(chtil, -c0) * ctx.scalar(Fraction(q, (q - 1) * q**d_plus)))
    return vec


# (p, M, third representation): Steinberg, or the principal series of a ramified mu3
TATE_CASES = (
    (2, 2, None),
    (2, 4, "ram(c=2, gens=[3->zeta2^1], pi=u)"),
    (2, 2, "ram(c=3, gens=[7->zeta2^1,5->zeta2^1], pi=u)"),
    (3, 2, "ram(c=1, gens=[2->zeta2^1], pi=u)"),
    (3, 4, None),
    (5, 2, "ram(c=1, gens=[2->zeta2^1], pi=u)"),
    (5, 4, "ram(c=1, gens=[2->zeta4^1], pi=u)"),
    (5, 4, "ram(c=1, gens=[2->zeta4^3], pi=u)"),
)
_tate_phis: dict = {}


def tate_phi(case: int) -> TorusFunctional:
    if case not in _tate_phis:
        p, M, spec = TATE_CASES[case]
        ctx = Context(p, zeta_order=M)
        mu1 = SmoothCharacter.unramified(ctx, ctx.a * ctx.r)
        mu2 = SmoothCharacter.unramified(ctx, ctx.b * ctx.r)
        model3 = steinberg_model(ctx) if spec is None else principal_series_model(ctx, parse_character_spec(ctx, spec))
        _tate_phis[case] = TorusFunctional(ctx, mu1, mu2, model3)
    return _tate_phis[case]


@st.composite
def tate_arguments(draw):
    """A functional, a table level and an x0 key: None, or val x0 from -3
    (region A windows and val x0 < 0) to level - 1 (region C strata d >= 1
    whenever val x0 <= level - 2)."""
    case = draw(st.integers(0, len(TATE_CASES) - 1))
    level = tate_phi(case).model3.min_level + draw(st.integers(0, 1))
    return case, level, None if draw(st.booleans()) else draw(st.integers(-3, level - 1))


@settings(max_examples=60, deadline=None)
@given(tate_arguments())
def test_tate_histograms_match_per_unit_loop(args):
    case, level, x0_key = args
    phi = tate_phi(case)
    got = phi.tate_vector(level, x0_key)
    want = reference_tate_vector(phi, level, None if x0_key is None else (x0_key, 1))
    assert len(got) == len(want)
    for cell, (g, w) in enumerate(zip(got, want)):
        assert g == w, (TATE_CASES[case], level, x0_key, cell)


@st.composite
def folded_arguments(draw):
    """A functional, a table level, a seed for a random integer table, whether
    it is sparse, and x0 = p^v u with v in [-3, level + 1], u a unit mod
    p^(level + 4), written as a ratio whose numerator and denominator share a
    unit den."""
    case = draw(st.integers(0, len(TATE_CASES) - 1))
    phi = tate_phi(case)
    p = phi.ctx.p
    level = phi.model3.min_level + draw(st.integers(0, 1))
    v = draw(st.integers(-3, level + 1))
    u = p * draw(st.integers(0, p ** (level + 3) - 1)) + draw(st.integers(1, p - 1))
    return case, level, v, u, draw(st.sampled_from((1, 7, 11, 13))), draw(st.integers(0, 2**16)), draw(st.booleans())


@settings(max_examples=96, deadline=None)
@given(folded_arguments())
def test_phi_table_fold_matches_unit_key(args):
    """phi_table reads x0 = p^v u through v and the action of diag(u, 1) on the
    table's support; the reference keeps u mod p^mt in the Tate argument.  A
    sparse table has at most three nonzero cells, each a root of unity times
    an int, as v3's are."""
    case, level, v, u, den, seed, sparse = args
    phi = tate_phi(case)
    p = phi.ctx.p
    rng = random.Random(seed)
    tbl = TableSection(phi.model3, level, rand_values(phi.ctx, p1_size(p, level), rng, sparse))
    num, d = (p**v * u * den, den) if v >= 0 else (u * den, p ** (-v) * den)
    key = None if v >= level else (v, u % p ** old_key_level(phi, level))
    want = phi.ctx.zero()
    for c, w in zip(tbl.values, reference_tate_vector(phi, level, key)):
        want = want + c * w
    assert phi.phi_table(tbl, num, d) == want, (TATE_CASES[case], level, v, u, den, sparse)


def reference_read(phi: TorusFunctional, tbl: TableSection, x0: int, den: int, cell: int):
    """phi_table by the dot product it replaced, kept as its oracle: the two
    transposed actions as root-of-unity Scalars c, read back as c^-1, and one
    factor tuple (value, c1^-1, c2^-1, T[i]) per support cell, summed by
    reference_sum_products."""
    ctx, p, level = phi.ctx, phi.ctx.p, tbl.level
    v = ratio_val(x0, den, p)
    v, u = (None, 1) if v >= level else (v, unit_residue(x0, den, p, level))
    tate, zeta = phi.tate_vector(level, v), ctx.zeta_powers
    back = tbl.model.action(p1_table(ctx, level).reps[cell].inv(), level)
    fold = tbl.model.action(GroupElement.diag(p, u, 1), level)
    steps = ((value, zeta[e1], *fold[j]) for s, value in tbl.support.items() for j, e1 in (back[s],))
    reads = ((value, c1**-1, zeta[e2] ** -1, tate[i]) for value, c1, i, e2 in steps if not tate[i].is_zero())
    return reference_sum_products(ctx.field, ((fs, 0, 1) for fs in reads))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("setup24", "setup32", "setup52")), st.sampled_from(("roots", "ints", "opaque")), st.integers(0, 2**32))
def test_phi_read_matches_the_dot_product(request, setup, kind, seed):
    """phi_table, counted in ints, against reference_read on random (cell, u,
    val x0) at (2,4), (3,2) and (5,2), for tables of roots of unity times ints,
    of ints, and opaque tables: the table of a gamma-translate, whose values
    leave Q(zeta_M)."""
    s = request.getfixturevalue(setup)
    ctx, p, rng = s.ctx, s.ctx.p, random.Random(seed)
    level = s.V3.min_level + rng.randint(0, 1)
    size = p1_size(p, level)
    if kind == "opaque":
        tbl = rand_section(ctx, rng, s.V3, level).translated(s.gamma(rng.choice((-1, 1)))).as_table()
        assert any(value is not None for value, _ in tbl.zeta[1].values())
    else:
        tbl = TableSection(s.V3, level, rand_values(ctx, size, rng, kind == "roots"))
    cell = rng.randrange(p1_size(p, tbl.level))
    v, u, d = rng.randint(-3, tbl.level + 1), rng.choice(units_mod(p, tbl.level + 2)), rng.choice((1, 7, 11))
    x0, den = (p**v * u * d, d) if v >= 0 else (u * d, p ** (-v) * d)
    assert s.phi.phi_table(tbl, x0, den, cell) == reference_read(s.phi, tbl, x0, den, cell), (setup, kind, seed)


def rand_values(ctx, size: int, rng: random.Random, sparse: bool) -> list:
    """Random int cell values, or, when sparse, one to three nonzero cells each
    a root of unity times a nonzero int."""
    if not sparse:
        return [rng.randint(-3, 3) for _ in range(size)]
    vals = [ctx.zero()] * size
    for i in rng.sample(range(size), rng.randint(1, 3)):
        vals[i] = ctx.scalar(rng.choice((-2, -1, 1, 3))) * rng.choice(ctx.zeta_powers)
    return vals


def dense_reader(phi: TorusFunctional, section: Section, k: GroupElement | None):
    """The reader by the two-split route, as an oracle: k g = bh kh by
    matrices.iwasawa, the table translated in full by kh and then by
    diag(1/u, 1) for x0 = p^v u (cell by cell through InducedModel.action),
    and the dot product with the Tate vector of val x0."""
    p = phi.ctx.p
    pre = []
    for c, g, tbl in section.terms:
        if not c.is_zero():
            bh, kh = iwasawa(g if k is None else k * g)
            pre.append((c, bh.X, bh.Y, bh.T, translate(tbl, kh)))

    def terms(alpha: int = 1, beta: int = 0, delta: int = 1):
        for c, X, Y, T, moved in pre:
            x0, den = alpha * Y + beta * T, alpha * X
            v = ratio_val(x0, den, p)
            if v >= moved.level:
                v = None
            else:
                moved = translate(moved, GroupElement.diag(p, unit_residue(den, x0, p, moved.level), 1))
            read = reference_sum_products(phi.ctx.field, ((fs, 0, 1) for fs in zip(moved.values, phi.tate_vector(moved.level, v))))
            yield c, phi.ratio21.eval(den, delta * T), read

    return terms


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("setup24", "setup32", "setup34", "setup52")), st.booleans(), st.integers(0, 2**32))
def test_reader_matches_the_two_split_route(request, setup, sparse, seed):
    """The reader (one split of k g by InducedModel.cell, phi_table through
    the transpose over the support) against dense_reader, on random sections
    of sparse or dense tables and their translates, random k in K (or none)
    and random upper-triangular b = (alpha beta; 0 delta)."""
    s = request.getfixturevalue(setup)
    ctx, p = s.ctx, s.ctx.p
    rng = random.Random(seed)
    level = s.V3.min_level + rng.randint(0, 1)
    size = p1_size(p, level)
    v = TableSection(s.V3, level, rand_values(ctx, size, rng, sparse)).as_section()
    for _ in range(rng.randint(0, 2)):
        tbl = TableSection(s.V3, level, rand_values(ctx, size, rng, sparse))
        v = v + tbl.as_section().translated(rand_G(ctx, rng, val_range=1)).scaled(rng.randint(-2, 2))
    k = None if rng.random() < 0.2 else rand_K(ctx, rng, m=level + 1)
    units = [x for x in range(1, p**3) if x % p]
    for _ in range(3):
        b = GroupElement.diag(p, rng.choice(units) * Fraction(p) ** rng.randint(-3, 3), rng.choice(units))
        b = b * GroupElement.upper(p, Fraction(rng.randint(-40, 40), rng.choice(units) * p ** rng.randint(0, 3)))
        got = sum_products(ctx.field, ((fs, 0, 1) for fs in s.phi.reader(v, k)(b.X, b.Y, b.T)))
        want = reference_sum_products(ctx.field, ((fs, 0, 1) for fs in dense_reader(s.phi, v, k)(b.X, b.Y, b.T)))
        assert got == want, (setup, sparse, seed)


def test_close_tail():
    """Two terms at the derived ratio close to t1 rho/(1 - rho); two zeros
    close to 0 without forming the closure; a progression at another ratio,
    and any other pair, is refused."""
    ctx = Context(2)
    t = [ctx.scalar(x) for x in (1, 2, 4, 5, 0)]
    two = ctx.scalar(2)
    assert close_tail(t[0], t[1], two) == ctx.scalar(-4)
    assert close_tail(t[1], t[2], two) == ctx.scalar(-8)
    # at ratio 1 the closure is a PoleError, so a zero tail must not form it
    assert close_tail(t[4], t[4], ctx.one()).is_zero()
    for bad in ((t[0], t[3]), (t[0], t[4]), (t[4], t[0])):
        with pytest.raises(TailError, match="tail not stabilized"):
            close_tail(*bad, two)
    # geometric at ratio 2, checked against the wrong derived ratio 4
    with pytest.raises(TailError, match="derived ratio 4"):
        close_tail(t[0], t[1], ctx.scalar(4))
    # terms over two different denominator multisets: rho = b/(a + 1)
    a, b = ctx.a, ctx.b
    t0, t1 = 1 / (a - 1), b / ((a - 1) * (a + 1))
    assert len({tuple(x.den) for x in (t0, t1)}) == 2
    rho = b / (a + 1)
    assert close_tail(t0, t1, rho) == t1 * rho / (1 - rho)
    for wrong in (b / (a + 2), a / (a + 1)):
        with pytest.raises(TailError):
            close_tail(t0, t1, wrong)
