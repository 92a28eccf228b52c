import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from triform import Context
from triform.characters import SmoothCharacter, parse_character_spec
from triform.context import MAX_LEVEL
from triform.cosets import enumerate_K_mod, p1_table
from triform.errors import TriformError
from triform.matrices import GroupElement, iwasawa
from triform.models import (
    InducedModel,
    TableSection,
    conductor_search,
    fixed_space,
    iwahori_generators,
    new_vector_by_solve,
    new_vector_unramified,
    principal_series_model,
    sections_equal,
    steinberg_model,
)
from triform.padic import residue, unit_residue
from triform.verifier import Env, ScenarioConfig

from conftest import borel_diagonal, cell_of, entry, image_exponent, in_K_principal, rand_G, rand_K, rand_section, translate


def test_new_vector_values(setup21):
    s = setup21
    g = s.gamma(-1)
    w = GroupElement.w(2)
    # sqrt(q)/mu1(pi) = 1/a at gamma^{-1} and mu1(pi)/sqrt(q) = a at w gamma^{-1}
    assert s.v1.eval(g) == s.ctx.a.inverse()
    assert s.v1.eval(w * g) == s.ctx.a
    # the spherical vector is 1 on all of K
    rng = random.Random(0)
    for _ in range(20):
        assert s.v2.eval(rand_K(s.ctx, rng)).is_one()
    assert s.v2.eval(GroupElement.diag(2, 2, 1)) == s.ctx.b


def test_condition_one_consistency(setup31):
    """f(b k) = chi delta^{1/2}(b) f(k) for upper-triangular integral b."""
    s = setup31
    rng = random.Random(1)
    sec = rand_section(s.ctx, rng, s.V3, 2)
    for _ in range(50):
        b = GroupElement(
            3,
            Fraction(rng.choice([1, 2, 4, 5])),
            rng.randint(0, 8),
            0,
            Fraction(rng.choice([1, 2, 4, 5])),
        )
        k = rand_K(s.ctx, rng)
        assert sec.eval(b * k) == s.V3.borel.eval(*borel_diagonal(b)) * sec.eval(k)


def test_refinement_consistency(setup32):
    s = setup32
    rng = random.Random(2)
    tbl = s.v3.terms[0][2]
    fine = tbl.as_section().as_table(3)
    for _ in range(50):
        g = rand_G(s.ctx, rng, val_range=2)
        assert tbl.eval(g) == fine.eval(g)


def test_translation_action_axioms(setup21):
    s = setup21
    rng = random.Random(3)
    sec = s.v3
    assert sections_equal(sec.translated(GroupElement.identity(2)), sec)
    for _ in range(8):
        g = rand_G(s.ctx, rng, val_range=1)
        h = rand_G(s.ctx, rng, val_range=1)
        lhs = sec.translated(h).translated(g)  # x -> sec(x g h)
        rhs = sec.translated(g * h)
        for _ in range(6):
            x = rand_G(s.ctx, rng, val_range=1)
            assert lhs.eval(x) == rhs.eval(x)


def test_translate_matches_pointwise(setup21):
    s = setup21
    rng = random.Random(4)
    g = rand_G(s.ctx, rng, val_range=1)
    moved = s.v3.translated(g)
    for _ in range(20):
        x = rand_G(s.ctx, rng, val_range=1)
        assert moved.eval(x) == s.v3.eval(x * g)


def test_K_invariance_of_spherical(setup31):
    s = setup31
    rng = random.Random(5)
    for _ in range(20):
        k = rand_K(s.ctx, rng)
        assert sections_equal(s.v1.translated(k), s.v1)


def test_steinberg_dimensions(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        St = steinberg_model(ctx)
        assert len(fixed_space(St, 0)) == 0
        basis = fixed_space(St, 1)
        assert len(basis) == 1
        assert conductor_search(St) == 1
        v3 = new_vector_by_solve(St, 1)
        tbl = v3.terms[0][2]
        assert tbl.k_average().is_zero()
        # value table on the two Iwahori orbits of P^1(F_p): ratio forced to -p
        assert tbl.values[0].is_one()
        for v in tbl.values[1:]:
            assert v == ctx.scalar(Fraction(-1, ctx.p))


def test_steinberg_stability(setup21):
    """K-averages of Steinberg translates stay zero."""
    s = setup21
    rng = random.Random(6)
    for _ in range(20):
        g = rand_G(s.ctx, rng, val_range=1)
        moved = s.v3.translated(g)
        assert moved.as_table(moved.level_bound()).k_average().is_zero()


def test_ramified_solve_and_conductor(setup32, setup24):
    for s, expected in ((setup32, 2), (setup24, 4)):
        assert conductor_search(s.V3) == expected
        for below in range(expected):
            assert len(fixed_space(s.V3, below)) == 0
        assert len(fixed_space(s.V3, expected)) == 1
        with pytest.raises(TriformError, match="fixed space has dimension 0"):
            new_vector_by_solve(s.V3, expected - 1)


def test_conductor_search_runs_to_the_top_level():
    """The search stops only where the fixed space no longer fits in a table
    of level MAX_LEVEL: at (2,8) it finds the conductor 8 = MAX_LEVEL."""
    V3 = Env(ScenarioConfig(2, 8)).V3
    assert V3.fixed_level(8) == MAX_LEVEL == 8
    assert conductor_search(V3) == 8


def test_unramified_solve_matches_spherical(setup31):
    s = setup31
    solved = new_vector_by_solve(s.V1, 0, level=1)
    assert sections_equal(solved, s.v1)
    assert conductor_search(s.V1) == 0


def test_v1_star_invariance(setup32):
    s = setup32
    n = 2
    rng = random.Random(7)
    v1star = s.v1.translated(s.gamma(-n))
    gam = s.gamma(n)
    for _ in range(20):
        rho = gam.inv() * rand_K(s.ctx, rng, m=4) * gam
        assert sections_equal(v1star.translated(rho), v1star)


def test_mask_levels(setup32):
    # ramified data has no sections below its conductor exponent
    with pytest.raises(TriformError, match="refine level"):
        TableSection(setup32.V3, 0, [])
    setup32.V3.require_level(1)
    ctx = Context(2, zeta_order=2)
    mu3 = parse_character_spec(ctx, "ram(c=2, gens=[3->zeta2^1], pi=u)")
    V3 = principal_series_model(ctx, mu3)
    with pytest.raises(TriformError, match="refine level"):
        V3.require_level(1)
    V3.require_level(2)
    with pytest.raises(TriformError, match="refine level"):
        TableSection(V3, 1, [ctx.one()] * p1_table(ctx, 1).size)


def entries_mod(k: GroupElement, m: int) -> tuple:
    return tuple(residue(*entry(k, i), k.p, m) for i in range(4))


def test_full_K_table_oracle(setup32):
    """Validate P^1-table evaluation against a full K/K(m) value table at m <= 2."""
    s = setup32
    rng = random.Random(8)
    sec = s.v3
    m = 2
    full = {entries_mod(k, m): sec.eval(k) for k in enumerate_K_mod(s.ctx, m).reps}
    for _ in range(40):
        k = rand_K(s.ctx, rng, m=3)
        assert sec.eval(k) == full[entries_mod(k, m)]


def test_stabilizer_twist_brute_force(setup32):
    """The admissibility rule (everything admissible once level >= conductor)
    against brute force over the (B cap K)-stabilizer at m <= 2."""
    ctx = setup32.ctx
    p, m = 3, 1
    table = p1_table(ctx, m)
    mu3 = setup32.mu3
    for rep in table.reps:
        trivial = True
        for b1 in (1, 2):
            for b0 in range(3):
                for b2 in (1, 2):
                    b = GroupElement(p, b1, b0, 0, b2)
                    conj = rep.inv() * b * rep
                    if in_K_principal(conj, m):
                        if (image_exponent(mu3, b1) + image_exponent(mu3.inverse(), b2)) % ctx.field.m:
                            trivial = False
        assert trivial  # so level 1 carries every cell for c = 1, as require_level(1) accepts


def test_section_dump(setup21):
    tbl = setup21.v3.terms[0][2]
    dump = tbl.dump()
    assert dump.splitlines()[0] == "cell (0:1) -> 1"
    assert "(1:0)" in dump


def test_cell_twist_matches_generator_exponents(setup32, setup24):
    """locate's factor on K against the twist built from the generator
    exponents of h = k rep^{-1}, at p = 3, 2 and 5 (M = 2 and 4)."""
    ctx5 = Context(5, zeta_order=4)
    mu5 = parse_character_spec(ctx5, "ram(c=1, gens=[2->zeta4^1], pi=u)")
    rng = random.Random(9)
    for model in (setup32.V3, setup24.V3, principal_series_model(ctx5, mu5)):
        ctx, borel = model.ctx, model.borel
        c = borel.conductor()
        for level in (model.min_level, model.min_level + 1):
            reps = p1_table(ctx, level).reps
            for _ in range(40):
                k = rand_K(ctx, rng, m=level + 1)
                j, factor = model.locate(k.Z, k.T, k.D, k.N, level)
                h = k * reps[j].inv()
                ua, ud = (unit_residue(*entry(h, i), ctx.p, c) for i in (0, 3))
                e = (image_exponent(borel.chi_a, ua) + image_exponent(borel.chi_d, ud)) % ctx.field.m
                assert factor == ctx.zeta_powers[e]


# ramified mu3 per p, with the zeta order its images need
RAMIFIED_MU3 = {
    2: (2, "ram(c=2, gens=[3->zeta2^1], pi=u)"),
    3: (2, "ram(c=1, gens=[2->zeta2^1], pi=u)"),
    5: (4, "ram(c=1, gens=[2->zeta4^1], pi=u)"),
}
_translate_models: dict = {}


def translate_model(p: int, ramified: bool) -> InducedModel:
    if (p, ramified) not in _translate_models:
        M, spec = RAMIFIED_MU3[p]
        ctx = Context(p, zeta_order=M)
        model = principal_series_model(ctx, parse_character_spec(ctx, spec)) if ramified else steinberg_model(ctx)
        _translate_models[p, ramified] = model
    return _translate_models[p, ramified]


def rand_K_level(p: int, level: int, rng: random.Random) -> GroupElement:
    """A random integral element of K(level), i.e. = 1 mod p^level."""
    a, b, c, d = (p**level * rng.randrange(p**2) for _ in range(4))
    return GroupElement(p, 1 + a, b, c, 1 + d)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((2, 3, 5)), st.booleans(), st.integers(0, 1), st.integers(0, 2**32))
def test_action_by_class_mod_level(p, ramified, extra, seed):
    """action(k) and action(k kappa), kappa in K(level), are one action, and
    the translate it gives holds the values at rep k; a kappa alone acts as the
    identity, and an element outside K is refused."""
    model = translate_model(p, ramified)
    level = model.min_level + extra
    rng = random.Random(seed)
    reps = p1_table(model.ctx, level).reps
    tbl = TableSection(model, level, [rng.randint(-3, 3) for _ in reps])
    k = rand_K(model.ctx, rng, m=level + 1)
    kappa = rand_K_level(p, level, rng) * rand_K_level(p, level, rng).inv()  # entries with unit denominators
    assert model.action(k * kappa, level) == model.action(k, level)
    assert translate(tbl, k).values == [tbl.eval(rep * k) for rep in reps]
    assert translate(tbl, k * kappa).values == [tbl.eval(rep * k * kappa) for rep in reps]
    assert all(j == i and e == 0 for i, (j, e) in enumerate(model.action(kappa, level)))
    for g in (GroupElement.diag(p, p, 1), k * GroupElement.diag(p, 1, Fraction(1, p))):
        with pytest.raises(TriformError, match="needs k in K"):
            model.action(g, level)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((2, 3, 5)), st.booleans(), st.integers(0, 1), st.integers(0, 2**32))
def test_iwasawa_k_part_carries_no_twist(p, ramified, extra, seed):
    """The fact locate rests on: for g = b k by iwasawa's pivot rule and j the
    cell of k, h = k rep_j^{-1} lies in K(level) and the Borel twist of h is
    0, so f(g) = chi delta^{1/2}(b) f(rep_j)."""
    model = translate_model(p, ramified)
    ctx, borel = model.ctx, model.borel
    level = model.min_level + extra
    rng = random.Random(seed)
    table = p1_table(ctx, level)
    tbl = TableSection(model, level, [rng.randint(-3, 3) for _ in table.reps])
    for _ in range(5):
        g = rand_G(ctx, rng, val_range=2)
        b, k = iwasawa(g)
        j = cell_of(table, k)
        h = k * table.reps[j].inv()
        assert in_K_principal(h, level)
        ua, ud = (unit_residue(*entry(h, i), p, borel.conductor()) for i in (0, 3))
        assert (image_exponent(borel.chi_a, ua) + image_exponent(borel.chi_d, ud)) % ctx.field.m == 0
        assert tbl.eval(g) == borel.eval(*borel_diagonal(b)) * tbl.values[j]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(("setup21", "setup32", "setup24")), st.integers(0, 2**32))
def test_section_eval_at_the_bottom_row(request, setup, seed):
    """Section.eval reads x through its bottom row and determinant only: it
    equals the sum of c * tbl.eval(x * g) over the terms, with x * g formed as
    a GroupElement product, for random x in G and random translated sections."""
    s = request.getfixturevalue(setup)
    ctx, rng = s.ctx, random.Random(seed)
    level = s.V3.min_level + rng.randint(0, 1)
    sec = rand_section(s.ctx, rng, s.V3, level).scaled(ctx.a + 1)
    for _ in range(rng.randint(1, 3)):
        sec = sec + rand_section(s.ctx, rng, s.V3, level).translated(rand_G(ctx, rng, val_range=2)).scaled(rng.randint(-2, 2))
    for _ in range(4):
        x = rand_G(ctx, rng, val_range=2)
        want = ctx.zero()
        for c, g, tbl in sec.terms:
            want = want + c * tbl.eval(x * g)
        assert sec.eval(x) == want, (setup, seed)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(("setup21", "setup32", "setup24", "setup52")), st.integers(0, 2**32))
def test_action_matches_group_products(request, setup, seed):
    """InducedModel.action, built from ints, against GroupElement products:
    its (j, e) at cell i gives tbl.eval(rep_i * k) = zeta_M^e * tbl[j] for random
    k in K and random tables, and acting by k1 and then by k2 is acting by k2 k1."""
    s = request.getfixturevalue(setup)
    ctx, rng = s.ctx, random.Random(seed)
    level = s.V3.min_level + rng.randint(0, 1)
    reps = p1_table(ctx, level).reps
    tbl = TableSection(s.V3, level, [(ctx.a + 1) * rng.randint(-3, 3) for _ in reps])
    k1, k2 = (rand_K(ctx, rng, m=level + 1) for _ in range(2))
    act = s.V3.action(k1, level)
    assert all(tbl.eval(rep * k1) == ctx.zeta_powers[e] * tbl.values[j] for rep, (j, e) in zip(reps, act)), (setup, seed)
    assert translate(translate(tbl, k1), k2).values == translate(tbl, k2 * k1).values, (setup, seed)


def kernel_basis(ctx, rows: list, ncols: int) -> list:
    """Kernel of the row system over the Scalar field (exact Gaussian elimination)."""
    pivots: dict[int, int] = {}
    rank_rows: list = []
    for row in rows:
        cur = list(row)
        for col, rr in pivots.items():
            if not cur[col].is_zero():
                f = cur[col]
                cur = [x - f * y for x, y in zip(cur, rank_rows[rr])]
        lead = next((j for j in range(ncols) if not cur[j].is_zero()), None)
        if lead is None:
            continue
        inv = cur[lead].inverse()
        cur = [inv * x for x in cur]
        # eliminate the new pivot from earlier rows
        for rr, prev in enumerate(rank_rows):
            if not prev[lead].is_zero():
                f = prev[lead]
                rank_rows[rr] = [x - f * y for x, y in zip(prev, cur)]
        pivots[lead] = len(rank_rows)
        rank_rows.append(cur)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for j in free:
        vec = [ctx.zero()] * ncols
        vec[j] = ctx.one()
        for col, rr in pivots.items():
            vec[col] = -rank_rows[rr][j]
        basis.append(vec)
    return basis


def dense_fixed_rows(model, n: int, level: int) -> list:
    """The fixed-vector conditions as dense rows: v[i] - c v[j] = 0 per
    (generator, cell), with (j, c) located from the GroupElement product
    rep_i * gen, and the all-ones row of the zero K-average on the Steinberg
    model."""
    ctx = model.ctx
    reps = p1_table(ctx, level).reps
    rows = []
    for gen in iwahori_generators(ctx, n, level):
        for i, rep in enumerate(reps):
            k = rep * gen
            j, c = model.locate(k.Z, k.T, k.D, k.N, level)
            row = [ctx.zero()] * len(reps)
            row[i] = row[i] + ctx.one()
            row[j] = row[j] - c
            rows.append(row)
    if model.steinberg:
        rows.append([ctx.one()] * len(reps))
    return rows


@pytest.mark.parametrize("key", [(2, 1), (3, 1), (5, 1), (3, 2), (5, 2), (2, 4), (3, 4)])
def test_orbit_walk_matches_dense_elimination(key):
    """fixed_space's orbit walk spans the kernel of the dense rows, solved by
    Gaussian elimination, for n' = 0 .. n on the V3 and level of every Env the
    acceptance gate builds: equal dimension, every walked vector solves every
    row, and the walked vectors are independent."""
    env = Env(ScenarioConfig(*key))
    ctx, ncols = env.ctx, p1_table(env.ctx, env.level).size
    for n in range(key[1] + 1):
        walk = fixed_space(env.V3, n, env.level)
        rows = dense_fixed_rows(env.V3, n, env.level)
        assert len(walk) == len(kernel_basis(ctx, rows, ncols)), (key, n)
        for v in walk:
            for row in rows:
                assert sum((x * y for x, y in zip(row, v) if not x.is_zero()), ctx.zero()).is_zero(), (key, n)
        assert len(kernel_basis(ctx, walk, ncols)) == ncols - len(walk), (key, n)


@pytest.mark.parametrize("key", [(2, 1), (3, 2), (5, 1)])
def test_constant_tables_count_at_the_cartan_gap(key):
    """The K-fixed v1 and v2 are constant tables, so a translate by g is
    right-K(gap)-invariant with gap = cartan_gap(g), and level_bound says so;
    a non-constant level-1 V1 table still counts at 1 + gap."""
    env = Env(ScenarioConfig(*key))
    ctx, rng = env.ctx, random.Random(key[0] * 10 + key[1])
    reps = p1_table(ctx, 1).reps
    for _ in range(8):
        g = rand_G(ctx, rng, val_range=2) if rng.random() < 0.75 else rand_K(ctx, rng)
        assert env.v1.translated(g).level_bound() == g.cartan_gap(), (key, g)
        assert env.v2.translated(g).level_bound() == g.cartan_gap(), (key, g)
        values = [rng.randint(-3, 3) for _ in reps]
        values[rng.randrange(len(values))] = 4  # at least two distinct values
        tbl = TableSection(env.V1, 1, values)
        assert tbl.as_section().translated(g).level_bound() == 1 + g.cartan_gap(), (key, g)
