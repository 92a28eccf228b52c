"""Both evaluators of the trilinear form and the maps of the orbit sequence."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from triform.cosets import iwahori_orbit_key, p1_table, torus_orbit_reps, units_mod
from triform.characters import SmoothCharacter
from triform.errors import KernelUnsupportedError, TailError, TriformError
from triform.functionals import CompactInducedFn, Phi_eval
from triform.matrices import GroupElement
from triform.models import Section, TableSection, new_vector_unramified, principal_series_model
from triform import trilinear
from triform.trilinear import (
    KernelForm,
    TensorFn,
    closed_form_tensor,
    derive_kernel_characters,
    ell_chain,
    ext,
    simple_case_pairing,
)

from triform.verifier import Env, ScenarioConfig, run_scenario

from conftest import borel_diagonal, rand_G, rand_K, rand_section, reference_sum_products


def random_support(ctx, rng: random.Random, n: int, level: int) -> frozenset:
    """A random nonempty union of the (T cap K)\\I(n)/K(level) orbits, as the verifier draws one."""
    keys = [iwahori_orbit_key(ctx, rep, n, level) for rep in torus_orbit_reps(ctx, n, level).reps]
    return frozenset(k for k in keys if rng.random() < 0.5) or frozenset(keys[:1])


def all_pairs_ext(f: CompactInducedFn, model1, model2, level: int):
    """ext's rows by the loop over every cell pair: f read on each section
    matrix sigma = (z2 t2; z1 t1) through in_T_In, times the Borel factors of
    the two det-one reps, each row a list of Scalars over the level's cells."""
    ctx, p = f.ctx, f.ctx.p
    rows = p1_table(ctx, max(level, f.level, f.n, 1)).rows
    out = []
    for z1, t1 in rows:
        row = []
        for z2, t2 in rows:
            delta = z2 * t1 - t2 * z1
            fv = f.eval(GroupElement(p, z2, t2, z1, t1)) if delta % p else ctx.zero()
            row.append(model1.borel.eval((1, delta), (1, 1)) * model2.borel.eval((-1, delta), (1, 1)) * fv if not fv.is_zero() else ctx.zero())
        out.append(row)
    return out


@pytest.mark.parametrize("key", ["setup21", "setup32", "setup24", "setup52"])
def test_ext_equals_the_all_pairs_loop(request, key):
    """ext builds only the rows with p^n | z1 and leaves every other row
    empty; each row equals the all-pairs loop's, on the indicator and on five
    random supports."""
    s = request.getfixturevalue(key)
    ctx, n, rng = s.ctx, s.cfg.n, random.Random(9)
    level = s.level + 1  # past n, so that some rows with p^n | z1 have z1 != 0
    fs = [s.f] + [CompactInducedFn(ctx, s.mu1, s.mu2, n, level, support=random_support(ctx, rng, n, level)) for _ in range(5)]
    for f in fs:
        F = ext(f, s.V1, s.V2, level)
        reps = p1_table(ctx, F.level).reps
        assert F.level == level
        for (z1, _), row, want in zip(p1_table(ctx, level).rows, F.rows, all_pairs_ext(f, s.V1, s.V2, level)):
            assert [row.eval(rep) for rep in reps] == want
            if z1 % ctx.p**n:
                assert not row.terms


def test_ext_is_the_pair_indicator(setup21, setup32):
    for s in (setup21, setup32):
        f = CompactInducedFn(s.ctx, s.mu1, s.mu2, s.cfg.n, s.cfg.n)
        F = ext(f, s.V1, s.V2)
        table = p1_table(s.ctx, F.level)
        for rep1 in table.reps:
            for rep2 in table.reps:
                want = s.ctx.one() if (rep1.in_iwahori(s.cfg.n) and not rep2.in_iwahori(1)) else s.ctx.zero()
                assert F.eval_pair(rep1, rep2) == want


def test_closed_form_matches_ext(setup21, setup32):
    """ext(f) is the indicator of the pairs (k in I_n, k' not in I_1) and equals
    the closed form A v1' (x) v2' on every coset pair, and F(g, wg) = f(g) off K.
    The pair (p, n) = (2, 2) has no third representation (Q_2* has no
    conductor-one character) but this block needs none, so it runs here on the
    (2, 1) data with the depth-2 indicator."""
    rng = random.Random(0)
    for s, n in ((setup21, 1), (setup32, 2), (setup21, 2)):
        ctx = s.ctx
        f = CompactInducedFn(ctx, s.mu1, s.mu2, n, n)
        F = ext(f, s.V1, s.V2)
        a, b = s.a, s.b
        FV = closed_form_tensor(ctx, s.mu1, s.mu2, s.v1, s.v2, n, a**n / ((a * a - 1) * (b * b - 1)))
        table = p1_table(ctx, F.level)
        for rep1 in table.reps:
            for rep2 in table.reps:
                want = ctx.one() if (rep1.in_iwahori(n) and not rep2.in_iwahori(1)) else ctx.zero()
                assert F.eval_pair(rep1, rep2) == want
                assert FV.eval_pair(rep1, rep2) == want
        w = GroupElement.w(ctx.p)
        gs = [rand_G(ctx, rng, val_range=1) for _ in range(10)]
        assert not all(g.in_K() for g in gs)
        for g in gs:
            assert FV.eval_pair(g, w * g) == F.eval_pair(g, w * g) == f.eval(g)


def test_pure_tensor_is_the_product_of_its_slots(setup21, setup32):
    """A pure tensor read through its slot-1 table agrees with the direct
    product c * s1(g1) * s2(g2), and translation is the diagonal action."""
    rng = random.Random(5)
    for s in (setup21, setup32):
        ctx = s.ctx
        c = ctx.a + 2
        s1 = rand_section(s.ctx, rng, s.V1, 1).translated(s.gamma(-1)) + s.v1.translated(rand_K(ctx, rng))
        s2 = rand_section(s.ctx, rng, s.V2, 2).translated(rand_G(ctx, rng, 1))
        F = TensorFn.pure(ctx, c, s1, s2)
        g = rand_G(ctx, rng, 1)
        Fg = F.translated(g)
        for _ in range(6):
            g1, g2 = rand_G(ctx, rng, 1), rand_G(ctx, rng, 1)
            assert F.eval_pair(g1, g2) == c * s1.eval(g1) * s2.eval(g2)
            assert Fg.eval_pair(g1, g2) == F.eval_pair(g1 * g, g2 * g)


def test_translated_tensor_keeps_the_slot_levels(setup21, setup32):
    """Translating v1 (x) gamma^-1 v2 raises each slot's level by the Cartan
    gap of g only: slot 1 does not inherit the level slot 2 spends on gamma^-1."""
    rng = random.Random(6)
    for s in (setup21, setup32):
        s1, s2 = s.v1, s.v2.translated(s.gamma(-1))
        F = TensorFn.pure(s.ctx, 1, s1, s2)
        for g in [rand_K(s.ctx, rng), GroupElement.w(s.ctx.p), rand_G(s.ctx, rng, 1), s.gamma(1)]:
            assert F.translated(g).level_bound() == max(s1.translated(g).level_bound(), s2.translated(g).level_bound())


def test_ext_vanishes_on_diagonal_orbit(setup21):
    s = setup21
    rng = random.Random(1)
    f = CompactInducedFn(s.ctx, s.mu1, s.mu2, 1, 1)
    F = ext(f, s.V1, s.V2)
    for _ in range(15):
        g = rand_G(s.ctx, rng, val_range=1)
        b = GroupElement(2, Fraction(rng.choice([1, 3])) * 2 ** rng.randint(-1, 1), rng.randint(0, 3), 0, Fraction(rng.choice([1, 3])))
        assert F.eval_pair(g, b * g).is_zero()


def test_res_diag_values(setup21):
    s = setup21
    ctx = s.ctx
    v1star = s.v1.translated(s.gamma(-1))
    F = TensorFn.pure(ctx, 1, v1star, s.v2)
    # the restriction to the diagonal, g -> F(g, g)
    assert F.eval_pair(GroupElement.identity(2), GroupElement.identity(2)) == ctx.a.inverse()
    assert F.eval_pair(GroupElement.w(2), GroupElement.w(2)) == ctx.a


def test_chain_consistency_random_supports(setup21):
    s = setup21
    rng = random.Random(2)
    n, level = 1, 2
    for _ in range(3):
        f = CompactInducedFn(s.ctx, s.mu1, s.mu2, n, level, support=random_support(s.ctx, rng, n, level))
        F = ext(f, s.V1, s.V2, level)
        assert ell_chain(s.phi, F, s.v3) == Phi_eval(s.phi, f, s.v3)


def test_intro_vanishing(setup21, setup32):
    for s in (setup21, setup32):
        z = ell_chain(s.phi, TensorFn.pure(s.ctx, 1, s.v1, s.v2), s.v3)
        assert z.is_zero()


def test_main_theorem_values(setup21, setup32):
    for s in (setup21, setup32):
        F = TensorFn.pure(s.ctx, 1, s.v1.translated(s.gamma(-s.cfg.n)), s.v2)
        val = ell_chain(s.phi, F, s.v3)
        assert not val.is_zero()


def three_term_closure(t0, t1, t2):
    """The sum past t2 of a series whose last three terms are in geometric
    progression, at the ratio they show (t2/t1): the reference infers the
    ratio, so it does not read the chain's derived one."""
    if t0.is_zero() and t1.is_zero() and t2.is_zero():
        return t0
    assert not t1.is_zero() and t1 * t1 == t0 * t2, "reference tail not geometric"
    rho = t2 / t1
    return t2 * rho / (1 - rho)


def reference_parts(phi, F, v, depth_margin=2):
    """The chain term by term: L* (from level_bound, so it cross-checks the
    chain's tighter R), the unit-distance sum and the weighted sums of strata
    1 .. L* + 1 + depth_margin.  F(w sigma) is one Scalar per cell pair formed
    from GroupElement products, and each stratum is a separate sum by
    reference_sum_products, which shares no accumulation code with the engine."""
    if depth_margin < 2:
        raise ValueError(f"depth margin {depth_margin} < 2: the three-term closure needs strata L* + 1 .. L* + 3")
    ctx = phi.ctx
    p, q = ctx.p, ctx.q
    Lstar = max(F.level_bound(), v.level_bound(), phi.model3.min_level, 1)
    table = p1_table(ctx, Lstar)
    w = GroupElement.w(p)
    cell_pre = [(rep, bottom, F.slot1(rep), phi.reader(v, rep)) for rep, bottom in zip(table.reps, table.rows)]
    borel1 = F.model1.borel
    w0 = ctx.scalar(Fraction(p + 1, p) * table.cell_mass * table.cell_mass)

    def unit_distance():
        for rep, (z1, t1), row, read in cell_pre:
            for z2, t2 in table.rows:
                if (z2 * t1 - t2 * z1) % p:
                    sigma = GroupElement(p, z2, t2, z1, t1)
                    Fv = row.eval(w * sigma)
                    if not Fv.is_zero():
                        b = sigma * rep.inv()
                        for term in read(b.X, b.Y, b.T):
                            yield w0, borel1.eval(*borel_diagonal(b)), Fv, *term

    def stratum(e):
        for eta in units_mod(p, Lstar):
            bs = GroupElement(p, eta * p**e, 1, 0, 1)
            for rep, _, row, read in cell_pre:
                Fv = row.eval(w * bs * rep)
                if not Fv.is_zero():
                    for term in read(bs.X, bs.Y, bs.T):
                        yield borel1.eval(*borel_diagonal(bs)), Fv, *term

    depth_sums = [ctx.scalar(table.cell_mass * Fraction(q**e, q**Lstar)) * reference_sum_products(ctx.field, ((fs, 0, 1) for fs in stratum(e))) for e in range(1, Lstar + 2 + depth_margin)]
    return Lstar, reference_sum_products(ctx.field, ((fs, 0, 1) for fs in unit_distance())), depth_sums


def reference_close(total, depth_sums):
    """The unit-distance sum with the strata added one at a time, and the tail
    past the last closed by three_term_closure."""
    for t in depth_sums:
        total = total + t
    return total + three_term_closure(*depth_sums[-3:])


def reference_ell_chain(phi, F, v, depth_margin=2):
    """reference_parts closed by reference_close."""
    return reference_close(*reference_parts(phi, F, v, depth_margin)[1:])


def test_depth_margin_does_not_change_ell(setup21, setup31, setup32):
    """The near-diagonal depths are geometric from R = L* on: the chain,
    closed from strata R and R + 1 at the derived ratio, equals the reference,
    whose strata run two or four depths past L* + 1 (its L* from level_bound,
    at least R), closed at the ratio it observes."""
    for s in (setup21, setup31, setup32):
        tensors = (
            TensorFn.pure(s.ctx, 1, s.v1.translated(s.gamma(-s.cfg.n)), s.v2),
            TensorFn.pure(s.ctx, 1, s.v1, s.v2.translated(s.gamma(-1))),
            ext(s.f, s.V1, s.V2, s.level),
        )
        for F in tensors:
            got = ell_chain(s.phi, F, s.v3)
            assert got == reference_ell_chain(s.phi, F, s.v3, depth_margin=2)
            assert got == reference_ell_chain(s.phi, F, s.v3, depth_margin=4)


def test_depth_margin_below_two_is_refused(setup21, setup32):
    """The reference closes its tail only from depths past L* + 1: its
    three-term closure needs strata through L* + 3, so a margin below 2 is
    refused."""
    for s in (setup21, setup32):
        F = TensorFn.pure(s.ctx, 1, s.v1, s.v2)
        for margin in (-1, 0, 1):
            with pytest.raises(ValueError):
                reference_ell_chain(s.phi, F, s.v3, depth_margin=margin)


def chain_level(phi, F, v):
    """The chain's R: the largest of F's level bound, V3's min_level and v's checked invariance level."""
    floor = max(F.level_bound(), phi.model3.min_level)
    return max(floor, v.invariance_level(floor))


@pytest.mark.parametrize("key", ["setup21", "setup31", "setup51"])
def test_the_depth_tail_starts_at_the_checked_level(request, key):
    """At n = 1 the strata are geometric at the derived ratio from R on: for
    e = R .. R + 2, stratum e + 1, summed term by term by the reference (its
    classes at level_bound), is rho times stratum e.  Inputs: gamma^-i v1 (x)
    gamma^-j v2 (x) v3 for i, j <= 2, ext f, their K-, w- and rand_G-translates
    (gamma^-1 v1 (x) v2 and ext f), and the Atkin-Lehner inputs of nb-swap and
    n1-identity, pi(g) v3 and v3' with g = (0 1; p 0), bounded at 2 and checked
    at R = 1.  Below R the tail has not started: under the rand_G translate of
    Cartan gap 1 (the first of seed 3), R = L* = 2 and stratum 2 is not rho
    times stratum 1."""
    s = request.getfixturevalue(key)
    ctx, p, rng = s.ctx, s.ctx.p, random.Random(3)
    rho = s.phi.tail_ratios["depth"]
    pure = {(i, j): TensorFn.pure(ctx, 1, s.v1.translated(s.gamma(-i)), s.v2.translated(s.gamma(-j))) for i in range(3) for j in range(3)}
    g = rand_G(ctx, rng, 1)
    while g.cartan_gap() != 1:
        g = rand_G(ctx, rng, 1)
    al = GroupElement(p, 0, 1, p, 0)
    atkin_lehner = [(pure[0, 1], s.v3.translated(al)), (pure[1, 0], s.v3.translated(al.inv()).scaled(s.a * s.b) + s.v3)]
    inputs = [(F, s.v3) for F in pure.values()] + [(s.ext_f, s.v3)] + atkin_lehner
    inputs += [(F.translated(h), s.v3.translated(h)) for h in (rand_K(ctx, rng), GroupElement.w(p), g) for F in (pure[1, 0], s.ext_f)]
    for F, v in inputs:
        R = chain_level(s.phi, F, v)
        strata = reference_parts(s.phi, F, v)[2]  # strata[e - 1] is stratum e
        for e in range(R, R + 3):
            assert strata[e] == rho * strata[e - 1], (key, e)
    for F, v in atkin_lehner:
        assert v.level_bound() == 2 and chain_level(s.phi, F, v) == 1, key
    F, v = pure[1, 0].translated(g), s.v3.translated(g)
    strata = reference_parts(s.phi, F, v)[2]
    assert chain_level(s.phi, F, v) == 2 and strata[1] != rho * strata[0], key


def test_wrong_mu1_fails_the_depth_guard(setup21, setup31):
    """F built on a V1 whose mu_1(pi) is not phi's keeps the strata geometric,
    but at the ratio of the wrong character: the guard refuses it, while the
    same tensor on V1 itself closes."""
    for s in (setup21, setup31):
        ctx = s.ctx
        assert s.phi.tail_ratios["depth"] == s.a * s.b  # mu_1(pi) mu_2(pi)/q on the Steinberg model
        V1x = principal_series_model(ctx, SmoothCharacter.unramified(ctx, 2 * s.a * ctx.r), tag="V1x")
        F = TensorFn.pure(ctx, 1, new_vector_unramified(V1x).translated(s.gamma(-1)), s.v2)
        with pytest.raises(TailError, match="tail not stabilized"):
            ell_chain(s.phi, F, s.v3)
        assert not ell_chain(s.phi, TensorFn.pure(ctx, 1, s.v1.translated(s.gamma(-1)), s.v2), s.v3).is_zero()


def test_steinberg_vector_outside_sp_is_named(setup21, setup31):
    """A Steinberg-model table with nonzero K-average is outside Sp: the
    chain's guard fails and the chain says so, with the average, as a
    TriformError that is not a TailError.  Projected into Sp, the same
    table closes."""
    rng = random.Random(11)
    for s in (setup21, setup31):
        F = TensorFn.pure(s.ctx, 1, s.v1.translated(s.gamma(-1)), s.v2)
        tbl = rand_section(s.ctx, rng, s.V3, 1).as_table()
        while tbl.k_average().is_zero():
            tbl = rand_section(s.ctx, rng, s.V3, 1).as_table()
        avg = tbl.k_average()
        with pytest.raises(TriformError, match="outside Sp") as err:
            ell_chain(s.phi, F, tbl.as_section())
        assert not isinstance(err.value, TailError)
        assert avg.render() in str(err.value)
        in_sp = TableSection(s.V3, 1, [x - avg for x in tbl.values]).as_section()
        assert ell_chain(s.phi, F, in_sp) == reference_ell_chain(s.phi, F, in_sp)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(("setup21", "setup32", "setup24")), st.sampled_from(("pure", "ext")), st.integers(0, 2**32))
def test_chain_matches_the_term_by_term_reference(request, setup, kind, seed):
    """Counted strata and one deferred head sum give the same ell as the chain
    that forms every term, on random pure tensors and random sections, and on
    ext of random supports."""
    s = request.getfixturevalue(setup)
    ctx, rng = s.ctx, random.Random(seed)
    moves = [GroupElement.identity(ctx.p), rand_K(ctx, rng), GroupElement.w(ctx.p), s.gamma(-1)]
    if kind == "pure":
        c = rng.choice([ctx.one(), ctx.a + 2, ctx.b / ctx.a])
        s1 = rand_section(s.ctx, rng, s.V1, 1).translated(rng.choice(moves)) + s.v1.translated(rng.choice(moves))
        s2 = rand_section(s.ctx, rng, s.V2, 1).translated(rng.choice(moves))
        F = TensorFn.pure(ctx, c, s1, s2)
    else:
        support = random_support(ctx, rng, s.cfg.n, s.level)
        F = ext(CompactInducedFn(ctx, s.mu1, s.mu2, s.cfg.n, s.level, support=support), s.V1, s.V2, s.level)
    v = rng.choice([s.v3, s.v3.translated(rng.choice(moves[:3])), None])
    if v is None:
        tbl = rand_section(s.ctx, rng, s.V3, s.V3.min_level).as_table()
        if s.V3.steinberg:  # into Sp, where ell lives: subtract the K-average from every cell
            tbl = TableSection(s.V3, tbl.level, [x - tbl.k_average() for x in tbl.values])
        v = tbl.as_section()
    got = ell_chain(s.phi, F, v)
    assert got == reference_ell_chain(s.phi, F, v), (setup, kind, seed)


def test_the_chain_streams_each_distinct_term_once(monkeypatch):
    """Every weight class of the chain, the unit-distance pairs included,
    counts its factor tuples by identity: no sum_products call of ell_chain
    streams the same tuple of factors twice.  A fresh Env, so that
    ell_pure runs its chains here."""
    calls = []
    real = trilinear.sum_products

    def spy(field, items, *args):
        items = list(items)  # held, so that no factor's id is reused while the call is checked
        calls.append(items)
        return real(field, items, *args)

    monkeypatch.setattr(trilinear, "sum_products", spy)
    s = Env(ScenarioConfig(3, 2))
    s.ell_pure(2, 0)
    s.ell_pure(0, 2)
    assert calls
    for items in calls:
        keys = [tuple(map(id, factors)) for factors, _, _ in items]
        assert len(keys) == len(set(keys))


@pytest.mark.parametrize("key", ["setup32", "setup24", "setup52z"])
def test_the_skipped_depth_strata_vanish(request, key):
    """Where chi~ and chi_a are ramified, ell_chain sums no stratum from R on
    (the zero tail derived in its docstring).  On pure tensors, ext of random
    supports, their translates and random tables at V3's least level, strata
    L* .. L* + 3 (the reference's L*, at least R) summed term by term are each exactly 0, and the chain equals
    the reference closed from them."""
    s = request.getfixturevalue(key)
    ctx, rng = s.ctx, random.Random(41)
    assert s.phi.chtil.c and s.V3.borel.chi_a.c
    g = rand_G(ctx, rng, 1)
    while g.cartan_gap() < 1:
        g = rand_G(ctx, rng, 1)
    pure = TensorFn.pure(ctx, s.a + 2, s.v1.translated(s.gamma(-1)) + rand_section(ctx, rng, s.V1, 1), rand_section(ctx, rng, s.V2, 1))
    support = random_support(ctx, rng, s.cfg.n, s.level)
    extF = ext(CompactInducedFn(ctx, s.mu1, s.mu2, s.cfg.n, s.level, support=support), s.V1, s.V2, s.level)
    v_rand = rand_section(ctx, rng, s.V3, s.V3.min_level)
    inputs = [(F, v) for F in (pure, extF) for v in (s.v3, v_rand)]
    inputs += [(F.translated(h), s.v3.translated(h)) for F in (pure, extF) for h in (rand_K(ctx, rng), GroupElement.w(ctx.p), s.gamma(-1), g)]
    for F, v in inputs:
        Lstar, head, depth_sums = reference_parts(s.phi, F, v)
        assert len(depth_sums) == Lstar + 3 and all(t.is_zero() for t in depth_sums[Lstar - 1:]), key
        assert ell_chain(s.phi, F, v) == reference_close(head, depth_sums)


def test_psi_vanishing_n2(setup32):
    s = setup32
    assert ell_chain(s.phi, TensorFn.pure(s.ctx, 1, s.v1.translated(s.gamma(-1)), s.v2), s.v3).is_zero()


def test_g_invariance_chain(setup21):
    s = setup21
    rng = random.Random(3)
    F = TensorFn.pure(s.ctx, 1, s.v1, s.v2.translated(s.gamma(-1)))
    base = ell_chain(s.phi, F, s.v3)
    for g in [rand_K(s.ctx, rng) for _ in range(4)] + [GroupElement.w(2), rand_G(s.ctx, rng, 1)]:
        assert ell_chain(s.phi, F.translated(g), s.v3.translated(g)) == base


@pytest.mark.parametrize("setup", ["setup32", "setup24", "setup34"])
def test_kernel_characters_derivation(request, setup):
    """The pair characters' values at pi are derived, then verified here, and
    each has conductor c(mu3) = n/2: on units they are mu3^-1, mu3 and mu3."""
    s = request.getfixturevalue(setup)
    ctx = s.ctx
    nu12, nu13, nu23 = derive_kernel_characters(ctx, s.mu1, s.mu2, s.mu3)
    assert nu12.value_at_pi == ctx.scalar(ctx.q) * ctx.a * ctx.b * ctx.r / ctx.u
    assert nu13.value_at_pi == ctx.a * ctx.u * ctx.r / ctx.b
    assert nu23.value_at_pi == ctx.b * ctx.u * ctx.r / ctx.a
    for nu in (nu12, nu13, nu23):
        assert nu.c == s.mu3.c == s.cfg.n // 2


def test_kernel_refuses_steinberg(setup21):
    with pytest.raises(KernelUnsupportedError):
        KernelForm(setup21.ctx, setup21.mu1, setup21.mu2, setup21.V3)


def test_kernel_invariance_and_proportionality(setup32):
    s = setup32
    ctx = s.ctx
    rng = random.Random(4)
    kform = KernelForm(ctx, s.mu1, s.mu2, s.V3)
    f1 = rand_section(s.ctx, rng, s.V1, 1)
    f2 = rand_section(s.ctx, rng, s.V2, 1)
    f3 = rand_section(s.ctx, rng, s.V3, 1)
    base = kform.eval(f1, f2, f3)
    for g in [rand_K(s.ctx, rng) for _ in range(5)] + [GroupElement.w(3), s.gamma(1)]:
        assert kform.eval(f1.translated(g), f2.translated(g), f3.translated(g)) == base
    # proportionality against the chain route on a few triples
    ratio = None
    checked = 0
    while checked < 3:
        fa, fb, fc = (rand_section(s.ctx, rng, s.V1, 1), rand_section(s.ctx, rng, s.V2, 1), rand_section(s.ctx, rng, s.V3, 1))
        cv = ell_chain(s.phi, TensorFn.pure(ctx, 1, fa, fb), fc)
        kv = kform.eval(fa, fb, fc)
        if cv.is_zero():
            assert kv.is_zero()
            continue
        checked += 1
        r = kv / cv
        if ratio is None:
            ratio = r
        assert r == ratio
    assert not ratio.is_zero()


def valuation(x: int, p: int) -> int:
    v = 0
    while not x % p:
        x, v = x // p, v + 1
    return v


def kernel_reference(kform: KernelForm, f1: Section, f2: Section, f3: Section):
    """KernelForm.eval by a triple loop of Scalars, kept as its oracle: the
    distinct-cell triples of the tables' supports whose wedges w all have
    val(w) + c(nu) <= L0, each term a factor tuple (mass^3, values, pair
    characters at the wedges) summed by reference_sum_products."""
    ctx = kform.ctx
    L0 = max(f1.level_bound(), f2.level_bound(), f3.level_bound(), kform.model3.min_level)
    vals1, vals2, vals3 = (f.as_table(L0).support for f in (f1, f2, f3))
    table = p1_table(ctx, L0)
    mass3 = ctx.scalar(table.cell_mass**3)

    def wedges(nu):
        """nu at the wedge of each resolved ordered pair of distinct cells."""
        rows = list(enumerate(table.rows))
        wedge = {(i, j): zi * tj - ti * zj for i, (zi, ti) in rows for j, (zj, tj) in rows if i != j}
        return {ij: nu.eval(w) for ij, w in wedge.items() if valuation(w, ctx.p) + nu.c <= L0}

    W12, W13, W23 = wedges(kform.nu12), wedges(kform.nu13), wedges(kform.nu23)
    items = (
        ((mass3, x1, x2, x3, W12[i, j], W13[i, k], W23[j, k]), 0, 1)
        for i, x1 in vals1.items()
        for j, x2 in vals2.items()
        for k, x3 in vals3.items()
        if (i, j) in W12 and (i, k) in W13 and (j, k) in W23
    )
    return reference_sum_products(ctx.field, items)


def mixed_section(ctx, rng: random.Random, model, level: int) -> Section:
    """A random level-`level` section whose nonzero values are ints or roots of unity times ints."""
    vals = [ctx.scalar(rng.randint(-3, 3)) * rng.choice(ctx.zeta_powers) for _ in p1_table(ctx, level).reps]
    return TableSection(model, level, vals).as_section()


SPECIALIZED = {"a": Fraction(2), "b": Fraction(3), "u": Fraction(5)}
_kernel_envs: dict = {}


def kernel_env(key) -> Env:
    """The Env at (p, n), symbolic or at a=2, b=3, u=5, built once per key."""
    p, n, specialized = key
    if key not in _kernel_envs:
        _kernel_envs[key] = Env(ScenarioConfig(p, n, specialize=dict(SPECIALIZED) if specialized else None))
    return _kernel_envs[key]


@pytest.mark.parametrize("key", [(3, 2, False), (3, 2, True), (5, 2, False), (5, 2, True), (2, 4, False)])
def test_kernel_matches_the_triple_loop(key):
    """KernelForm.eval (counted in ints) against kernel_reference on random
    triples of int and root-of-unity tables at V3's least level, and on their
    translates by gamma (which leave Q(zeta_M): opaque values) and by w, at
    (3,2) and (5,2), symbolic and at a=2, b=3, u=5, and at (2,4), where the pair
    characters have conductor 2."""
    p = key[0]
    s = kernel_env(key)
    kform, rng = s.kernel_form, random.Random(p + 10 * key[2])
    for _ in range(2):
        f = [mixed_section(s.ctx, rng, model, s.V3.min_level) for model in (s.V1, s.V2, s.V3)]
        for g in (None, GroupElement.w(p), s.gamma(1)):
            fs = f if g is None else [x.translated(g) for x in f]
            assert kform.eval(*fs) == kernel_reference(kform, *fs), (key, g)


def sparse_triple(s: Env, rng: random.Random) -> list:
    """(f1, f2, f3) at V3's least level, each nonzero (an int times a root of
    unity) on k cells, the 3k cells distinct: at p = 2, k = 2 and the cells are
    all six; at p > 2, k = 1, the cell z = 0 mod p among them, which gamma
    blows up to most of P^1 (its refined tables are dense, one value there)."""
    ctx, level = s.ctx, s.V3.min_level
    rows = p1_table(ctx, level).rows
    k = 2 if ctx.p == 2 else 1
    cells = rng.sample(range(len(rows)), 3 * k)
    out = []
    for j, model in enumerate((s.V1, s.V2, s.V3)):
        vals = [ctx.zero()] * len(rows)
        for i in cells[j * k : (j + 1) * k]:
            vals[i] = ctx.scalar(rng.choice([-3, -2, -1, 1, 2, 3])) * rng.choice(ctx.zeta_powers)
        out.append(TableSection(model, level, vals).as_section())
    return out


@pytest.mark.parametrize("key", [(3, 2, False), (5, 2, False), (5, 2, True), (2, 4, False)])
def test_kernel_is_unchanged_by_refinement(key):
    """eval on the tables refined to L0, L0 + 1 and L0 + 2 gives one value, on
    random triples and their translates by w and gamma: refining resolves
    triples the coarser sum drops, so this checks, with no closed form, that
    the dropped triples integrate to 0 (KernelForm's docstring)."""
    p = key[0]
    s = kernel_env(key)
    kform, rng = s.kernel_form, random.Random(p + 20)
    for _ in range(2):
        f = sparse_triple(s, rng)
        for g in (None, GroupElement.w(p), s.gamma(1)):
            fs = f if g is None else [x.translated(g) for x in f]
            L0 = max(max(x.level_bound() for x in fs), s.V3.min_level)
            base, *finer = (kform.eval(*(x.as_table(L).as_section() for x in fs)) for L in (L0, L0 + 1, L0 + 2))
            assert not base.is_zero(), (key, g)
            assert all(v == base for v in finer), (key, g)


def test_refined_translate_holds_one_opaque_object_per_value():
    """At (5,2) symbolic, gamma blows the cell z = 0 mod p up to most of P^1:
    the level-4 refinement of the gamma-translate of a one-cell table there
    holds hundreds of opaque cells (values outside Q(zeta_M)) and, in
    TableSection.zeta, one object per distinct value among them, so the kernel,
    which keys opaque values by identity, forms one group per value."""
    s = kernel_env((5, 2, False))
    rows = p1_table(s.ctx, s.V3.min_level).rows
    assert rows[0][0] == 0
    for model in (s.V1, s.V2, s.V3):
        vals = [s.ctx.zero()] * len(rows)
        vals[0] = s.ctx.scalar(2)
        table = TableSection(model, s.V3.min_level, vals).as_section().translated(s.gamma(1)).as_table(4)
        opaque = [o for o, _ in table.zeta[1].values() if o is not None]
        assert len(opaque) > 100, model
        assert len({id(o) for o in opaque}) == len({o.render() for o in opaque}), model


def test_kernel_nonvanishing_main_tensor(setup32):
    s = setup32
    kform = KernelForm(s.ctx, s.mu1, s.mu2, s.V3)
    val = kform.eval(s.v1.translated(s.gamma(-2)), s.v2, s.v3)
    assert not val.is_zero()


def test_simple_case(setup21):
    s = setup21
    ctx = s.ctx

    mu2s = SmoothCharacter.unramified(ctx, ctx.a.inverse() * ctx.r)
    V2s = principal_series_model(ctx, mu2s, tag="V2s")
    v2s = new_vector_unramified(V2s)
    F = TensorFn.pure(ctx, 1, s.v1.translated(s.gamma(-1)), v2s)
    pairing = simple_case_pairing(F, s.mu1, mu2s, s.v3)
    assert pairing == (1 - ctx.a**2) / (ctx.scalar(3) * ctx.a)
    zero = simple_case_pairing(TensorFn.pure(ctx, 1, s.v1, v2s), s.mu1, mu2s, s.v3)
    assert zero.is_zero()


@pytest.mark.parametrize("key", [(2, 1), (3, 2)])
def test_zero_is_held_one_way(monkeypatch, key):
    """Through every scenario at (p, n), with the constructors wrapped: no
    table's support holds a zero and its dense view is the dense input, no
    Section term has a zero coefficient, and every TensorFn row is a Section
    (a vanishing row is the empty sum)."""
    made = {TableSection: [], Section: [], TensorFn: []}

    def wrap(cls):
        init = cls.__init__

        def recorded(self, *args):
            if cls is TableSection:  # (model, level, values): keep the dense input
                args = (*args[:2], list(args[2]))
            init(self, *args)
            made[cls].append((self, args[-1]))

        monkeypatch.setattr(cls, "__init__", recorded)

    for cls in made:
        wrap(cls)
    report = run_scenario(ScenarioConfig(*key, scenario="all"))
    assert {c.verdict for c in report.checks} <= {"PASS", "SKIPPED"}
    assert all(made.values())
    for tbl, dense in made[TableSection]:
        assert not any(v.is_zero() for v in tbl.support.values())
        assert tbl.values == [tbl.ctx.scalar(v) for v in dense]
    assert not any(c.is_zero() for sec, _ in made[Section] for c, _, _ in sec.terms)
    assert all(isinstance(row, Section) for F, _ in made[TensorFn] for row in F.rows)
