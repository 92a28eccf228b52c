"""The torus functional: its derived twist, equivariance, the two computation
routes, linearity, the indicator f and the compact-orbit integral
Phi = lambda phi."""

import random
from fractions import Fraction

import pytest

from triform.functionals import (
    CompactInducedFn,
    FunctionalError,
    Phi_eval,
    coset_constant,
    derive_phi_twist,
    make_indicator_f,
)
from triform.matrices import GroupElement

from conftest import rand_G, rand_K, rand_section


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
    secs = [rand_section(s.V3, 1, rng) for _ in range(5)]
    for sec in secs:
        for _ in range(10):
            d1 = Fraction(rng.choice([1, 3, 5, 7])) * Fraction(2) ** rng.randint(-3, 3)
            d2 = Fraction(rng.choice([1, 3, 5, 7])) * Fraction(2) ** rng.randint(-3, 3)
            t = GroupElement.diag(2, d1, d2)
            assert s.phi.eval(sec.translated(t)) == s.phi.torus_factor(t) * s.phi.eval(sec)


def test_equivariance_ramified(setup32):
    s = setup32
    rng = random.Random(2)
    sec = s.v3.translated(GroupElement.upper(3, 1))
    for _ in range(15):
        d1 = Fraction(rng.choice([1, 2, 4, 5])) * Fraction(3) ** rng.randint(-2, 2)
        d2 = Fraction(rng.choice([1, 2, 4, 5])) * Fraction(3) ** rng.randint(-2, 2)
        t = GroupElement.diag(3, d1, d2)
        assert s.phi.eval(sec.translated(t)) == s.phi.torus_factor(t) * s.phi.eval(sec)


def test_fast_equals_reference(setup21, setup32):
    rng = random.Random(3)
    for s in (setup21, setup32):
        phi = s.phi
        targets = [s.v3, s.v3.translated(s.gamma(-1)), rand_section(s.V3, s.V3.min_level, rng)]
        targets.append(s.v3.translated(rand_G(s.ctx, rng, val_range=1)))
        for sec in targets:
            assert phi.eval(sec) == phi.eval_reference(sec)


def test_phi_linear(setup21):
    s = setup21
    rng = random.Random(4)
    x = rand_section(s.V3, 1, rng)
    y = rand_section(s.V3, 1, rng)
    c = s.ctx.scalar(Fraction(3, 7))
    assert s.phi.eval(x.scaled(c) + y) == c * s.phi.eval(x) + s.phi.eval(y)
    assert s.phi.eval(x.zero_like()).is_zero()


def test_phi_nonvanishing_on_new_vectors(setup21, setup32):
    assert not setup21.phi.eval(setup21.v3).is_zero()
    assert not setup32.phi.eval(setup32.v3).is_zero()


def test_indicator(setup21):
    s = setup21
    rng = random.Random(5)
    f = make_indicator_f(s.ctx, s.mu1, s.mu2, 1)
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
    with pytest.raises(FunctionalError):
        CompactInducedFn(setup32.ctx, setup32.mu3, setup32.mu2, 2, 2)


def test_Phi_equals_lambda_phi(setup21, setup32):
    for s in (setup21, setup32):
        p, n = s.cfg.p, s.cfg.n
        f = make_indicator_f(s.ctx, s.mu1, s.mu2, n)
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
