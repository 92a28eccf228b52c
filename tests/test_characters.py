import random
from fractions import Fraction

import pytest

from triform import Context
from triform.characters import (
    BorelCharacter,
    SmoothCharacter,
    parse_character_spec,
    unit_group_generators,
)
from triform.matrices import GroupElement
from triform.padic import PadicRational


@pytest.fixture(scope="module")
def ctx():
    return Context(3, zeta_order=2)


def test_generators():
    assert unit_group_generators(3, 1) == ((2, 2),)
    assert unit_group_generators(2, 1) == ()
    assert unit_group_generators(2, 2) == ((3, 2),)
    assert unit_group_generators(2, 3) == ((7, 2), (5, 2))
    g, order = unit_group_generators(5, 1)[0]
    assert order == 4 and pow(g, 2, 5) != 1


def test_unramified_eval(ctx):
    mu = SmoothCharacter.unramified(ctx, ctx.a * ctx.r)
    assert mu.eval(Fraction(1, 3)) == (ctx.a * ctx.r).inverse()
    assert mu.eval(Fraction(9)) == (ctx.a * ctx.r) ** 2
    assert mu.eval(2).is_one()
    assert mu.conductor() == 0
    with pytest.raises(ZeroDivisionError):
        mu.eval(0)


def test_ramified_eval(ctx):
    mu3 = parse_character_spec(ctx, "ram(c=1, gens=[2->zeta2^1], pi=u)")
    assert mu3.conductor() == 1
    assert mu3.eval(2) == ctx.scalar(-1)
    assert mu3.eval(4).is_one()
    assert mu3.eval(Fraction(3)) == ctx.u
    assert mu3.eval(Fraction(6)) == ctx.u * ctx.scalar(-1)


def test_multiplicativity(ctx):
    rng = random.Random(5)
    mu3 = parse_character_spec(ctx, "ram(c=1, gens=[2->zeta2^1], pi=u)")
    mu = SmoothCharacter.unramified(ctx, ctx.b * ctx.r)
    for ch in (mu3, mu, mu3 * mu):
        for _ in range(100):
            x = Fraction(rng.randint(1, 200), rng.randint(1, 200))
            y = Fraction(rng.randint(1, 200), rng.randint(1, 200))
            assert ch.eval(x * y) == ch.eval(x) * ch.eval(y)


def test_conductor_minimality(ctx):
    mu3 = parse_character_spec(ctx, "ram(c=1, gens=[2->zeta2^1], pi=u)")
    assert (mu3 * mu3.inverse()).conductor() == 0
    # declaring a non-minimal conductor is rejected
    from triform.cyclo import RootOfUnity

    with pytest.raises(ValueError):
        SmoothCharacter(ctx, 2, (RootOfUnity(2, 0),), ctx.one())


def test_no_tame_ramified_character_at_p2():
    ctx2 = Context(2, zeta_order=2)
    with pytest.raises(ValueError):
        SmoothCharacter(ctx2, 1, (), ctx2.u)


def test_spec_roundtrip(ctx):
    for spec in ("unram(value=a*r)", "ram(c=1, gens=[2->zeta2^1], pi=u)"):
        ch = parse_character_spec(ctx, spec)
        assert parse_character_spec(ctx, ch.render_spec()) == ch


def test_borel_character(ctx):
    mu = SmoothCharacter.unramified(ctx, ctx.a * ctx.r)
    beta = BorelCharacter(mu, mu.inverse(), half_delta=True)
    # delta^{1/2}(diag(pi,1)) = q^{-1/2} = 1/r, so the normalized value is a
    assert beta.eval(GroupElement.diag(3, 3, 1)) == ctx.a
    half = BorelCharacter(SmoothCharacter.unramified(ctx, ctx.one()), SmoothCharacter.unramified(ctx, ctx.one()))
    assert half.eval(GroupElement.diag(3, 3, 1)) == ctx.r.inverse()
    with pytest.raises(ValueError):
        beta.eval(GroupElement.lower(3, 1))


def test_borel_multiplicative(ctx):
    rng = random.Random(6)
    mu = SmoothCharacter.unramified(ctx, ctx.a * ctx.r)
    beta = BorelCharacter(mu, mu.inverse(), half_delta=True)
    for _ in range(40):
        b1 = GroupElement(3, Fraction(rng.choice([1, 2, 4, 5])) * 3 ** rng.randint(-2, 2), rng.randint(0, 8), 0, Fraction(rng.choice([1, 2, 4, 5])) * 3 ** rng.randint(-2, 2))
        b2 = GroupElement(3, Fraction(rng.choice([1, 2, 4, 5])) * 3 ** rng.randint(-2, 2), rng.randint(0, 8), 0, Fraction(rng.choice([1, 2, 4, 5])) * 3 ** rng.randint(-2, 2))
        assert beta.eval(b1 * b2) == beta.eval(b1) * beta.eval(b2)


def test_quotient_trivial_on_torus_units(ctx):
    """chi1/chi2 restricted to T cap K is identically 1 (both data unramified)."""
    rng = random.Random(7)
    mu1 = SmoothCharacter.unramified(ctx, ctx.a * ctx.r)
    mu2 = SmoothCharacter.unramified(ctx, ctx.b * ctx.r)
    quot = mu1 / mu2
    for _ in range(30):
        e1 = rng.choice([1, 2, 4, 5, 7, 8])
        e2 = rng.choice([1, 2, 4, 5, 7, 8])
        assert quot.eval(Fraction(e1, e2)).is_one()
