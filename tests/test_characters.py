import random
from fractions import Fraction
from math import lcm

import pytest

from triform import Context, TriformError
from triform.characters import (
    BorelCharacter,
    SmoothCharacter,
    _dlog_table,
    parse_character_spec,
    unit_group_generators,
)
from triform.matrices import GroupElement
from triform.padic import ratio_val, unit_residue
from triform.scalars import Scalar

from conftest import borel_diagonal, image_exponent


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
    assert mu.c == 0
    with pytest.raises(TriformError):
        mu.eval(0)
    with pytest.raises(TriformError):  # a character's value at pi is nonzero
        SmoothCharacter.unramified(ctx, 0)


def test_ramified_eval(ctx):
    mu3 = parse_character_spec(ctx, "ram(c=1, gens=[2->zeta2^1], pi=u)")
    assert mu3.c == 1
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
    assert (mu3 * mu3.inverse()).c == 0
    rng = random.Random(12)
    for ch in ramified_characters(5, 2, rng) + ramified_characters(2, 3, rng):  # images of order > 2
        assert ch * ch.inverse() == SmoothCharacter.unramified(ch.ctx, 1)
    # declaring a non-minimal conductor is rejected
    with pytest.raises(TriformError):
        SmoothCharacter(ctx, 2, (0,), ctx.one())


def test_no_tame_ramified_character_at_p2():
    ctx2 = Context(2, zeta_order=2)
    with pytest.raises(TriformError):
        SmoothCharacter(ctx2, 1, (), ctx2.u)


def test_spec_roundtrip(ctx):
    """parse(render(ch)) == ch, and a re-render is the same string, for config
    examples, random ramified characters at every (p, c) below with their
    products and inverses, and a p = 2, c = 3 character trivial on -1."""
    chars = [parse_character_spec(ctx, spec) for spec in ("unram(value=a*r)", "ram(c=1, gens=[2->zeta2^1], pi=u)")]
    rng = random.Random(11)
    for p, c in RAMIFIED_LEVELS:
        made = ramified_characters(p, c, rng, count=3)
        chars += made + [x * y for x in made for y in made] + [x.inverse() for x in made]
    ctx2 = Context(2, zeta_order=2)
    chars.append(SmoothCharacter(ctx2, 3, (0, 1), ctx2.u))
    for ch in chars:
        spec = ch.render_spec()
        back = parse_character_spec(ch.ctx, spec)
        assert back == ch, spec
        assert back.render_spec() == spec
    # images are rendered in lowest terms
    ctx4 = Context(3, zeta_order=4)
    assert parse_character_spec(ctx4, "ram(c=1, gens=[2->zeta4^2], pi=u)").render_spec() == "ram(c=1, gens=[2->zeta2^1], pi=u)"


def test_borel_character(ctx):
    mu = SmoothCharacter.unramified(ctx, ctx.a * ctx.r)
    beta = BorelCharacter(mu, mu.inverse())
    # delta^{1/2}(diag(pi,1)) = q^{-1/2} = 1/r, so the normalized value is a
    assert beta.eval((3, 1), (1, 1)) == ctx.a
    half = BorelCharacter(SmoothCharacter.unramified(ctx, ctx.one()), SmoothCharacter.unramified(ctx, ctx.one()))
    assert half.eval(*borel_diagonal(GroupElement.diag(3, 3, 1))) == ctx.r.inverse()


def test_borel_multiplicative(ctx):
    rng = random.Random(6)
    mu = SmoothCharacter.unramified(ctx, ctx.a * ctx.r)
    beta = BorelCharacter(mu, mu.inverse())
    for _ in range(40):
        b1 = GroupElement(3, Fraction(rng.choice([1, 2, 4, 5])) * 3 ** rng.randint(-2, 2), rng.randint(0, 8), 0, Fraction(rng.choice([1, 2, 4, 5])) * 3 ** rng.randint(-2, 2))
        b2 = GroupElement(3, Fraction(rng.choice([1, 2, 4, 5])) * 3 ** rng.randint(-2, 2), rng.randint(0, 8), 0, Fraction(rng.choice([1, 2, 4, 5])) * 3 ** rng.randint(-2, 2))
        assert beta.eval(*borel_diagonal(b1 * b2)) == beta.eval(*borel_diagonal(b1)) * beta.eval(*borel_diagonal(b2))


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


# ---------------------------------------------------------------------------
# exponent tables and value memos against the generator images
# ---------------------------------------------------------------------------


RAMIFIED_LEVELS = [(2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)]


def ramified_characters(p: int, c: int, rng: random.Random, count: int = 4):
    """Characters of conductor exponent c over Q(zeta_M), M the lcm of the
    generator orders, with random generator images (non-minimal ones skipped)."""
    gens = unit_group_generators(p, c)
    ctx = Context(p, zeta_order=lcm(*(order for _, order in gens)))
    m = ctx.field.m
    out = []
    while len(out) < count:
        images = tuple(rng.randrange(order) * (m // order) for _, order in gens)
        try:
            out.append(SmoothCharacter(ctx, c, images, ctx.u))
        except TriformError:
            continue
    return out


@pytest.mark.parametrize("p,c", RAMIFIED_LEVELS)
def test_exponent_table_matches_images(p, c):
    rng = random.Random(10 * p + c)
    for ch in ramified_characters(p, c, rng):
        for residue in _dlog_table(p, c):
            want = image_exponent(ch, residue)
            assert ch.unit_exponent(residue) == want
            assert ch.unit_exponent(residue + p**c * rng.randint(1, 50)) == want
            assert ch.unit_exponent(residue - p**c * rng.randint(1, 50)) == want


def reference_eval(ch: SmoothCharacter, x: Fraction) -> Scalar:
    """chi(x) uncached: value_at_pi^v times the unit image as a fresh Scalar."""
    p, n, d = ch.ctx.p, x.numerator, x.denominator
    v = ratio_val(n, d, p)
    unit = ch.ctx.zeta_powers[image_exponent(ch, unit_residue(n, d, p, max(1, ch.c)))]
    return ch.value_at_pi**v * unit


def random_nonzero(p: int, rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 400), rng.randint(1, 400)) * Fraction(p) ** rng.randint(-3, 3)


@pytest.mark.parametrize("p,c", RAMIFIED_LEVELS)
def test_values_match_uncached_reference(p, c):
    rng = random.Random(100 * p + c)
    chars = ramified_characters(p, c, rng, count=2)
    ctx = chars[0].ctx
    chars.append(SmoothCharacter.unramified(ctx, ctx.a * ctx.r))
    for ch in chars:
        for _ in range(60):
            x = random_nonzero(p, rng)
            assert ch.eval(x) == reference_eval(ch, x)
            # same (valuation, residue mod p^c), different beyond p^c: the same value
            v = ratio_val(x.numerator, x.denominator, p)
            twin = x + Fraction(p) ** (v + max(1, c)) * rng.randint(1, 30)
            if twin:
                assert ch.eval(twin) == ch.eval(x)
            # same residue, other valuation: the memo key must separate them
            assert ch.eval(x * p) == reference_eval(ch, x * p)
        for chi_d in chars:
            beta = BorelCharacter(ch, chi_d)
            for _ in range(30):
                x, t = random_nonzero(p, rng), random_nonzero(p, rng)
                b = GroupElement(p, x, Fraction(rng.randint(-9, 9), rng.randint(1, 9)), 0, t)
                vx, vt = ratio_val(x.numerator, x.denominator, p), ratio_val(t.numerator, t.denominator, p)
                want = reference_eval(ch, x) * reference_eval(chi_d, t) * ctx.q_power_half(vt - vx)
                assert beta.eval(*borel_diagonal(b)) == want
