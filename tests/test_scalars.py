"""Field axioms, canonicalization and the regularization primitive, mostly as
hypothesis properties over randomly built scalars."""

import cmath
import re
from collections import Counter
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from triform import Context, PoleError, TriformError
from triform.cyclo import Cyclo, cyclotomic_polynomial
from triform.scalars import Poly, Scalar, parse_scalar, sum_products

from conftest import reference_sum_products

ctx = Context(3, zeta_order=2)
ctx4 = Context(5, zeta_order=4)
ctx6 = Context(3, zeta_order=6)  # Q(zeta6)(r) with r^2 = 3 is a field: sqrt 3 is not in Q(sqrt -3)


def scalars(c=ctx, max_terms=3):
    atoms = [c.a, c.b, c.u, c.r, c.one(), c.scalar(2), c.scalar(Fraction(-1, 2))]
    if c.field.m > 2:
        atoms.append(c.scalar(c.zeta(c.field.m)))
    atoms = st.sampled_from(atoms)

    def build(parts):
        out = c.zero()
        for coeff, factors in parts:
            term = c.scalar(coeff)
            for f in factors:
                term = term * f
            out = out + term
        return out

    return st.builds(
        build,
        st.lists(st.tuples(st.integers(-4, 4), st.lists(atoms, max_size=3)), min_size=1, max_size=max_terms),
    )


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    assert x + y == y + x


@settings(max_examples=40, deadline=None)
@given(scalars(), scalars())
def test_subtraction_and_zero(x, y):
    assert (x - y) + y == x
    assert (x - x).is_zero()
    assert (x * ctx.zero()).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([ctx, ctx6]).flatmap(lambda c: st.tuples(scalars(c), scalars(c))))
def test_division(xy):
    x, y = xy
    if y.is_zero():
        with pytest.raises(TriformError, match="division by the zero Scalar"):
            x / y
    else:
        assert (x / y) * y == x


def test_defining_relation():
    assert ctx.r * ctx.r == ctx.scalar(3)
    assert ctx4.r * ctx4.r == ctx4.scalar(5)
    # no stored polynomial carries r^2, nor zeta^k with k >= phi(M)
    s = (1 + ctx.r) ** 5
    assert all(mo[3] <= 1 for mo in s.num.terms)
    for c, phi in ((ctx4, 2), (ctx6, 2), (Context(2, zeta_order=5), 4), (Context(5, zeta_order=12), 4)):
        z = c.scalar(c.zeta(c.field.m))
        s = (1 + c.r * z + c.a * z**3) ** 4 / (c.b - z) + z ** (c.field.m - 1)
        assert all(mo[3] <= 1 and mo[4] < phi for poly in (s.num, *s.den) for mo in poly.terms)


@pytest.mark.parametrize(
    "p, m, root",
    [(5, 20, "zeta5 + zeta5^4 - zeta5^2 - zeta5^3"), (3, 12, "-zeta4*(zeta3 - zeta3^2)"), (2, 8, "zeta8 + zeta8^7")],
)
def test_r_is_the_positive_root_where_zeta_m_holds_sqrt_q(p, m, root):
    """Where Q(zeta_M) holds sqrt(q), a formal r would make (r - s)(r + s) = 0
    with neither factor zero; r is that s instead, and the ring stays a field."""
    c = Context(p, zeta_order=m)
    s = c.scalar(root)
    assert c.r * c.r == c.scalar(p)
    assert (c.r - s).is_zero()
    assert ((c.r + s) * (c.r + s).inverse()).is_one()
    assert abs(sum(co * cmath.exp(2j * cmath.pi * mo[4] / m) for mo, co in c.r.num.coefficients()) - p**0.5) < 1e-9


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("m", [2, 4, 6])
def test_r_stays_formal_where_zeta_m_lacks_sqrt_q(p, m):
    c = Context(p, zeta_order=m)
    assert c.r.num.terms == {(0, 0, 0, 1, 0): 1}


def test_field_identities():
    a, b = ctx.a, ctx.b
    assert (a**2 / a**2).is_one()
    assert ((a * b) - (b * a)).is_zero()
    x = (a * a - 1) * (b * b - 1)
    assert x.specialize({"a": 1}).is_zero()
    assert not (a**5 / x).is_zero()


def test_canonicalization_idempotent():
    a, b, u, r = ctx.a, ctx.b, ctx.u, ctx.r
    s = (a * a * b - 1) / ((a - 1) * (b + 2)) + r * u / (1 - a * b)
    t = s + ctx.zero()  # rebuilt through the constructor
    assert t.num == s.num and t.den == s.den
    again = (t * ctx.one()) + ctx.zero()
    assert again.num == s.num and again.den == s.den


def test_geometric_tail():
    half = ctx.scalar(Fraction(1, 2))
    assert half.geometric_tail(0) == ctx.scalar(2)
    x = ctx.a * ctx.u
    t = x.geometric_tail(3)
    assert t == x**3 / (1 - x)
    assert t * (1 - x) == x**3
    assert x.geometric_tail(3) is t  # memoized per object, as powers are
    one = ctx.one()
    for _ in range(2):  # a pole stores nothing: it raises every time
        with pytest.raises(PoleError):
            one.geometric_tail(0)


@settings(max_examples=30, deadline=None)
@given(scalars(), st.integers(-3, 5))
def test_geometric_tail_property(x, k0):
    if x == ctx.one() or x.is_zero():
        return
    assert x.geometric_tail(k0) * (1 - x) == x**k0


@settings(max_examples=30, deadline=None)
@given(scalars(), scalars(), st.integers(2, 9), st.integers(2, 9), st.integers(2, 9))
def test_specialize_is_a_homomorphism(x, y, va, vb, vu):
    asg = {"a": va, "b": vb, "u": vu}
    try:
        lhs = (x * y).specialize(asg)
        rhs = x.specialize(asg) * y.specialize(asg)
        lhs2 = (x + y).specialize(asg)
        rhs2 = x.specialize(asg) + y.specialize(asg)
    except PoleError:
        return
    assert lhs == rhs and lhs2 == rhs2


def test_specialize_pole():
    s = 1 / (ctx.a - 1)
    with pytest.raises(PoleError):
        s.specialize({"a": 1})
    assert (ctx.a * ctx.b).specialize({"a": 2, "b": 3}) == ctx.scalar(6)

@settings(max_examples=40, deadline=None)
@given(st.sampled_from((ctx, ctx4)).flatmap(lambda c: scalars(c, max_terms=2)), st.booleans())
def test_powers_are_repeated_products(x, negate):
    """x**k, memoized per object, is the repeated product (of 1/x when k < 0)
    for k in [-6, 6], on symbolic, zeta and negated Scalars."""
    if negate:
        x = -x
    for k in range(-6, 7):
        if k < 0 and x.is_zero():
            continue
        want = Scalar.from_rational(x.field, 1)
        for _ in range(abs(k)):
            want = want * x if k > 0 else want / x
        assert x**k == want and x**k is x**k, k


def test_zero_has_no_negative_power():
    """A failed inverse is not memoized: zero**-1 raises every time."""
    for c in (ctx, ctx4):
        for z in (c.zero(), -c.zero(), c.a - c.a):
            for k in (-1, -1, -3, -1):
                with pytest.raises(TriformError, match="division by the zero Scalar"):
                    z**k
            assert (z**2).is_zero()



@settings(max_examples=40, deadline=None)
@given(scalars())
def test_render_parse_roundtrip(x):
    assert parse_scalar(ctx.field, x.render()) == x


def test_render_grammar_example():
    s = parse_scalar(ctx.field, "(a^2*b - zeta2)/((a^2-1)*(b^2-1)) + r*(u/(1-a*b))")
    assert not s.is_zero()
    assert parse_scalar(ctx.field, s.render()) == s


@pytest.mark.parametrize(
    "text", ["", "a+", "(a", "a^", "2/", "zeta", "zeta0", "2²", pytest.param("(" * 400 + "u" + ")" * 400, id="400-deep")]
)
def test_malformed_literal_is_a_scalar_error(text):
    with pytest.raises(TriformError):
        parse_scalar(ctx.field, text)


def test_flat_sum_parses():
    """Only nesting recurses: a flat 3,000-term sum parses."""
    assert parse_scalar(ctx.field, "+".join(["a"] * 3000)) == 3000 * ctx.a


def test_cyclotomic_field():
    assert cyclotomic_polynomial(4) == (Fraction(1), Fraction(0), Fraction(1))
    assert cyclotomic_polynomial(8)[0] == 1
    i = Cyclo(4, (0, 1))
    assert i * i == Cyclo(4, (-1, 0))
    assert i * i.inverse() == Cyclo(4, (1, 0))
    ctx8 = Context(2, zeta_order=8)
    z8 = ctx8.zeta(8)
    assert z8 * z8 == ctx8.zeta(4)
    assert (z8**8).is_one()
    with pytest.raises(TriformError, match="zeta_8 not available"):
        ctx4.zeta(8)


def test_zeta_in_scalars():
    z = ctx4.zeta(4, 1)
    s = ctx4.scalar(z)
    assert s * s == ctx4.scalar(-1)
    assert (s**4).is_one()


CYCLO_ORDERS = [3, 5, 6, 8, 12]  # Phi_M is not a binomial: zeta^k reduces to several terms


def _cyclo_of(c, s) -> Cyclo:
    """The power-basis coordinates of a constant Scalar."""
    assert not s.den and all(mo[:4] == (0, 0, 0, 0) for mo in s.num.terms)
    deg = len(cyclotomic_polynomial(c.field.m)) - 1
    return Cyclo(c.field.m, [dict(s.num.coefficients()).get((0, 0, 0, 0, k), 0) for k in range(deg)])


@pytest.mark.parametrize("m", CYCLO_ORDERS)
def test_zeta_identities(m):
    """zeta_M^M = 1, Phi_M(zeta_M) = 0, and every power of zeta agrees with the
    dense reference."""
    c = Context(3, zeta_order=m)
    z = c.scalar(c.zeta(m))
    assert (z**m).is_one()
    assert not any((z**k).is_one() for k in range(1, m))
    phi_at_z = c.zero()
    for k, coeff in enumerate(cyclotomic_polynomial(m)):
        phi_at_z = phi_at_z + coeff * z**k
    assert phi_at_z.is_zero()
    ref = Cyclo(m, [1])
    for k in range(2 * m):
        assert _cyclo_of(c, z**k) == ref
        assert _cyclo_of(c, c.scalar(c.zeta(m, k))) == ref
        ref = ref * Cyclo(m, [0, 1])


def _coords(m):
    deg = len(cyclotomic_polynomial(m)) - 1
    return st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=deg, max_size=deg)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CYCLO_ORDERS).flatmap(lambda m: st.tuples(st.just(m), _coords(m), _coords(m))))
def test_constant_products_and_inverses_match_cyclo(case):
    """Constant Q(zeta_M) products and inverses, computed as Scalars, agree with
    the dense reference."""
    m, xs, ys = case
    c = Context(3, zeta_order=m)
    x, y = (sum((co * c.scalar(c.zeta(m, k)) for k, co in enumerate(v)), c.zero()) for v in (xs, ys))
    X, Y = Cyclo(m, xs), Cyclo(m, ys)
    assert _cyclo_of(c, x) == X
    assert _cyclo_of(c, x * y) == X * Y
    if not X.is_zero():
        assert _cyclo_of(c, x.inverse()) == X.inverse()
        assert _cyclo_of(c, y / x) == Y * X.inverse()


def test_symbolic_division_over_zeta6():
    a, b, u, r = ctx6.a, ctx6.b, ctx6.u, ctx6.r
    z = ctx6.scalar(ctx6.zeta(6))
    x = (a * z + r) / (1 - b * z**2) + u * r * z
    y = a * b * r - z + (u + z) / (a - r * z)
    q = x / y
    assert q * y == x
    assert not q.is_zero() and q != x
    assert all(not (mo[3] or mo[4]) for f in q.den for mo in f.terms)


# -- Poly.divexact: exact quotients, refusals and the monomial shortcut ------

def polys(c, divisor=False, max_terms=4, min_terms=0):
    """Polys over c's field; exponents stay small, r appears at most linearly and
    zeta below deg Phi_M.  A divisor is free of r and zeta, as denominators are."""
    dz = len(cyclotomic_polynomial(c.field.m)) - 1
    r, z = (st.just(0), st.just(0)) if divisor else (st.integers(0, 1), st.integers(0, dz - 1))
    mono = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1), r, z)
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.dictionaries(mono, coeffs, min_size=min_terms, max_size=max_terms).map(lambda terms: Poly(c.field, terms))


nonzero_divisors = st.sampled_from([ctx, ctx4, ctx6]).flatmap(
    lambda c: st.tuples(polys(c), polys(c, divisor=True, max_terms=3, min_terms=1).filter(lambda f: not f.is_zero()))
)


@settings(max_examples=80, deadline=None)
@given(nonzero_divisors)
def test_divexact_recovers_the_cofactor(gf):
    g, f = gf
    assert (g * f).divexact(f) == g


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([ctx, ctx4, ctx6]).flatmap(lambda c: st.tuples(polys(c, max_terms=5), polys(c, divisor=True, max_terms=2, min_terms=1))))
def test_divexact_result_is_exact(nf):
    num, f = nf
    if f.is_zero():
        return
    q = num.divexact(f)
    if q is not None:
        assert q * f == num


@settings(max_examples=60, deadline=None)
@given(nonzero_divisors, st.sampled_from([1, -2, Fraction(1, 3)]))
def test_divexact_refuses_a_non_divisor(gf, c):
    g, f = gf
    if f.is_constant():
        return
    # f does not divide g*f + c: it would divide the nonzero constant c
    assert (g * f + Poly.const(f.field, c)).divexact(f) is None


def test_divexact_cases():
    F, F4 = ctx.field, ctx4.field
    a, b, u, r = (Poly.var(F, v) for v in "abur")
    two = Poly.const(F, 2)
    # a numerator with r over a non-monic divisor
    f = two * a - b
    g = a * r + u * u - r * b
    assert (g * f).divexact(f) == g
    # a quotient step that lands on monomials the remainder does not hold yet
    assert (a * a - b * b).divexact(a - b) == a + b
    assert (a * a * a - b * b * b).divexact(a - b) == a * a + a * b + b * b
    # a monomial divisor, and a numerator it does not divide
    m = Poly.const(F, 3) * a * a * b
    assert (g * m).divexact(m) == g
    assert (g * m + b).divexact(m) is None
    # the failing shape from the benchmark: -3/2*a^2 + 3/2*a*b by a - 2*b
    num = Poly.const(F, Fraction(-3, 2)) * a * a + Poly.const(F, Fraction(3, 2)) * a * b
    assert num.divexact(a - two * b) is None
    assert num.divexact(a - b) == Poly.const(F, Fraction(-3, 2)) * a
    # the first quotient coefficient, 3/2, is not an int; taking its floor 1 would leave no remainder
    assert (Poly.const(F, 3) * a + b).divexact(two * a + b) is None
    # zeta in the numerator and the quotient, over a non-monic divisor
    z = Poly.zeta_sum(F4, {1: 1})
    a4, b4, r4 = (Poly.var(F4, v) for v in "abr")
    f4 = Poly.const(F4, 2) * a4 * a4 - b4
    g4 = a4 * r4 * z + z + b4
    assert (g4 * f4).divexact(f4) == g4
    assert (g4 * f4 + r4 * z).divexact(f4) is None
    # divisors are free of r and zeta
    with pytest.raises(AssertionError):
        g.divexact(a + r)
    with pytest.raises(AssertionError):
        g4.divexact(z * a4 + Poly.const(F4, 1))
    with pytest.raises(TriformError, match="zero Poly"):
        g.divexact(Poly.zero(F))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([ctx, ctx4, ctx6]).flatmap(lambda c: st.tuples(polys(c), polys(c), polys(c))))
def test_poly_normal_form(xyz):
    """A Poly is int coefficients over one denominator d > 0 with gcd(d,
    coefficients) = 1, so equal polynomials reached by different routes (a sum
    against a product) have equal fields and hashes."""
    x, y, z = xyz
    lhs, rhs = x * (y + z), x * y + x * z
    doubles = (x + x, x * Poly.const(x.field, 2), x.scale(2))
    for p in (x, y, lhs, rhs, -x, x - y, x.scale(Fraction(2, 3)), *doubles):
        assert p.den > 0 and gcd(p.den, *p.terms.values()) == 1
        assert all(type(c) is int and c for c in p.terms.values())
        assert Poly(p.field, dict(p.coefficients())) == p
    for u, v in ((lhs, rhs), doubles[:2], doubles[::2]):
        assert (u.terms, u.den, hash(u)) == (v.terms, v.den, hash(v))


def test_shift_down():
    a, b, r = (Poly.var(ctx.field, v) for v in "abr")
    p = a * a * b + a * b * r
    assert p.shift_down((1, 1, 0, 0, 0)) == a + r
    assert p.shift_down((1, 1, 0, 0, 0)) * a * b == p


@settings(max_examples=60, deadline=None)
@given(scalars(), st.sampled_from([ctx.a, ctx.b * ctx.r, ctx.scalar(Fraction(-2, 3)), ctx.a * ctx.a * ctx.u]))
def test_monomial_product_skips_no_cancellation(x, m):
    """Multiplying by a monomial takes a shortcut past trial division; it must
    land on the canonical form the full cancellation gives."""
    y = x / (1 - ctx.a * ctx.b) / (ctx.a - 2 * ctx.u)
    for s in (x, y, y.inverse() if not y.is_zero() else y):
        got = s * m
        full = Scalar(ctx.field, s.num * m.num, s.den + m.den)
        assert got.num == full.num and got.den == full.den
        assert (m * s).num == full.num and (m * s).den == full.den


def quotients(c):
    """Scalars over denominators with repeated, monomial and shared factors."""
    dens = [c.one(), c.a - 1, (c.a - 1) ** 2, c.a, c.a * c.b * c.b, c.a + c.b, c.b * c.b - 1, (c.u - 2) * (c.a - 1)]
    return st.one_of(st.just(c.zero()), st.builds(lambda x, d: x / d, scalars(c, max_terms=2), st.sampled_from(dens)))


def sum_factors(c):
    """quotients, and the constants the classification and reduction see:
    zero, one, r, zeta and rationals over a denominator, such as 3/7 zeta."""
    z = c.scalar(c.zeta(c.field.m))
    third = c.scalar(Fraction(3, 7))
    return st.one_of(quotients(c), st.sampled_from([c.zero(), c.one(), c.r, z, third * z, third, -c.r / 5, z * c.r]))


# one group whose second item's numerator is over 7 and its first's over 1
RESCALED = (ctx4, [([ctx4.a, ctx4.r], 0, 1), ([ctx4.scalar(Fraction(3, 7)), ctx4.scalar(ctx4.zeta(4))], 0, 1)], 1)


def left_fold(c, items, den=1):
    out = c.zero()
    for factors, e, n in items:
        term = c.scalar(Fraction(n, den)) * c.zeta(c.field.m, e)
        for f in factors:
            term = term * f
        out = out + term
    return out


def sum_items(c, max_factors, max_items):
    """(c, items, den): items (factors, e, n) with e in [0, 2M), so e >= M occurs,
    and n in 1 ... 3, over an int den; e = 0, n = 1 and den = 1 are drawn often."""
    item = st.tuples(
        st.lists(sum_factors(c), max_size=max_factors),
        st.one_of(st.just(0), st.integers(0, 2 * c.field.m - 1)),
        st.one_of(st.just(1), st.integers(1, 3)),
    )
    return st.tuples(st.just(c), st.lists(item, max_size=max_items), st.sampled_from((1, 1, 2, 6)))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([ctx, ctx4, ctx6]).flatmap(lambda c: sum_items(c, 4, 6)))
@example(RESCALED)
def test_sum_products_is_the_left_fold(case):
    """The deferred sum is the fold of + and * over the items, each factor
    tuple times n zeta^e / den; a tuple may be empty, hold zero factors,
    multiply r and zeta past reduction, or put numerators over different int
    denominators in one group."""
    c, items, den = case
    got = sum_products(c.field, ((tuple(fs), e, n) for fs, e, n in items), den)
    assert got == left_fold(c, items, den)
    assert got.den == tuple(sorted(got.den, key=Poly.den_key))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([ctx, ctx4, ctx6]).flatmap(lambda c: sum_items(c, 6, 8)))
@example(RESCALED)
def test_sum_products_canonical_form_does_not_depend_on_the_path(case):
    """The fused accumulate gives the very canonical form, numerator Poly and
    factor tuple, that one product Poly per item gave, also where a group's
    items all carry one Scalar and skip the trial divisions."""
    c, items, den = case
    got = sum_products(c.field, ((tuple(fs), e, n) for fs, e, n in items), den)
    ref = reference_sum_products(c.field, items, den)
    assert got.num == ref.num and got.den == ref.den


def test_sum_products_cases():
    a, b, r = ctx.a, ctx.b, ctx.r

    def plain(products):
        return [(fs, 0, 1) for fs in products]

    z = ctx4.scalar(ctx4.zeta(4))
    assert sum_products(ctx.field, []).is_zero()
    assert sum_products(ctx.field, plain([()])).is_one()
    assert sum_products(ctx.field, plain([(a, ctx.zero(), b)])).is_zero()
    assert sum_products(ctx.field, plain([(r, r), (r, a, r)])) == 3 + 3 * a
    assert sum_products(ctx4.field, plain([(z, z, z, z)])).is_one()
    assert sum_products(ctx4.field, plain([(z, ctx4.r), (z * ctx4.r, z, z)])).is_zero()
    # one group whose numerator the shared denominator divides
    one = sum_products(ctx.field, plain([(1 / (a - 1), a), (-1 / (a - 1),)]))
    assert one.is_one() and one.den == ()
    # repeated and monomial factors, in one group and across groups
    rep = sum_products(ctx.field, plain([(1 / (a - 1), 1 / (a - 1)), (a / (a - 1) ** 2,), (b / a, 1 / a), (1 / (a * a),)]))
    assert rep == (1 + a) / (a - 1) ** 2 + (b + 1) / (a * a)
    # a group whose items all carry one Scalar x skips the trial divisions, and lands
    # on x times 2 zeta + 3 zeta^3 + zeta^6 = -1 - zeta canonicalized with them
    a4, b4 = ctx4.a, ctx4.b
    x = (a4 * a4 - b4) / ((a4 - 1) * (a4 + b4))
    lone = sum_products(ctx4.field, [((x,), 1, 2), ((x,), 3, 3), ((x,), 6, 1)])
    full = Scalar(ctx4.field, x.num * (-1 - z).num, x.den)
    assert lone.num == full.num and lone.den == full.den
    # a group of one item with e != 0 is n zeta^e / den times its product
    assert sum_products(ctx4.field, [((a4, 1 / (b4 - 1)), 3, 2)], 6) == a4 * z**3 / (3 * (b4 - 1))
    assert sum_products(ctx4.field, [((x,), 5, 1)]) == x * z


# canonical forms, factor order included, that must not move: the eight over Q
# were rendered before the in-place division, the two over Q(zeta4) when zeta
# became a polynomial exponent
z4 = ctx4.scalar(ctx4.zeta(4))
GOLDEN_RENDERS = [
    (lambda a, b, u, r: 1 / (1 - a * a) / (1 - b * b), "(1)/((b^2 - 1)*(a^2 - 1))"),
    (lambda a, b, u, r: a * b / (a - 2 * b) / (2 * a - b), "(1/2*a*b)/((a - 1/2*b)*(a - 2*b))"),
    (
        lambda a, b, u, r: (a * r).geometric_tail(2) * (b * r).geometric_tail(1),
        "(a^3*b^2*r + a^3*b + a^2*b^2 + 1/3*a^2*b*r)/((b^2 - 1/3)*(a^2 - 1/3))",
    ),
    (lambda a, b, u, r: (r * a + b) / (a * a * b * (1 - a * b)), "(-a*r - b)/((a*b - 1)*(a^2*b))"),
    (
        lambda a, b, u, r: (a / 3).geometric_tail(1) + (b / 3).geometric_tail(2) + (a * b / 9).geometric_tail(0),
        "(-1/3*a^2*b^3 - a^2*b^2 + a*b^3 + 3*a^2*b + 3*a*b^2 - 9*b^2 + 27*b - 81)/((b - 3)*(a - 3)*(a*b - 9))",
    ),
    (lambda a, b, u, r: 1 / (1 + a * r) / (b - u), "(1/3*a*r - 1/3)/((b - u)*(a^2 - 1/3))"),
    (lambda a, b, u, r: (u * u - 1) / (u - a) / (u - b) / (1 - a * b * u), "(-u^2 + 1)/((b - u)*(a - u)*(a*b*u - 1))"),
    (
        lambda a, b, u, r: (1 - a * a) * (1 - b) / (1 + a) / (1 - b * b) / (a - 3 * b),
        "(-a*b + a + b - 1)/((b^2 - 1)*(a - 3*b))",
    ),
    (lambda a, b, u, r: (z4 * a + 1) / (a - z4) / (b + 1) / (u * u + 1), "(zeta4)/((u^2 + 1)*(b + 1))"),
    (
        lambda a, b, u, r: (z4 * a * r).geometric_tail(1) / (1 - b * b) + Fraction(1, 5) / (1 - u),
        "(-1/5*a^2*b^2 - 1/5*a*u*r*zeta4 + a^2*u + 1/5*a*r*zeta4 - 4/5*a^2 - 1/25*b^2 + 1/25)"
        "/((u - 1)*(b^2 - 1)*(a^2 + 1/5))",
    ),
]


@pytest.mark.parametrize("build,text", GOLDEN_RENDERS)
def test_golden_renders(build, text):
    c = ctx4 if "zeta4" in text else ctx
    s = build(c.a, c.b, c.u, c.r)
    assert s.render() == text
    assert parse_scalar(c.field, text) == s
    assert parse_scalar(c.field, text).render() == text


# -- Laurent numerators: the form before them is kept as the oracle -----------

def reference_canonicalize(field, num, den, trial=True):
    """_canonicalize as it was before Laurent numerators, kept as their oracle:
    monomial content is split off each factor and cancelled against the
    numerator's, what is left stays a monomial den factor, and every factor is
    tried against the numerator as it stands."""
    if num.is_zero():
        return Poly.zero(field), ()

    def content(poly):
        return tuple(map(min, zip(*poly.terms)))

    out, den_mono = [], (0, 0, 0, 0, 0)
    for f in den:
        if f._canonical:
            out.append(f)
            continue
        mono = content(f)
        if any(mono):
            f = f.shift_down(mono)
            den_mono = tuple(x + y for x, y in zip(den_mono, mono))
        _, lc = f.leading()
        if lc != f.den:
            inv = Fraction(f.den, lc)
            f, num = f.scale(inv), num.scale(inv)
        if not f.is_constant():
            f._canonical = True
            out.append(f)
    if any(den_mono):
        common = tuple(min(x, y) for x, y in zip(content(num), den_mono))
        left = tuple(x - y for x, y in zip(den_mono, common))
        if any(common):
            num = num.shift_down(common)
        if any(left):
            out.append(Poly._raw(field, {left: 1}))
    changed = trial
    while changed and out:
        changed = False
        if num.is_constant():
            break
        nlead, ntrail, n_terms = num.leading()[0], num.trailing_monomial(), len(num.terms)
        for i, f in enumerate(out):
            if n_terms == 1 and len(f.terms) > 1:
                continue
            flead, ftrail = f.leading()[0], f.trailing_monomial()
            if any(n < e for n, e in zip(nlead[:3], flead[:3])) or any(n < e for n, e in zip(ntrail[:3], ftrail[:3])):
                continue
            q = num.divexact(f)
            if q is not None:
                num, changed = q, True
                out.pop(i)
                break
    return num, tuple(sorted(out, key=Poly.den_key))


def polynomial_form(x):
    """A Laurent Scalar as the (numerator, factors) pair of the form before:
    the numerator times the monomial that clears its negative exponents, which
    joins the factors in den_key order."""
    low = [min([0, *(mo[i] for mo in x.num.terms)]) for i in range(3)]
    if not any(low):
        return x.num, x.den
    mono = (*(-e for e in low), 0, 0)
    return x.num * Poly._raw(x.field, {mono: 1}), tuple(sorted((*x.den, Poly._raw(x.field, {mono: 1})), key=Poly.den_key))


def reference_render(form):
    num, den = form
    return num.render() if not den else "(%s)/(%s)" % (num.render(), "*".join("(%s)" % f.render() for f in den))


def is_one(form):
    num, den = form
    return not den and num.terms == {(0, 0, 0, 0, 0): 1} and num.den == 1


def reference_mul(field, x, y):
    if x[0].is_zero() or is_one(y):
        return x
    if y[0].is_zero() or is_one(x):
        return y
    monomial = any(not den and len(num.terms) == 1 for num, den in (x, y))
    return reference_canonicalize(field, x[0] * y[0], x[1] + y[1], trial=not monomial)


def reference_add(field, x, y):
    if x[0].is_zero():
        return y
    if y[0].is_zero():
        return x
    if x[1] == y[1]:
        return reference_canonicalize(field, x[0] + y[0], x[1])
    poly = {f.den_key(): f for f in (*x[1], *y[1])}
    mine, theirs = Counter(map(Poly.den_key, x[1])), Counter(map(Poly.den_key, y[1]))
    common = mine | theirs
    one = Poly.const(field, 1)
    num = x[0] * prod(map(poly.get, (common - mine).elements()), start=one)
    num = num + y[0] * prod(map(poly.get, (common - theirs).elements()), start=one)
    return reference_canonicalize(field, num, tuple(map(poly.get, common.elements())))


def reference_inverse(field, x):
    num, norm, m = prod(x[1], start=Poly.const(field, 1)), x[0], field.m
    if norm.has_zeta():
        for k in range(2, m):
            if gcd(k, m) == 1:
                conj = x[0].galois(1, k)
                num, norm = num * conj, norm * conj
    if norm.has_r():
        conj = norm.galois(-1, 1)
        num, norm = num * conj, norm * conj
    return reference_canonicalize(field, num, (norm,))


def reference_pow(field, x, k):
    if k == 1:
        return x
    if k < 0:
        return reference_pow(field, reference_inverse(field, x), -k)
    out, e = (Poly.const(field, 1), ()), k
    while e:
        if e & 1:
            out = reference_mul(field, out, x)
        x = reference_mul(field, x, x) if e > 1 else x
        e >>= 1
    return out


def laurent(c):
    """Scalars whose numerators carry negative exponents of a, b and u, over
    zero, one or two non-monomial factors."""
    units = [c.b / c.a, c.r / (2 * c.a), c.u**-2, (c.a - 2 * c.b) / c.a**3, c.a * c.u / c.b**2, c.one()]
    dens = [c.one(), c.a - 1, 1 - c.a * c.b, (c.a - 2 * c.b) * (c.u + 1)]
    return st.builds(lambda x, m, d: x * m / d, scalars(c, max_terms=2), st.sampled_from(units), st.sampled_from(dens))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([ctx, ctx4, ctx6]).flatmap(lambda c: st.tuples(laurent(c), laurent(c), st.integers(-3, 3))))
def test_laurent_numerators_match_the_polynomial_form(case):
    """Products, quotients, sums, powers and inverses of Laurent Scalars render
    as the polynomial quotients of the form before render, equal them, and
    move to the very Laurent form when their monomial factor is moved back."""
    x, y, k = case
    F = x.field
    X, Y = polynomial_form(x), polynomial_form(y)
    cases = [(x * y, reference_mul(F, X, Y)), (x + y, reference_add(F, X, Y)), (x - y, reference_add(F, X, (-Y[0], Y[1])))]
    if k >= 0 or not x.is_zero():
        cases.append((x**k, reference_pow(F, X, k)))
    if not y.is_zero():
        cases += [(y.inverse(), reference_inverse(F, Y)), (x / y, reference_mul(F, X, reference_inverse(F, Y)))]
    for got, want in cases:
        assert got.render() == reference_render(want)
        assert got == Scalar(F, *want)
        assert polynomial_form(got) == want
        assert not any(len(f.terms) == 1 for f in got.den)


def test_no_monomial_denominator_factor_in_a_run(monkeypatch):
    """Every Scalar made in a (2,1) `all` run keeps its monomials in the
    numerator: each den factor has two terms or more and no monomial content."""
    from triform import scalars
    from triform.verifier import ScenarioConfig, run_scenario

    seen, laurent_nums = [0], [0]
    canonicalize = scalars._canonicalize

    def checked(field, num, den, trial=True):
        num, den = canonicalize(field, num, den, trial)
        for f in den:
            assert len(f.terms) > 1 and not any(min(mo[i] for mo in f.terms) for i in range(3)), f.render()
        seen[0] += 1
        laurent_nums[0] += any(e < 0 for mo in num.terms for e in mo[:3])
        return num, den

    monkeypatch.setattr(scalars, "_canonicalize", checked)
    run_scenario(ScenarioConfig(p=2, n=1, scenario="all", seed=3))
    assert seen[0] > 1000 and laurent_nums[0] > 100, (seen, laurent_nums)


@pytest.mark.parametrize(
    "build, assignment, factor",
    [(lambda a, b: b / a, {"a": 0}, "a"), (lambda a, b: 1 / (a**2 * b), {"b": 0}, "a^2*b"), (lambda a, b: (a - 1) / (a * b * (a - 2)), {"a": 2}, "a - 2")],
)
def test_specialize_names_the_polynomial_factor(build, assignment, factor):
    """A variable set to 0 where the numerator holds a negative power of it is
    a pole named by the monomial factor the Scalar renders with, never a
    ZeroDivisionError; the first vanishing factor in render order is named."""
    with pytest.raises(PoleError, match=r"^specialization pole: denominator factor \(%s\) vanishes$" % re.escape(factor)):
        build(ctx.a, ctx.b).specialize(assignment)
