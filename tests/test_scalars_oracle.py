"""Differential test of the Scalar kernel against sympy as an independent oracle.

Random expression trees in a, b, u, r (and zeta4) with sums, products,
inverses and geometric tails are evaluated twice: as Scalars, and in sympy's
sparse field Q(a, b, u, r, z), in which r and z (for zeta4) are plain symbols.
Q[r, z]/(r^2 - q, z^2 + 1) is a field for the q used here, so (r^2 - q,
z^2 + 1) is the kernel of r -> sqrt(q), z -> zeta4, and a sympy value is zero
in Q(zeta_M)(a, b, u)[r]/(r^2 - q) exactly when its numerator over a nonzero
denominator reduces to 0 modulo r^2 - q and z^2 + 1.
"""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from triform import Context, TriformError
from triform.scalars import Poly, sum_products

sympy = pytest.importorskip("sympy")

FIELD, A, B, U, R, Z = sympy.field("a,b,u,r,z", sympy.QQ)
CONTEXTS = {2: Context(3, zeta_order=2), 4: Context(5, zeta_order=4)}


def _fold(op, parts):
    out = parts[0]
    for part in parts[1:]:
        out = (op, out, part)
    return out


def parts(m):
    """A small polynomial, a quotient of two, or a geometric tail."""
    names = ["a", "b", "u", "r"] + (["zeta4"] if m == 4 else [])
    atom = st.sampled_from(names).map(lambda name: ("atom", name))
    const = st.sampled_from(["1", "2", "-1/3", "3/2"]).map(lambda c: ("atom", c))
    monomial = st.tuples(const, st.lists(atom, max_size=2)).map(lambda cs: _fold("*", [cs[0]] + cs[1]))
    poly = st.lists(monomial, min_size=1, max_size=3).map(lambda ms: _fold("+", ms))
    quotient = st.tuples(st.just("/"), poly, poly)
    tail = st.tuples(st.just("tail"), st.tuples(st.just("/"), monomial, const), st.integers(0, 2))
    return st.one_of(quotient, tail, poly)


def trees(m):
    """Sums and products of parts, so that denominators carry several factors."""
    return st.tuples(st.sampled_from(["+", "-", "*"]), st.lists(parts(m), min_size=1, max_size=3)).map(
        lambda op_parts: _fold(*op_parts)
    )


def as_scalar(ctx, t):
    if t[0] == "atom":
        name = t[1]
        if name in ("a", "b", "u", "r"):
            return getattr(ctx, name)
        if name == "zeta4":
            return ctx.scalar(ctx.zeta(4))
        return ctx.scalar(Fraction(name))
    if t[0] == "tail":
        return as_scalar(ctx, t[1]).geometric_tail(t[2])
    x, y = as_scalar(ctx, t[1]), as_scalar(ctx, t[2])
    return {"+": x + y, "-": x - y, "*": x * y}[t[0]] if t[0] != "/" else x / y


def as_sympy(t):
    if t[0] == "atom":
        name = t[1]
        return {"a": A, "b": B, "u": U, "r": R, "zeta4": Z}.get(name) or FIELD(sympy.Rational(name))
    if t[0] == "tail":
        x = as_sympy(t[1])
        return x ** t[2] / (1 - x)
    x, y = as_sympy(t[1]), as_sympy(t[2])
    return {"+": x + y, "-": x - y, "*": x * y, "/": x / y}[t[0]]


def oracle_is_zero(x, q) -> bool:
    """The numerator of x is 0 mod (r^2 - q, z^2 + 1).  Its denominator divides
    a product of the tree's denominators, each nonzero in the field because
    evaluate() discards any tree with one that vanishes there."""
    return x.numer.rem([(R**2 - q).numer, (Z**2 + 1).numer]) == 0


def evaluate(ctx, t):
    try:
        return as_scalar(ctx, t)
    except TriformError:  # a zero divisor or a pole
        assume(False)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 4]).flatmap(lambda m: st.tuples(st.just(m), trees(m), trees(m))))
def test_zero_test_and_equality_match_sympy(case):
    m, t1, t2 = case
    ctx = CONTEXTS[m]
    x, y = evaluate(ctx, t1), evaluate(ctx, t2)
    e1, e2 = as_sympy(t1), as_sympy(t2)
    assert x.is_zero() == oracle_is_zero(e1, ctx.q)
    assert (x == y) == oracle_is_zero(e1 - e2, ctx.q)
    assert (x - y).is_zero() == (x == y)
    # an equality that holds by construction, reached by two different routes
    assert x * y + x == x * (y + 1)
    assert oracle_is_zero(e1 * e2 + e1 - e1 * (e2 + 1), ctx.q)


def as_rendered_sympy(x):
    text = x.render().replace("^", "**").replace("zeta4", "z")
    return FIELD.from_expr(sympy.sympify(text, locals={str(g): g for g in FIELD.symbols}))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 4]).flatmap(lambda m: st.tuples(st.just(m), trees(m))))
def test_rendered_canonical_form_matches_sympy(case):
    """The rendered numerator over denominator is the oracle's value."""
    m, t = case
    ctx = CONTEXTS[m]
    x = evaluate(ctx, t)
    assert oracle_is_zero(as_rendered_sympy(x) - as_sympy(t), ctx.q)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([2, 4]).flatmap(
        lambda m: st.tuples(st.just(m), st.lists(st.lists(parts(m), max_size=3), min_size=1, max_size=4))
    )
)
def test_sum_products_matches_sympy(case):
    """The deferred sum of products is the oracle's sum of products."""
    m, products = case
    ctx = CONTEXTS[m]
    got = sum_products(ctx.field, [([evaluate(ctx, t) for t in ts], 0, 1) for ts in products])
    expected = sum((prod((as_sympy(t) for t in ts), start=FIELD.one) for ts in products), FIELD.zero)
    assert oracle_is_zero(as_field(got) - expected, ctx.q)


def as_field(x):
    """A Scalar in the oracle's field, from the terms of its numerator and
    denominator factors: the exponents of a Poly are those of a, b, u, r, z.
    Numerator and denominator are multiplied through by the content monomial
    that clears the Laurent numerator's negative exponents."""
    ring = FIELD.ring
    low = [min([0, *(mo[i] for mo in x.num.terms)]) for i in range(5)]
    num = ring({tuple(e - k for e, k in zip(mo, low)): sympy.QQ(c, x.num.den) for mo, c in x.num.terms.items()})
    den = (ring({mo: sympy.QQ(c, f.den) for mo, c in f.terms.items()}) for f in x.den)
    return FIELD.new(num, prod(den, start=ring({tuple(-k for k in low): 1})))


GENS = (*sympy.symbols("a b u r"), sympy.Symbol("zeta"))  # over Q(zeta4), zeta4 stays a plain symbol of degree < 2


def poly_to_sympy(p):
    terms = p.coefficients()
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(g**e for g, e in zip(GENS, mo))) for mo, c in terms))


def poly_terms(m, divisor=False, max_terms=3):
    """Coefficient dicts of reduced polynomials; a divisor is free of r and zeta."""
    r, z = (st.just(0), st.just(0)) if divisor else (st.integers(0, 1), st.integers(0, 1 if m == 4 else 0))
    mono = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1), r, z)
    coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    return st.dictionaries(mono, coeffs, max_size=max_terms)


# non-primitive and non-monic divisors: 6ab - 3u + 9, 2a^2 - b, a/2 - 2b/3 and 2a + 4b
FIXED_DIVISORS = [
    {(1, 1, 0, 0, 0): 6, (0, 0, 1, 0, 0): -3, (0, 0, 0, 0, 0): 9},
    {(2, 0, 0, 0, 0): 2, (0, 1, 0, 0, 0): -1},
    {(1, 0, 0, 0, 0): Fraction(1, 2), (0, 1, 0, 0, 0): Fraction(-2, 3)},
    {(1, 0, 0, 0, 0): 2, (0, 1, 0, 0, 0): 4},
]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([2, 4]).flatmap(
        lambda m: st.tuples(
            st.just(m),
            poly_terms(m),
            st.one_of(st.sampled_from(FIXED_DIVISORS), poly_terms(m, divisor=True)),
            st.one_of(st.just({}), poly_terms(m, max_terms=2)),
            st.sampled_from([1, 0, 3]),
        )
    )
)
@example((2, {(0, 0, 0, 0, 0): 2}, FIXED_DIVISORS[0], {}, 1))  # 13ab - 6u + 18 over 2ab - u + 3: 13/2
def test_divexact_refuses_exactly_when_sympy_leaves_a_remainder(case):
    """g*f + e + c*LM(f) divided by f: divexact refuses exactly when sympy's
    division leaves a remainder, and otherwise returns sympy's quotient.  The
    multiple c of f's leading monomial LM(f) makes quotient coefficients that
    are not ints where the monomials alone would let the division run on."""
    m, g, f, e, c = case
    field = CONTEXTS[m].field
    f = Poly(field, f)
    assume(not f.is_zero())
    num = Poly(field, g) * f + Poly(field, e) + Poly(field, {f.leading()[0]: c})
    quot, rem = sympy.div(poly_to_sympy(num), poly_to_sympy(f), *GENS)
    got = num.divexact(f)
    if rem == 0:
        assert got is not None and sympy.expand(poly_to_sympy(got) - quot) == 0
    else:
        assert got is None
