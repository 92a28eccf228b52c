"""Differential test of the Scalar kernel against sympy as an independent oracle.

Random expression trees in a, b, u, r (and zeta4) with sums, products,
inverses and geometric tails are evaluated twice: as Scalars, and as sympy
rational functions in which r is a plain symbol.  Over Q(a, b, u), x^2 - q is
irreducible, so a sympy value is zero in Q(zeta_M)(a, b, u)[r]/(r^2 - q)
exactly when its cancelled numerator is divisible by r^2 - q.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from triform import Context, PoleError, ScalarDivisionError

sympy = pytest.importorskip("sympy")

A, B, U, R = sympy.symbols("a b u r")
CONTEXTS = {2: Context(3, zeta_order=2), 4: Context(5, zeta_order=4)}


def _fold(op, parts):
    out = parts[0]
    for part in parts[1:]:
        out = (op, out, part)
    return out


def trees(m):
    """Sums and products of quotients of small polynomials and of geometric
    tails, so that denominators carry several factors."""
    names = ["a", "b", "u", "r"] + (["zeta4"] if m == 4 else [])
    atom = st.sampled_from(names).map(lambda name: ("atom", name))
    const = st.sampled_from(["1", "2", "-1/3", "3/2"]).map(lambda c: ("atom", c))
    monomial = st.tuples(const, st.lists(atom, max_size=2)).map(lambda cs: _fold("*", [cs[0]] + cs[1]))
    poly = st.lists(monomial, min_size=1, max_size=3).map(lambda ms: _fold("+", ms))
    quotient = st.tuples(st.just("/"), poly, poly)
    tail = st.tuples(st.just("tail"), st.tuples(st.just("/"), monomial, const), st.integers(0, 2))
    part = st.one_of(quotient, tail, poly)
    return st.tuples(st.sampled_from(["+", "-", "*"]), st.lists(part, min_size=1, max_size=3)).map(
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
        return {"a": A, "b": B, "u": U, "r": R, "zeta4": sympy.I}.get(name) or sympy.Rational(name)
    if t[0] == "tail":
        x = as_sympy(t[1])
        return x ** t[2] / (1 - x)
    x, y = as_sympy(t[1]), as_sympy(t[2])
    return {"+": x + y, "-": x - y, "*": x * y, "/": x / y}[t[0]]


def oracle_is_zero(expr, q) -> bool:
    num, _ = sympy.fraction(sympy.cancel(sympy.together(expr)))
    return sympy.expand(sympy.rem(sympy.expand(num), R**2 - q, R)) == 0


def evaluate(ctx, t):
    try:
        return as_scalar(ctx, t)
    except (ScalarDivisionError, PoleError):
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


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 4]).flatmap(lambda m: st.tuples(st.just(m), trees(m))))
def test_rendered_canonical_form_matches_sympy(case):
    """The rendered numerator over denominator is the oracle's value."""
    m, t = case
    ctx = CONTEXTS[m]
    x = evaluate(ctx, t)
    text = x.render().replace("^", "**").replace("zeta4", "I")
    rendered = sympy.sympify(text, locals={"a": A, "b": B, "u": U, "r": R, "I": sympy.I})
    assert oracle_is_zero(rendered - as_sympy(t), ctx.q)
