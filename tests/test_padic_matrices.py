import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from triform.errors import TriformError
from triform.matrices import GroupElement, _element, in_T_In, iwasawa
from triform.padic import INF, ratio_val, residue, split, unit_residue

from conftest import entry, in_K_principal, is_upper, rand_G, rand_K


def test_valuation():
    assert ratio_val(2, 1, 2) == 1
    assert ratio_val(1, 4, 2) == -2
    assert ratio_val(0, 1, 2) == INF
    assert split(12, 2) == (2, 3)
    assert unit_residue(12, 1, 2, 3) == 3
    assert ratio_val(5, 3, 3) == -1


def test_valuation_multiplicative():
    rng = random.Random(0)
    for _ in range(100):
        a, b, c, d = (rng.randint(1, 500) for _ in range(4))
        assert ratio_val(a * c, b * d, 3) == ratio_val(a, b, 3) + ratio_val(c, d, 3)


def test_membership(ctx2):
    p = 2
    w = GroupElement.w(p)
    assert w.in_K() and not w.in_iwahori(1)
    low = GroupElement.lower(p, 2)
    assert low.in_iwahori(1) and not low.in_iwahori(2)
    assert not GroupElement.gamma(p).in_K()
    assert is_upper(GroupElement(p, 1, 7, 0, 3))
    assert in_K_principal(GroupElement(p, 1, 0, 4, 1), 2)
    assert not in_K_principal(GroupElement(p, 1, 2, 4, 1), 2)


def test_iwasawa_roundtrip(ctx3):
    rng = random.Random(1)
    for _ in range(100):
        g = rand_G(ctx3, rng, val_range=4)
        b, k = iwasawa(g)
        assert b * k == g
        assert is_upper(b)
        assert k.in_K()


def test_iwasawa_gamma():
    g = GroupElement.gamma(2, -1)
    b, k = iwasawa(g)
    assert b == g and k == GroupElement.identity(2)


def test_det_multiplicative(ctx2):
    rng = random.Random(2)
    for _ in range(50):
        g, h = rand_G(ctx2, rng, 2), rand_G(ctx2, rng, 2)
        gh = g * h
        assert Fraction(gh.N, gh.D**2) == Fraction(g.N, g.D**2) * Fraction(h.N, h.D**2)


def test_in_T_In(ctx2):
    rng = random.Random(3)
    p = 2
    for n in (1, 2):
        for _ in range(40):
            k = rand_K(ctx2, rng, m=n + 2)
            fac = in_T_In(k, n)
            assert (fac is not None) == k.in_iwahori(n)
        k = rand_K(ctx2, rng, m=n + 1)
        while not k.in_iwahori(n):
            k = rand_K(ctx2, rng, m=n + 1)
        g = GroupElement.diag(p, 2, 1) * k
        t, kk = in_T_In(g, n)
        assert t * kk == g and kk.in_iwahori(n)
    assert in_T_In(GroupElement.w(p), 1) is None


def test_R_star_membership(ctx2):
    # gamma^{-n} K gamma^n cap K = I(n)
    rng = random.Random(4)
    p, n = 2, 2
    for _ in range(60):
        k = rand_K(ctx2, rng, m=4)
        g = GroupElement.gamma(p, -n) * k * GroupElement.gamma(p, n)
        if g.in_K():
            assert g.in_iwahori(n) == (g.in_K() and ratio_val(*entry(g, 2), p) >= n)
            assert g.in_iwahori(n)  # integrality of all entries forces val(z) >= n


def test_cartan_gap():
    p = 2
    assert GroupElement.gamma(p, -1).cartan_gap() == 1
    assert GroupElement.gamma(p, 3).cartan_gap() == 3
    assert GroupElement.diag(p, 4, 4).cartan_gap() == 0
    assert GroupElement.w(p).cartan_gap() == 0
    assert GroupElement(p, 0, 1, 4, 0).cartan_gap() == 2


# ---------------------------------------------------------------------------
# the integer normal form against a plain-Fraction reference
# ---------------------------------------------------------------------------


def ref_val(x: Fraction, p: int):
    if x == 0:
        return INF
    v, n, d = 0, x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def ref_mul(g, h):
    x1, y1, z1, t1 = g
    x2, y2, z2, t2 = h
    return (x1 * x2 + y1 * z2, x1 * y2 + y1 * t2, z1 * x2 + t1 * z2, z1 * y2 + t1 * t2)


def ref_det(g):
    return g[0] * g[3] - g[1] * g[2]


def ref_inv(g):
    d = ref_det(g)
    return (g[3] / d, -g[1] / d, -g[2] / d, g[0] / d)


def ref_iwasawa(g, p):
    x, y, z, t = g
    if ref_val(t, p) <= ref_val(z, p):
        return (ref_det(g) / t, y, Fraction(0), t), (Fraction(1), Fraction(0), z / t, Fraction(1))
    return (ref_det(g) / z, x, Fraction(0), z), (Fraction(0), Fraction(-1), Fraction(1), t / z)


def ref_in_K(g, p):
    return all(ref_val(e, p) >= 0 for e in g) and ref_val(ref_det(g), p) == 0


def ref_in_T_In(g, p, n):
    v1 = min(ref_val(g[0], p), ref_val(g[1], p))
    v2 = min(ref_val(g[2], p), ref_val(g[3], p))
    t = (Fraction(p) ** v1, Fraction(0), Fraction(0), Fraction(p) ** v2)
    k = ref_mul(ref_inv(t), g)
    if ref_in_K(k, p) and ref_val(k[2], p) >= n:
        return t, k
    return None


def ref_unit_residue(x: Fraction, p: int, m: int) -> int:
    u = x / Fraction(p) ** ref_val(x, p)
    return u.numerator * pow(u.denominator, -1, p**m) % p**m


def entries_of(g: GroupElement):
    return tuple(Fraction(*entry(g, i)) for i in range(4))


def p_adic_fractions(p):
    """Rationals with every valuation in [-3, 3] and denominators carrying other primes too."""
    nonzero = st.builds(
        lambda n, d, a: Fraction(n, d) * Fraction(p) ** a,
        st.integers(-40, 40).filter(bool),
        st.integers(1, 12),
        st.integers(-3, 3),
    )
    return st.one_of(st.just(Fraction(0)), nonzero)


def matrices(p):
    return st.tuples(*(p_adic_fractions(p),) * 4).filter(lambda g: ref_det(g) != 0)


primes = st.sampled_from([2, 3, 5])


@settings(max_examples=150, deadline=None)
@given(primes.flatmap(lambda p: st.tuples(st.just(p), matrices(p), matrices(p))))
def test_kernel_arithmetic_matches_fractions(case):
    p, a, b = case
    g, h = GroupElement(p, *a), GroupElement(p, *b)
    assert entries_of(g) == a and repr(g) == "[{} {}; {} {}]".format(*a)
    assert Fraction(g.N, g.D**2) == ref_det(a)
    assert entries_of(g * h) == ref_mul(a, b)
    assert entries_of(g.inv()) == ref_inv(a)
    assert g * h == GroupElement(p, *ref_mul(a, b)) and g.inv() == GroupElement(p, *ref_inv(a))
    assert hash(g.inv().inv()) == hash(g) and g.inv().inv() == g
    assert g.in_K() == ref_in_K(a, p)


@settings(max_examples=150, deadline=None)
@given(primes.flatmap(lambda p: st.tuples(st.just(p), matrices(p))))
def test_kernel_iwasawa_matches_fractions(case):
    p, a = case
    g = GroupElement(p, *a)
    b, k = iwasawa(g)
    want_b, want_k = ref_iwasawa(a, p)
    assert entries_of(b) == want_b and entries_of(k) == want_k  # the same pivot
    assert is_upper(b) and k.in_K() and ref_in_K(entries_of(k), p)
    assert entries_of(b * k) == a


@settings(max_examples=150, deadline=None)
@given(primes.flatmap(lambda p: st.tuples(st.just(p), matrices(p), st.integers(1, 3))))
def test_kernel_in_T_In_matches_fractions(case):
    p, a, n = case
    got = in_T_In(GroupElement(p, *a), n)
    want = ref_in_T_In(a, p, n)
    assert (got is None) == (want is None)
    if got is not None:
        assert (entries_of(got[0]), entries_of(got[1])) == want


@settings(max_examples=150, deadline=None)
@given(primes.flatmap(lambda p: st.tuples(st.just(p), matrices(p), st.integers(1, 4))))
def test_kernel_entry_valuations_and_residues(case):
    p, a, m = case
    g = GroupElement(p, *a)
    for i, x in enumerate(a):
        n, d = entry(g, i)
        assert ratio_val(n, d, p) == ref_val(x, p)
        if x != 0:
            assert unit_residue(n, d, p, m) == ref_unit_residue(x, p, m)
        if ref_val(x, p) >= 0:
            want = x.numerator * pow(x.denominator, -1, p**m) % p**m
            assert residue(n, d, p, m) == want
        else:
            with pytest.raises(TriformError, match="non-integral"):
                residue(n, d, p, m)


@settings(max_examples=100, deadline=None)
@given(primes.flatmap(lambda p: st.tuples(st.just(p), matrices(p), st.integers(2, 6))))
def test_kernel_one_form_per_element(case):
    p, a, c = case
    g = GroupElement(p, *a)
    D = 1
    for x in a:
        D = D * x.denominator // gcd(D, x.denominator)
    X, Y, Z, T = (int(x * D) for x in a)
    same = [
        GroupElement(p, *(Fraction(x.numerator * c, x.denominator * c) for x in a)),
        _element(p, X * c, Y * c, Z * c, T * c, D * c),  # unreduced, as 2/4 against 1/2
        _element(p, -X, -Y, -Z, -T, -D),  # a negative common denominator
    ]
    if D == 1:
        same.append(GroupElement(p, X, Y, Z, T))
    for h in same:
        assert h == g and hash(h) == hash(g) and entries_of(h) == a
        assert h.D > 0 and gcd(h.X, h.Y, h.Z, h.T, h.D) == 1


def test_kernel_refuses_singular_input():
    for p in (2, 3, 5):
        with pytest.raises(TriformError, match="singular matrix"):
            GroupElement(p, 1, 2, 2, 4)
        with pytest.raises(TriformError, match="singular matrix"):
            GroupElement(p, Fraction(1, p), Fraction(2, 3), Fraction(3, p), 2)
        with pytest.raises(TriformError, match="singular matrix"):
            GroupElement(p, 0, 0, 5, 7)
        with pytest.raises(TriformError, match="singular matrix"):
            _element(p, 2, 4, 3, 6, -p)
