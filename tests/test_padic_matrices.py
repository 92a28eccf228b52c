import random
from fractions import Fraction

import pytest

from triform.matrices import GroupElement, in_T_In, iwasawa
from triform.padic import INF, PadicRational, val

from conftest import rand_G, rand_K


def test_valuation():
    assert val(Fraction(2), 2) == 1
    assert val(Fraction(1, 4), 2) == -2
    assert val(Fraction(0), 2) == INF
    x = PadicRational(Fraction(12), 2)
    assert x.val() == 2 and x.unit_part().value == 3
    assert x.unit_residue(3) == 3
    y = PadicRational(Fraction(5, 3), 3)
    assert y.val() == -1


def test_valuation_multiplicative():
    rng = random.Random(0)
    for _ in range(100):
        x = PadicRational(Fraction(rng.randint(1, 500), rng.randint(1, 500)), 3)
        y = PadicRational(Fraction(rng.randint(1, 500), rng.randint(1, 500)), 3)
        assert (x * y).val() == x.val() + y.val()


def test_membership(ctx2):
    p = 2
    w = GroupElement.w(p)
    assert w.in_K() and not w.in_iwahori(1)
    low = GroupElement.lower(p, 2)
    assert low.in_iwahori(1) and not low.in_iwahori(2)
    assert not GroupElement.gamma(p).in_K()
    assert GroupElement.diag(p, 3, 5).in_T_cap_K()
    assert GroupElement(p, 1, 7, 0, 3).is_upper()
    assert GroupElement(p, 1, 0, 4, 1).in_K_principal(2)
    assert not GroupElement(p, 1, 2, 4, 1).in_K_principal(2)


def test_iwasawa_roundtrip(ctx3):
    rng = random.Random(1)
    for _ in range(100):
        g = rand_G(ctx3, rng, val_range=4)
        b, k = iwasawa(g)
        assert b * k == g
        assert b.is_upper()
        assert k.in_K()


def test_iwasawa_gamma():
    g = GroupElement.gamma(2, -1)
    b, k = iwasawa(g)
    assert b == g and k == GroupElement.identity(2)


def test_det_multiplicative(ctx2):
    rng = random.Random(2)
    for _ in range(50):
        g, h = rand_G(ctx2, rng), rand_G(ctx2, rng)
        assert (g * h).det() == g.det() * h.det()


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
            assert g.in_iwahori(n) == (g.in_K() and (g.z.is_zero() or g.z.val() >= n))
            assert g.in_iwahori(n)  # integrality of all entries forces val(z) >= n
    # and conversely I(n) sits inside the conjugate order's units
    for _ in range(30):
        k = rand_K(ctx2, rng, m=4)
        if k.in_iwahori(n):
            assert k.in_R_star(n)


def test_cartan_gap():
    p = 2
    assert GroupElement.gamma(p, -1).cartan_gap() == 1
    assert GroupElement.gamma(p, 3).cartan_gap() == 3
    assert GroupElement.diag(p, 4, 4).cartan_gap() == 0
    assert GroupElement.w(p).cartan_gap() == 0
    assert GroupElement(p, 0, 1, 4, 0).cartan_gap() == 2
