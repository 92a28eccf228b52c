"""The cyclotomic field Q(zeta_M): cyclotomic polynomials and a dense
reference model.

The scalar kernel carries zeta_M as a polynomial exponent reduced by the rows
of Phi_M (`scalars.power_rows`), and a root of unity zeta_M^j is just the
exponent j wherever characters are evaluated; `Cyclo` stores an element in
the power basis 1, zeta, ..., zeta^{phi(M)-1} with Fraction coordinates and
is the reference the kernel is tested against.  M stays tiny here (the order
of the finite character group in play), so nothing is optimized.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


def _poly_divmod(num: list[Fraction], den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    num = list(num)
    q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    inv_lead = 1 / den[-1]
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] * inv_lead
        q[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return q, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[Fraction, ...]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial."""
    if m == 1:
        return (Fraction(-1), Fraction(1))
    num = [Fraction(0)] * (m + 1)
    num[0], num[m] = Fraction(-1), Fraction(1)
    den = [Fraction(1)]
    for d in range(1, m):
        if m % d == 0:
            den = _poly_mul_q(den, list(cyclotomic_polynomial(d)))
    q, r = _poly_divmod(num, den)
    assert all(c == 0 for c in r)
    while len(q) > 1 and q[-1] == 0:
        q.pop()
    return tuple(q)


def _poly_mul_q(f: list[Fraction], g: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] += a * b
    return out


class Cyclo:
    """An element of Q(zeta_M) as dense power-basis coordinates, immutable.

    Shorter coordinate lists are padded with zeros.  A product is reduced by
    polynomial division by Phi_M, an inverse comes from the extended Euclidean
    algorithm: neither shares code with the kernel's reduction rows.
    """

    __slots__ = ("m", "co")

    def __init__(self, m: int, co):
        deg = len(cyclotomic_polynomial(m)) - 1
        co = tuple(Fraction(c) for c in co) + (Fraction(0),) * (deg - len(co))
        assert len(co) == deg
        self.m = m
        self.co = co

    def is_zero(self) -> bool:
        return not any(self.co)

    def __eq__(self, other) -> bool:
        return isinstance(other, Cyclo) and self.m == other.m and self.co == other.co

    def __mul__(self, other: "Cyclo") -> "Cyclo":
        _, rem = _poly_divmod(_poly_mul_q(list(self.co), list(other.co)), list(cyclotomic_polynomial(self.m)))
        return Cyclo(self.m, rem)

    def inverse(self) -> "Cyclo":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        # extended Euclid against the cyclotomic polynomial in Q[x]
        phi = list(cyclotomic_polynomial(self.m))
        a = list(self.co)
        while len(a) > 1 and a[-1] == 0:
            a.pop()
        r0, r1 = phi, a
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1 or r1[0] != 0:
            q, r = _poly_divmod(r0, r1)
            s = [x for x in s0]
            prod = _poly_mul_q(q, s1)
            ln = max(len(s), len(prod))
            s = [(s[i] if i < len(s) else Fraction(0)) - (prod[i] if i < len(prod) else Fraction(0)) for i in range(ln)]
            while len(s) > 1 and s[-1] == 0:
                s.pop()
            r0, r1, s0, s1 = r1, r, s1, s
        g = r0[0]  # gcd is a nonzero constant; deg s0 < deg phi
        out = Cyclo(self.m, [c / g for c in s0])
        assert out * self == Cyclo(self.m, [1])
        return out

    def __repr__(self):
        return f"Cyclo({self.m}, {self.co})"

