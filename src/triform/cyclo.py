"""Exact arithmetic in the cyclotomic field Q(zeta_M).

Elements are stored in the power basis 1, zeta, ..., zeta^{phi(M)-1} with
Fraction coordinates, reduced modulo the M-th cyclotomic polynomial.  M stays
tiny here (the order of the finite character group in play), so nothing is
optimized beyond dense tuples.
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


@lru_cache(maxsize=None)
def _reduction_table(m: int) -> tuple[tuple[Fraction, ...], ...]:
    """zeta^k for k in [0, 2*deg) expressed in the power basis."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    rows: list[tuple[Fraction, ...]] = []
    cur = [Fraction(0)] * deg
    cur[0] = Fraction(1)
    for _ in range(2 * deg + 1):
        rows.append(tuple(cur))
        nxt = [Fraction(0)] + cur[:]
        if nxt[deg] != 0:
            c = nxt[deg]
            for j in range(deg):
                nxt[j] -= c * phi[j] / phi[deg]
        cur = nxt[:deg]
    return tuple(rows)


class Cyclo:
    """An element of Q(zeta_M), immutable."""

    __slots__ = ("m", "co")

    def __init__(self, m: int, co):
        deg = len(cyclotomic_polynomial(m)) - 1
        co = tuple(c if type(c) is Fraction else Fraction(c) for c in co)
        assert len(co) == deg
        self.m = m
        self.co = co

    @classmethod
    def _fast(cls, m: int, co: tuple) -> "Cyclo":
        out = object.__new__(cls)
        out.m = m
        out.co = co
        return out

    @classmethod
    def from_rational(cls, m: int, x) -> "Cyclo":
        deg = len(cyclotomic_polynomial(m)) - 1
        return cls(m, (Fraction(x),) + (Fraction(0),) * (deg - 1))

    @classmethod
    def zeta_power(cls, m: int, k: int) -> "Cyclo":
        table = _reduction_table(m)
        return cls(m, table[k % m] if k % m < len(table) else cls._big_power(m, k))

    @staticmethod
    def _big_power(m: int, k: int):
        acc = Cyclo.from_rational(m, 1)
        z = Cyclo(m, _reduction_table(m)[1])
        for _ in range(k % m):
            acc = acc * z
        return acc.co

    def is_zero(self) -> bool:
        return not any(self.co)

    def is_one(self) -> bool:
        return self.co[0] == 1 and not any(self.co[1:])

    def is_rational(self) -> bool:
        return not any(self.co[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational element")
        return self.co[0]

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclo.from_rational(self.m, other)
        return isinstance(other, Cyclo) and self.m == other.m and self.co == other.co

    def __hash__(self):
        return hash((self.m, self.co))

    def __add__(self, other: "Cyclo") -> "Cyclo":
        if len(self.co) == 1:
            return Cyclo._fast(self.m, (self.co[0] + other.co[0],))
        return Cyclo._fast(self.m, tuple(a + b for a, b in zip(self.co, other.co)))

    def __sub__(self, other: "Cyclo") -> "Cyclo":
        if len(self.co) == 1:
            return Cyclo._fast(self.m, (self.co[0] - other.co[0],))
        return Cyclo._fast(self.m, tuple(a - b for a, b in zip(self.co, other.co)))

    def __neg__(self) -> "Cyclo":
        return Cyclo._fast(self.m, tuple(-a for a in self.co))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclo._fast(self.m, tuple(a * other for a in self.co))
        if len(self.co) == 1:
            return Cyclo._fast(self.m, (self.co[0] * other.co[0],))
        table = _reduction_table(self.m)
        deg = len(self.co)
        out = [Fraction(0)] * deg
        for i, a in enumerate(self.co):
            if a == 0:
                continue
            for j, b in enumerate(other.co):
                if b == 0:
                    continue
                row = table[i + j]
                c = a * b
                for k in range(deg):
                    if row[k]:
                        out[k] += c * row[k]
        return Cyclo._fast(self.m, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        if self.is_rational():
            return Cyclo.from_rational(self.m, 1 / self.co[0])
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
        g = r0[0]  # gcd is a nonzero constant
        deg = len(self.co)
        inv = [Fraction(0)] * deg
        for i, c in enumerate(s0):
            if i < deg:
                inv[i] = c / g
            else:  # reduce stray high powers (cannot happen: deg s0 < deg phi)
                raise AssertionError
        out = Cyclo(self.m, inv)
        assert (out * self).is_rational() and (out * self).co[0] == 1
        return out

    def __repr__(self):
        return f"Cyclo({self.m}, {self.co})"


class RootOfUnity:
    """zeta_order^exponent inside the global Q(zeta_M); a multiplicative value.

    The order must divide the globally configured M of whatever context the
    value is embedded into; exponents are stored reduced.
    """

    __slots__ = ("order", "exponent")

    def __init__(self, order: int, exponent: int):
        if order < 1:
            raise ValueError("order must be positive")
        self.order = order
        self.exponent = exponent % order

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        if self.order == other.order:
            return RootOfUnity(self.order, self.exponent + other.exponent)
        from math import lcm

        m = lcm(self.order, other.order)
        return RootOfUnity(m, self.exponent * (m // self.order) + other.exponent * (m // other.order))

    def __pow__(self, k: int) -> "RootOfUnity":
        return RootOfUnity(self.order, self.exponent * k)

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity(self.order, -self.exponent)

    def is_one(self) -> bool:
        return self.exponent == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, RootOfUnity):
            return NotImplemented
        from math import lcm

        m = lcm(self.order, other.order)
        return self.exponent * (m // self.order) % m == other.exponent * (m // other.order) % m

    def __hash__(self):
        from math import gcd

        g = gcd(self.exponent, self.order)
        return hash((self.order // g, (self.exponent // g) % (self.order // g)))

    def embed(self, m: int) -> Cyclo:
        if m % self.order != 0:
            raise ValueError(f"order {self.order} does not divide the configured M={m}")
        return Cyclo.zeta_power(m, self.exponent * (m // self.order))

    def __repr__(self):
        return f"zeta{self.order}^{self.exponent}"
