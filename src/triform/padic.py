"""Exact p-adic rationals: elements of F = Q_p given by integers.

Only valuations, unit parts and residue data are ever needed.  The hot paths
pass an element of F as a pair of ints (n, d) with d != 0, not necessarily in
lowest terms, and read it through the functions below; PadicRational wraps a
Fraction for the cold callers.  val(0) is the +infinity sentinel.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf


def vp(n: int, p: int):
    """v_p of an integer; +inf for 0."""
    return split(n, p)[0] if n else INF


def ratio_val(n: int, d: int, p: int):
    """The valuation of n/d; +inf for n = 0."""
    return vp(n, p) - vp(d, p)


def split(n: int, p: int) -> tuple[int, int]:
    """(v, u) with n = p^v * u and p not dividing u, for a nonzero integer n."""
    v = 0
    while not n % p:
        n //= p
        v += 1
    return v, n


def unit_residue(n: int, d: int, p: int, m: int) -> int:
    """The unit part of n/d (nonzero) mod p^m, as an integer in [0, p^m)."""
    mod = p**m
    return split(n, p)[1] * pow(split(d, p)[1], -1, mod) % mod


def residue(n: int, d: int, p: int, m: int) -> int:
    """n/d mod p^m for an integral value, as an integer in [0, p^m)."""
    if not n:
        return 0
    vn, un = split(n, p)
    vd, ud = split(d, p)
    if vn < vd:
        raise ValueError("residue of a non-integral value")
    mod = p**m
    return un * p ** (vn - vd) * pow(ud, -1, mod) % mod


def as_ratio(x) -> tuple[int, int]:
    """An int, Fraction or PadicRational as a pair (numerator, denominator)."""
    if type(x) is int:
        return x, 1
    if isinstance(x, PadicRational):
        x = x.value
    x = Fraction(x)
    return x.numerator, x.denominator


class PadicRational:
    __slots__ = ("value", "p")

    def __init__(self, value, p: int):
        self.value = value if type(value) is Fraction else Fraction(value)
        self.p = p

    # -- valuation ------------------------------------------------------
    def val(self):
        """The normalized valuation; +inf for 0."""
        return ratio_val(self.value.numerator, self.value.denominator, self.p)

    def is_zero(self) -> bool:
        return self.value == 0

    def is_integral(self) -> bool:
        return self.is_zero() or self.val() >= 0

    def is_unit(self) -> bool:
        return (not self.is_zero()) and self.val() == 0

    def unit_part(self) -> "PadicRational":
        """u with self = p^val * u; u a unit."""
        if self.is_zero():
            raise ZeroDivisionError("unit part of 0")
        v = self.val()
        return PadicRational(self.value / Fraction(self.p) ** v, self.p)

    def unit_residue(self, m: int) -> int:
        """The unit part mod p^m, as an integer in [0, p^m)."""
        if self.is_zero():
            raise ZeroDivisionError("unit part of 0")
        return unit_residue(self.value.numerator, self.value.denominator, self.p, m)

    def residue(self, m: int) -> int:
        """self mod p^m for integral values, as an integer in [0, p^m)."""
        return residue(self.value.numerator, self.value.denominator, self.p, m)

    # -- arithmetic ------------------------------------------------------
    def _coerce(self, other) -> "PadicRational":
        if isinstance(other, PadicRational):
            return other
        return PadicRational(other, self.p)

    def __add__(self, other):
        other = self._coerce(other)
        return PadicRational(self.value + other.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        return PadicRational(self.value - self._coerce(other).value, self.p)

    def __rsub__(self, other):
        return PadicRational(self._coerce(other).value - self.value, self.p)

    def __neg__(self):
        return PadicRational(-self.value, self.p)

    def __mul__(self, other):
        other = self._coerce(other)
        return PadicRational(self.value * other.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.value == 0:
            raise ZeroDivisionError
        return PadicRational(self.value / other.value, self.p)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k: int):
        return PadicRational(self.value**k, self.p)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.value == other
        return isinstance(other, PadicRational) and self.p == other.p and self.value == other.value

    def __hash__(self):
        return hash((self.value, self.p))

    def __repr__(self):
        return f"{self.value}"


def val(x, p: int | None = None):
    """Valuation of a PadicRational (or a raw Fraction/int given p)."""
    if isinstance(x, PadicRational):
        return x.val()
    return PadicRational(x, p).val()
