"""Exact p-adic rationals: elements of F = Q_p represented by Fractions.

Only valuations, unit parts and residue data are ever needed, so a value is a
Fraction tagged with the prime; val(0) is the +infinity sentinel.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf


def _int_val(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class PadicRational:
    __slots__ = ("value", "p", "_val")

    def __init__(self, value, p: int):
        self.value = value if type(value) is Fraction else Fraction(value)
        self.p = p
        self._val = None

    # -- valuation ------------------------------------------------------
    def val(self):
        """The normalized valuation; +inf for 0."""
        if self._val is None:
            if self.value == 0:
                self._val = INF
            else:
                self._val = _int_val(self.value.numerator if self.value.numerator > 0 else -self.value.numerator, self.p) - _int_val(
                    self.value.denominator, self.p
                )
        return self._val

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
        u = self.unit_part().value
        mod = self.p**m
        return u.numerator * pow(u.denominator, -1, mod) % mod

    def residue(self, m: int) -> int:
        """self mod p^m for integral values, as an integer in [0, p^m)."""
        if not self.is_integral():
            raise ValueError("residue of a non-integral value")
        mod = self.p**m
        if self.value == 0:
            return 0
        return self.value.numerator * pow(self.value.denominator, -1, mod) % mod

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

