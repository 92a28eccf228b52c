"""Exact p-adic rationals: elements of F = Q_p given by integers.

Only valuations, unit parts and residue data are ever needed.  An element of
F is a pair of ints (n, d) with d != 0, not necessarily in lowest terms, and
is read only through the functions below.  The valuation of 0 is +infinity.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import TriformError

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
        raise TriformError("residue of a non-integral value")
    mod = p**m
    return un * p ** (vn - vd) * pow(ud, -1, mod) % mod


def as_ratio(x) -> tuple[int, int]:
    """An int or Fraction as a pair (numerator, denominator)."""
    if type(x) is int:
        return x, 1
    x = Fraction(x)
    return x.numerator, x.denominator
