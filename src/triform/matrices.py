"""Invertible 2x2 matrices over F = Q_p, with the subgroup tests and the one
pivot rule of every Borel-times-K split.

Conventions: K = GL_2(O), K(m) the principal congruence subgroup, I(n) the
congruence subgroup with lower-left entry divisible by pi^n, T the diagonal
torus, B the upper-triangular Borel.  gamma = diag(pi, 1), w = antidiagonal.

An element is stored in one integer normal form, (X Y; Z T)/D with X, Y, Z,
T, D ints, D > 0 and gcd(X, Y, Z, T, D) = 1, so equal elements have equal
fields and every product, inverse and decomposition runs on ints.  Callers
read the fields directly (the determinant is N/D^2 with N = XT - YZ), or a
ratio of two entries as a pair (numerator, denominator) of ints, the one
format of padic.py, through ratio().
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import TriformError
from .padic import INF, as_ratio, vp

_new = object.__new__


class GroupElement:
    """An element of GL_2(F); entries (x, y; z, t) = (X, Y; Z, T)/D."""

    __slots__ = ("p", "X", "Y", "Z", "T", "D", "N", "_inv")

    def __init__(self, p: int, x, y, z, t):
        """The element with entries x, y, z, t: ints or Fractions."""
        ratios = [as_ratio(e) for e in (x, y, z, t)]
        D = lcm(*(d for _, d in ratios))
        self._set(p, *(n * (D // d) for n, d in ratios), D)

    def _set(self, p: int, X: int, Y: int, Z: int, T: int, D: int):
        if D < 0:
            X, Y, Z, T, D = -X, -Y, -Z, -T, -D
        c = gcd(X, Y, Z, T, D)
        if c != 1:
            X, Y, Z, T, D = X // c, Y // c, Z // c, T // c, D // c
        N = X * T - Y * Z  # det = N / D^2
        if not N:
            raise TriformError("singular matrix is not a group element")
        self.p, self.X, self.Y, self.Z, self.T, self.D, self.N = p, X, Y, Z, T, D, N
        self._inv = None

    # -- constructors ----------------------------------------------------
    @classmethod
    def identity(cls, p: int) -> "GroupElement":
        return cls(p, 1, 0, 0, 1)

    @classmethod
    def w(cls, p: int) -> "GroupElement":
        return cls(p, 0, 1, 1, 0)

    @classmethod
    def gamma(cls, p: int, k: int = 1) -> "GroupElement":
        """diag(pi^k, 1)."""
        return cls(p, Fraction(p) ** k, 0, 0, 1)

    @classmethod
    def diag(cls, p: int, d1, d2) -> "GroupElement":
        return cls(p, d1, 0, 0, d2)

    @classmethod
    def upper(cls, p: int, x) -> "GroupElement":
        """n(x) = (1 x; 0 1)."""
        return cls(p, 1, x, 0, 1)

    @classmethod
    def lower(cls, p: int, x) -> "GroupElement":
        """n-bar(x) = (1 0; x 1)."""
        return cls(p, 1, 0, x, 1)

    # -- entries ------------------------------------------------------------
    def ratio(self, i: int, j: int) -> tuple[int, int]:
        """Entry i over entry j (nonzero) as a pair (numerator, denominator)."""
        e = (self.X, self.Y, self.Z, self.T)
        return e[i], e[j]

    # -- structure ---------------------------------------------------------
    def __mul__(self, other: "GroupElement") -> "GroupElement":
        X1, Y1, Z1, T1 = self.X, self.Y, self.Z, self.T
        X2, Y2, Z2, T2 = other.X, other.Y, other.Z, other.T
        return _element(
            self.p, X1 * X2 + Y1 * Z2, X1 * Y2 + Y1 * T2, Z1 * X2 + T1 * Z2, Z1 * Y2 + T1 * T2, self.D * other.D
        )

    def inv(self) -> "GroupElement":
        if self._inv is None:
            D = self.D
            self._inv = _element(self.p, self.T * D, -self.Y * D, -self.Z * D, self.X * D, self.N)
        return self._inv

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.X == other.X
            and self.Y == other.Y
            and self.Z == other.Z
            and self.T == other.T
            and self.D == other.D
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.p, self.X, self.Y, self.Z, self.T, self.D))

    def __repr__(self):
        x, y, z, t = (Fraction(e, self.D) for e in (self.X, self.Y, self.Z, self.T))
        return f"[{x} {y}; {z} {t}]"

    def cartan_gap(self) -> int:
        """|alpha - beta| for the Cartan form k1 diag(pi^alpha, pi^beta) k2.

        Right translation by g maps level-m sections to level-(m + gap)
        sections, since K(m + gap) lands inside g K(m) g^{-1}.
        """
        p = self.p
        mn = min(vp(e, p) for e in (self.X, self.Y, self.Z, self.T) if e)
        return abs(vp(self.N, p) - 2 * mn)

    # -- subgroup membership -------------------------------------------------
    def in_K(self) -> bool:
        # D is prime to p exactly when every entry is integral (gcd is 1)
        p = self.p
        return bool(self.D % p and self.N % p)

    def in_iwahori(self, n: int) -> bool:
        return self.in_K() and not self.Z % self.p**n

    def is_diagonal(self) -> bool:
        return not (self.Y or self.Z)


def _element(p: int, X: int, Y: int, Z: int, T: int, D: int) -> GroupElement:
    """The element (X Y; Z T)/D, brought to normal form."""
    g = _new(GroupElement)
    g._set(p, X, Y, Z, T, D)
    return g


def pivot(Z: int, T: int, p: int) -> int:
    """The bottom-row entry of least valuation, T on ties (so `== T` tells that case)."""
    return T if vp(T, p) <= vp(Z, p) else Z


def iwasawa(g: GroupElement) -> tuple[GroupElement, GroupElement]:
    """g = b * k with b upper triangular, k in K, at pivot(); for the tests and the tracer."""
    p, X, Y, Z, T, D, N = g.p, g.X, g.Y, g.Z, g.T, g.D, g.N
    if pivot(Z, T, p) == T:  # pivot (2,2): k = (1 0; z/t 1), b = (det/t y; 0 t)
        k = _element(p, T, 0, Z, T, T)
        b = _element(p, N, Y * T, 0, T * T, D * T)
    else:  # pivot (2,1): k = (0 -1; 1 t/z), b = (det/z x; 0 z)
        k = _element(p, 0, -Z, Z, T, Z)
        b = _element(p, N, X * Z, 0, Z * Z, D * Z)
    assert b * k == g
    return b, k


def in_T_In(g: GroupElement, n: int):
    """Witness factorization g = t * k with t in T and k in I(n), or None.

    Scaling each row to a primitive vector is the only candidate up to units,
    and I(n) absorbs unit diagonal factors, so one check decides membership.
    """
    p, X, Y, Z, T, D = g.p, g.X, g.Y, g.Z, g.T, g.D
    a1 = min(vp(X, p), vp(Y, p))
    a2 = min(vp(Z, p), vp(T, p))
    if a1 is INF or a2 is INF:
        return None
    vd = vp(D, p)
    # t = diag(pi^(a1 - vd), pi^(a2 - vd)); k = t^-1 g has primitive rows
    s = min(a1, a2, vd)
    t = _element(p, p ** (a1 - s), 0, 0, p ** (a2 - s), p ** (vd - s))
    k = _element(p, X // p**a1, Y // p**a1, Z // p**a2, T // p**a2, D // p**vd)
    if k.in_iwahori(n):
        return t, k
    return None
