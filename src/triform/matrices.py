"""Invertible 2x2 matrices over F = Q_p, with the subgroup tests and the
Iwasawa decomposition that every section evaluation runs through.

Conventions: K = GL_2(O), K(m) the principal congruence subgroup, I(n) the
congruence subgroup with lower-left entry divisible by pi^n, T the diagonal
torus, B the upper-triangular Borel.  gamma = diag(pi, 1), w = antidiagonal.
"""

from __future__ import annotations

from fractions import Fraction

from .padic import INF, PadicRational


class GroupElement:
    """An element of GL_2(F); entries (x, y; z, t)."""

    __slots__ = ("p", "x", "y", "z", "t", "_det", "_inv")

    def __init__(self, p: int, x, y, z, t):
        self.p = p
        self.x = x if isinstance(x, PadicRational) else PadicRational(x, p)
        self.y = y if isinstance(y, PadicRational) else PadicRational(y, p)
        self.z = z if isinstance(z, PadicRational) else PadicRational(z, p)
        self.t = t if isinstance(t, PadicRational) else PadicRational(t, p)
        self._det = None
        self._inv = None
        if self.det().is_zero():
            raise ValueError("singular matrix is not a group element")

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

    # -- structure ---------------------------------------------------------
    def det(self) -> PadicRational:
        if self._det is None:
            self._det = self.x * self.t - self.y * self.z
        return self._det

    def entries(self):
        return (self.x, self.y, self.z, self.t)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(
            self.p,
            self.x * other.x + self.y * other.z,
            self.x * other.y + self.y * other.t,
            self.z * other.x + self.t * other.z,
            self.z * other.y + self.t * other.t,
        )

    def inv(self) -> "GroupElement":
        if self._inv is None:
            d = self.det()
            self._inv = GroupElement(self.p, self.t / d, -self.y / d, -self.z / d, self.x / d)
        return self._inv

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self.entries() == other.entries()

    def __hash__(self):
        return hash((self.p,) + tuple(e.value for e in self.entries()))

    def __repr__(self):
        return f"[{self.x} {self.y}; {self.z} {self.t}]"

    def cartan_gap(self) -> int:
        """|alpha - beta| for the Cartan form k1 diag(pi^alpha, pi^beta) k2.

        Right translation by g maps level-m sections to level-(m + gap)
        sections, since K(m + gap) lands inside g K(m) g^{-1}.
        """
        mn = min(e.val() for e in self.entries() if not e.is_zero())
        return abs(self.det().val() - 2 * mn)

    # -- subgroup membership -------------------------------------------------
    def in_K(self) -> bool:
        return all(e.is_integral() for e in self.entries()) and self.det().val() == 0

    def in_K_principal(self, m: int) -> bool:
        if not self.in_K():
            return False
        return (
            (self.x - 1).is_zero() or (self.x - 1).val() >= m
        ) and (
            self.y.is_zero() or self.y.val() >= m
        ) and (
            self.z.is_zero() or self.z.val() >= m
        ) and ((self.t - 1).is_zero() or (self.t - 1).val() >= m)

    def in_iwahori(self, n: int) -> bool:
        return self.in_K() and (self.z.is_zero() or self.z.val() >= n)

    def is_upper(self) -> bool:
        return self.z.is_zero()

    def is_diagonal(self) -> bool:
        return self.y.is_zero() and self.z.is_zero()

    def in_T_cap_K(self) -> bool:
        return self.is_diagonal() and self.x.is_unit() and self.t.is_unit()

    def in_R_star(self, n: int) -> bool:
        """gamma^{-n} K gamma^n membership."""
        g = GroupElement.gamma(self.p, n)
        return (g * self * g.inv()).in_K()


def iwasawa(g: GroupElement) -> tuple[GroupElement, GroupElement]:
    """g = b * k with b upper triangular, k in K with det a unit.

    Pivot on the bottom-row entry of minimal valuation, preferring (2,2) on
    ties, so decompositions are reproducible.
    """
    p = g.p
    vz = g.z.val()
    vt = g.t.val()
    if vt <= vz:  # pivot (2,2): k = (1 0; z/t 1)
        k = GroupElement.lower(p, g.z / g.t)
        b = GroupElement(p, g.det() / g.t, g.y, 0, g.t)
    else:  # pivot (2,1): k = (0 -1; 1 t/z)
        k = GroupElement(p, 0, -1, 1, g.t / g.z)
        b = GroupElement(p, g.det() / g.z, g.x, 0, g.z)
    assert b * k == g
    return b, k


def in_T_In(g: GroupElement, n: int):
    """Witness factorization g = t * k with t in T and k in I(n), or None.

    Scaling each row to a primitive vector is the only candidate up to units,
    and I(n) absorbs unit diagonal factors, so one check decides membership.
    """
    p = g.p
    pi = Fraction(p)
    v1 = min(g.x.val(), g.y.val())
    v2 = min(g.z.val(), g.t.val())
    if v1 is INF or v2 is INF:
        return None
    t = GroupElement.diag(p, pi**v1, pi**v2)
    k = t.inv() * g
    if k.in_iwahori(n):
        return t, k
    return None
