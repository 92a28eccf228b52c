"""Finite coset enumeration: the tables that turn every integral into a sum.

Cells of P^1(O/p^m) are indexed chart-first: bottom rows (z : 1) for
z in O/p^m (lifted to (1 0; z 1)), then (1 : t) for t in pO/p^m (lifted to
(0 1; 1 t)).  Haar is normalized by mass(K) = 1, mass(O, +) = 1,
mass(O*, x) = 1; all cell weights are exact Fractions.
"""

from __future__ import annotations

from fractions import Fraction

from .context import Context
from .errors import TriformError
from .matrices import GroupElement
from .padic import ratio_val, residue

ENUMERATION_CAP = 300_000


def units_mod(p: int, m: int) -> list[int]:
    return [x for x in range(1, p**m) if x % p != 0]


def p1_size(p: int, m: int) -> int:
    return p**m + p ** (m - 1)


def gl2_size(p: int, m: int) -> int:
    return p ** (4 * (m - 1)) * (p**2 - 1) * (p**2 - p)


class CosetTable:
    def __init__(self, kind: str, level: int, n: int, reps: list, weight: Fraction):
        self.kind, self.level, self.n, self.reps = kind, level, n, reps
        self.weight = weight  # the mass of each cell

    def __len__(self):
        return len(self.reps)

    def total_mass(self) -> Fraction:
        return self.weight * len(self.reps)

    def dump(self) -> str:
        lines = [f"# {self.kind} level {self.level}" + (f" n {self.n}" if self.n else "")]
        for g in self.reps:
            lines.append(f"level {self.level}: {g!r}")
        return "\n".join(lines)


class P1Table:
    """P^1(O/p^m) with canonical representatives and cell lookup."""

    def __init__(self, ctx: Context, m: int):
        if m < 1:
            raise TriformError("level must be >= 1")
        ctx.check_level(m)
        self.ctx = ctx
        self.m = m
        p = ctx.p
        self.size = p1_size(p, m)
        self.reps: list[GroupElement] = []
        self.coords: list[tuple[int, int]] = []  # (chart, key)
        self.rows: list[tuple[int, int]] = []  # the bottom row (z, t) of each rep, as ints
        for z in range(p**m):
            self.reps.append(GroupElement.lower(p, z))
            self.coords.append((0, z))
            self.rows.append((z, 1))
        for j in range(p ** (m - 1)):
            t = p * j
            # determinant-one lift, so chart changes never hide a sign twist
            self.reps.append(GroupElement(p, 0, -1, 1, t))
            self.coords.append((1, t))
            self.rows.append((1, t))
        self.cell_mass = Fraction(1, self.size)

    def cell_of_row(self, z, t) -> int:
        """Cell index of the projective class of a primitive row (z, t), each
        entry a pair (numerator, denominator) of ints."""
        p, m = self.ctx.p, self.m
        (zn, zd), (tn, td) = z, t
        if tn and ratio_val(tn, td, p) == 0:
            return residue(zn * td, zd * tn, p, m)
        if not zn or ratio_val(zn, zd, p) != 0:
            raise TriformError(f"row ({Fraction(zn, zd)}, {Fraction(tn, td)}) is not primitive")
        return p**m + residue(tn * zd, td * zn, p, m) // p

    def as_coset_table(self) -> CosetTable:
        return CosetTable("P1", self.m, 0, list(self.reps), self.cell_mass)


def p1_table(ctx: Context, m: int) -> P1Table:
    return ctx.cache(("p1", m), lambda: P1Table(ctx, m))


def enumeration_refusal(p: int, n: int, m: int) -> str | None:
    """Why I(n)/K(m) (K/K(m) for n = 0) has too many cosets to list, or None:
    its size, |GL_2(O/p^m)|/[K : I(n)], against ENUMERATION_CAP."""
    size = gl2_size(p, m) // (p1_size(p, n) if n else 1)
    if size > ENUMERATION_CAP:
        return f"level too deep: |{f'I({n})' if n else 'K'}/K({m})| = {size} exceeds cap"
    return None


def enumerate_K_mod(ctx: Context, m: int) -> CosetTable:
    """All of GL_2(O/p^m), lifted; a validation oracle (m small)."""
    p = ctx.p
    refusal = enumeration_refusal(p, 0, m)
    if refusal:
        raise TriformError(refusal)
    size = gl2_size(p, m)
    mod = p**m
    reps = []
    for x in range(mod):
        for y in range(mod):
            for z in range(mod):
                for t in range(mod):
                    if (x * t - y * z) % p != 0:
                        reps.append(GroupElement(p, x, y, z, t))
    assert len(reps) == size
    return CosetTable("K/K(m)", m, 0, reps, Fraction(1, size))


def enumerate_iwahori_mod(ctx: Context, n: int, m: int) -> CosetTable:
    """I(n)/K(m) via the Iwahori factorization nbar(pi^n zbar) diag(e1,e2) n(x)."""
    if m < n or m < 1 or n < 0:
        raise TriformError("need m >= n >= 0, m >= 1")
    ctx.check_level(m)
    p = ctx.p
    if n == 0:
        raise TriformError("I(0) = K; use enumerate_K_mod")
    refusal = enumeration_refusal(p, n, m)
    if refusal:
        raise TriformError(refusal)
    reps = []
    us = units_mod(p, m)
    for zbar in range(p ** (m - n)):
        low = GroupElement.lower(p, p**n * zbar)
        for e1 in us:
            for e2 in us:
                d = GroupElement.diag(p, e1, e2)
                ld = low * d
                for x in range(p**m):
                    reps.append(ld * GroupElement.upper(p, x))
    return CosetTable("I(n)/K(m)", m, n, reps, Fraction(1, gl2_size(p, m)))


def enumerate_T_cap_K_mod(ctx: Context, m: int) -> CosetTable:
    p = ctx.p
    us = units_mod(p, m)
    reps = [GroupElement.diag(p, e1, e2) for e1 in us for e2 in us]
    return CosetTable("TcapK", m, 0, reps, Fraction(1, len(reps)))


def torus_orbit_reps(ctx: Context, n: int, m: int) -> CosetTable:
    """(T cap K)\\I(n)/K(m) orbit representatives nbar(pi^n zbar) n(x), with the
    T\\G quotient mass of each orbit cell as weight.

    Each orbit has full size [T cap K : T cap K(m)], so the cell mass is
    [T cap K : T cap K(m)] / [K : K(m)]; the total is 1/[K : I(n)].
    """
    if n < 1 or m < n:
        raise TriformError("need m >= n >= 1")
    ctx.check_level(m)
    p = ctx.p
    reps = []
    for zbar in range(p ** (m - n)):
        low = GroupElement.lower(p, p**n * zbar)
        for x in range(p**m):
            reps.append(low * GroupElement.upper(p, x))
    t_index = len(units_mod(p, m)) ** 2
    table = CosetTable("TmodG-I(n)", m, n, reps, Fraction(t_index, gl2_size(p, m)))
    assert table.total_mass() == Fraction(1, p1_size(p, n))
    return table


def iwahori_orbit_key(ctx: Context, k: GroupElement, n: int, m: int) -> tuple[int, int]:
    """The (T cap K)\\I(n)/K(m) orbit invariant of k in I(n).

    Writing k = nbar(u) diag(e1, e2) n(x), the orbit is determined by
    (u * e1/e2, x) mod p^m.  With k = (X Y; Z T)/D and N = XT - YZ these are
    u * e1/e2 = ZX/N and x = Y/X; X and N are units on I(n) for n >= 1.
    """
    if n < 1 or not k.in_iwahori(n):
        raise TriformError("element not in I(n) with n >= 1")
    p = k.p
    return residue(k.Z * k.X, k.N, p, m), residue(k.Y, k.X, p, m)
