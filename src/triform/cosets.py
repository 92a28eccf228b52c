"""Finite coset enumeration: the tables that turn every integral into a sum.

Cells of P^1(O/p^m) are indexed chart-first: bottom rows (z : 1) for
z in O/p^m (lifted to (1 0; z 1)), then (1 : t) for t in pO/p^m (lifted to
(0 1; 1 t)).  Haar is normalized by mass(K) = 1, mass(O, +) = 1,
mass(O*, x) = 1; all cell weights are exact Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .context import Context, LevelTooDeepError
from .matrices import GroupElement

ENUMERATION_CAP = 300_000


def units_mod(p: int, m: int) -> list[int]:
    return [x for x in range(1, p**m) if x % p != 0]


def p1_size(p: int, m: int) -> int:
    return p**m + p ** (m - 1)


def gl2_size(p: int, m: int) -> int:
    return p ** (4 * (m - 1)) * (p**2 - 1) * (p**2 - p)


@dataclass
class CosetTable:
    kind: str
    level: int
    n: int
    reps: list
    weights: list
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.reps)

    def total_mass(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    def dump(self) -> str:
        lines = [f"# {self.kind} level {self.level}" + (f" n {self.n}" if self.n else "")]
        for g in self.reps:
            lines.append(f"level {self.level}: [{g.x} {g.y}; {g.z} {g.t}]")
        return "\n".join(lines)


class P1Table:
    """P^1(O/p^m) with canonical representatives and cell lookup."""

    def __init__(self, ctx: Context, m: int):
        if m < 1:
            raise ValueError("level must be >= 1")
        ctx.check_level(m)
        self.ctx = ctx
        self.m = m
        p = ctx.p
        self.size = p1_size(p, m)
        self.reps: list[GroupElement] = []
        self.coords: list[tuple[int, int]] = []  # (chart, key)
        for z in range(p**m):
            self.reps.append(GroupElement.lower(p, z))
            self.coords.append((0, z))
        for j in range(p ** (m - 1)):
            t = p * j
            # determinant-one lift, so chart changes never hide a sign twist
            self.reps.append(GroupElement(p, 0, -1, 1, t))
            self.coords.append((1, t))
        self.cell_mass = Fraction(1, self.size)

    def cell_of_row(self, z, t) -> int:
        """Cell index of the projective class of a primitive row (z, t)."""
        p, m = self.ctx.p, self.m
        mod = p**m
        if not t.is_zero() and t.val() == 0:
            key = z.residue(m) * pow(t.residue(m), -1, mod) % mod if not z.is_zero() else 0
            return key
        if z.is_zero() or z.val() != 0:
            raise ValueError(f"row ({z}, {t}) is not primitive")
        key = t.residue(m) * pow(z.residue(m), -1, mod) % mod if not t.is_zero() else 0
        return p**m + key // p

    def cell_of(self, k: GroupElement) -> int:
        return self.cell_of_row(k.z, k.t)

    def children(self, idx: int) -> list[int]:
        """The p cells at level m+1 refining cell idx (indices in the m+1 table)."""
        p, m = self.ctx.p, self.m
        chart, key = self.coords[idx]
        if chart == 0:
            return [key + j * p**m for j in range(p)]
        base = p ** (m + 1)
        return [base + (key + j * p**m) // p for j in range(p)]

    def as_coset_table(self) -> CosetTable:
        return CosetTable("P1", self.m, 0, list(self.reps), [self.cell_mass] * self.size)


def p1_table(ctx: Context, m: int) -> P1Table:
    return ctx.cache(("p1", m), lambda: P1Table(ctx, m))


def enumerate_K_mod(ctx: Context, m: int) -> CosetTable:
    """All of GL_2(O/p^m), lifted; a validation oracle (m small)."""
    p = ctx.p
    size = gl2_size(p, m)
    if size > ENUMERATION_CAP:
        raise LevelTooDeepError(f"level too deep: |K/K({m})| = {size} exceeds cap")
    mod = p**m
    reps = []
    for x in range(mod):
        for y in range(mod):
            for z in range(mod):
                for t in range(mod):
                    if (x * t - y * z) % p != 0:
                        reps.append(GroupElement(p, x, y, z, t))
    assert len(reps) == size
    w = Fraction(1, size)
    return CosetTable("K/K(m)", m, 0, reps, [w] * size)


def enumerate_iwahori_mod(ctx: Context, n: int, m: int) -> CosetTable:
    """I(n)/K(m) via the Iwahori factorization nbar(pi^n zbar) diag(e1,e2) n(x)."""
    if m < n or m < 1 or n < 0:
        raise ValueError("need m >= n >= 0, m >= 1")
    ctx.check_level(m)
    p = ctx.p
    if n == 0:
        raise ValueError("I(0) = K; use enumerate_K_mod")
    reps = []
    us = units_mod(p, m)
    size_est = p ** (m - n) * len(us) ** 2 * p**m
    if size_est > ENUMERATION_CAP:
        raise LevelTooDeepError(f"level too deep: |I({n})/K({m})| = {size_est} exceeds cap")
    for zbar in range(p ** (m - n)):
        low = GroupElement.lower(p, p**n * zbar)
        for e1 in us:
            for e2 in us:
                d = GroupElement.diag(p, e1, e2)
                ld = low * d
                for x in range(p**m):
                    reps.append(ld * GroupElement.upper(p, x))
    w = Fraction(1, gl2_size(p, m))
    return CosetTable("I(n)/K(m)", m, n, reps, [w] * len(reps))


def enumerate_T_cap_K_mod(ctx: Context, m: int) -> CosetTable:
    p = ctx.p
    us = units_mod(p, m)
    reps = [GroupElement.diag(p, e1, e2) for e1 in us for e2 in us]
    w = Fraction(1, len(reps))
    return CosetTable("TcapK", m, 0, reps, [w] * len(reps))


def torus_orbit_reps(ctx: Context, n: int, m: int) -> CosetTable:
    """(T cap K)\\I(n)/K(m) orbit representatives nbar(pi^n zbar) n(x), with the
    T\\G quotient mass of each orbit cell as weight.

    Each orbit has full size [T cap K : T cap K(m)], so the cell mass is
    [T cap K : T cap K(m)] / [K : K(m)]; the total is 1/[K : I(n)].
    """
    if n < 1 or m < n:
        raise ValueError("need m >= n >= 1")
    ctx.check_level(m)
    p = ctx.p
    reps = []
    for zbar in range(p ** (m - n)):
        low = GroupElement.lower(p, p**n * zbar)
        for x in range(p**m):
            reps.append(low * GroupElement.upper(p, x))
    t_index = len(units_mod(p, m)) ** 2
    w = Fraction(t_index, gl2_size(p, m))
    table = CosetTable("TmodG-I(n)", m, n, reps, [w] * len(reps))
    assert table.total_mass() == Fraction(1, p1_size(p, n))
    return table


def enumerate(ctx: Context, which: str, m: int, n: int = 0) -> CosetTable:
    """Dispatcher matching the published table names."""
    if which == "P1":
        return p1_table(ctx, m).as_coset_table()
    if which == "K/K(m)":
        return enumerate_K_mod(ctx, m)
    if which == "I(n)/K(m)":
        return enumerate_iwahori_mod(ctx, n, m)
    if which == "TcapK":
        return enumerate_T_cap_K_mod(ctx, m)
    raise ValueError(f"unknown enumeration {which!r}")


def iwahori_orbit_key(ctx: Context, k: GroupElement, n: int, m: int) -> tuple[int, int]:
    """The (T cap K)\\I(n)/K(m) orbit invariant of k in I(n).

    Writing k = nbar(u) diag(e1, e2) n(x), the orbit is determined by
    (u * e1/e2, x) mod p^m.
    """
    if not k.in_iwahori(n):
        raise ValueError("element not in I(n)")
    e1 = k.x
    x = k.y / k.x
    u = k.z / k.x
    e2 = k.t - k.z * k.y / k.x
    key_u = (u * e1 / e2).residue(m) if not u.is_zero() else 0
    return key_u, x.residue(m)
