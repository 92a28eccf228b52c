"""Finite-level models of the representations in play.

An InducedModel is the space of functions f(bg) = chi(b) delta(b)^{1/2} f(g)
on G, smooth under right translation.  A level-m TableSection stores values on
the P^1(O/p^m) cells; a Section is a formal sum of right-translates of table
sections, so group translation is exact and never forces a table rebuild.
The Steinberg model is the zero-K-average subspace of the induced model at the
special parameter point (|.|^{1/2}, |.|^{-1/2}).
"""

from __future__ import annotations

from math import lcm

from .characters import BorelCharacter, SmoothCharacter, unit_group_generators
from .context import MAX_LEVEL, Context
from .cosets import p1_table
from .errors import TriformError
from .matrices import GroupElement, pivot
from .scalars import Scalar, sum_products


class InducedModel:
    def __init__(self, ctx: Context, borel: BorelCharacter, tag: str = "", steinberg: bool = False):
        self.ctx = ctx
        self.borel = borel
        self.tag = tag or f"Ind({borel.chi_a.render_spec()}, {borel.chi_d.render_spec()})"
        self.steinberg = steinberg
        self.min_level = max(1, borel.conductor())
        self._actions: dict = {}  # (level, k mod p^level), and read_actions' keys -> action

    def fixed_level(self, n: int, level: int | None = None) -> int:
        """The table level of the I(n)-fixed space: `level`, raised to n and to min_level."""
        return max(level or 0, n, self.min_level)

    def require_level(self, level: int):
        """Refuse a table level below the conductor.

        The (B cap K)-stabilizer {b : rep^{-1} b rep in K(level)} of a cell pins
        b = 1 mod p^level on every cell, so the twist is trivial on all cells
        once level >= conductor and on none below: a level either carries every
        table or none.  (test_stabilizer_twist_brute_force checks this.)
        """
        if level < self.min_level:
            raise TriformError(
                f"refine level: level {level} cannot carry sections of {self.tag} (needs >= {self.min_level})"
            )

    def cell(self, Z: int, T: int, level: int) -> tuple[int, int]:
        """The cell j of g with bottom row (Z, T)/D and g's pivot piv (matrices.pivot):
        g = b k, b in B of diagonal (N/(D piv), piv/D) for det g = N/D^2, and
        k = (1 0; z 1) or (0 -1; 1 t) = rep_j (1 0; delta 1), delta = 0 mod p^level."""
        piv = pivot(Z, T, self.ctx.p)
        return p1_table(self.ctx, level).cell_of_row((Z, piv), (T, piv)), piv

    def locate(self, Z: int, T: int, D: int, N: int, level: int) -> tuple[int, Scalar]:
        """The cell j and the factor c with f(g) = c f(rep_j) for every level-`level`
        section f, for g with bottom row (Z, T)/D and determinant N/D^2 (ints, not
        necessarily in lowest terms): g = b rep_j mod the normal subgroup K(level)
        (`cell`), which carries no Borel twist, so c = chi delta^{1/2}(b)."""
        j, piv = self.cell(Z, T, level)
        return j, self.borel.eval((N, D * piv), (piv, D))

    def action(self, k: GroupElement, level: int) -> tuple:
        """One (j, e) per cell i with f(rep_i k) = zeta_M^e f(rep_j) for every
        level-`level` section f, k in K; memoized by k mod p^level, as sections are
        right-K(level)-invariant.  rep_i has det 1 and bottom row (z, t), so rep_i k
        has bottom row (z X + t Z, z Y + t T)/D and det N/D^2, all that locate
        reads; its pivot and N/(D piv) are units, so locate's factor is the root
        of unity chi_a(N/(D piv)) chi_d(piv/D), read here as its exponent."""
        key = (level, _k_residue(k, level))
        if key not in self._actions:
            X, Y, Z, T, D, N = k.X, k.Y, k.Z, k.T, k.D, k.N
            chi_a, chi_d, m = self.borel.chi_a, self.borel.chi_d, self.ctx.field.m
            cells = (self.cell(z * X + t * Z, z * Y + t * T, level) for z, t in p1_table(self.ctx, level).rows)
            self._actions[key] = tuple((j, (chi_a.val_exponent(N, D * piv)[1] + chi_d.val_exponent(piv, D)[1]) % m) for j, piv in cells)
        return self._actions[key]

    def read_actions(self, level: int, cell: int, u: int) -> tuple:
        """The actions of rep_cell^{-1} and diag(u, 1) a phi read applies, memoized
        also by (level, cell) and (level, u): a read builds no GroupElement."""
        back = self._actions.get(("cell", level, cell))
        if back is None:
            back = self._actions["cell", level, cell] = self.action(p1_table(self.ctx, level).reps[cell].inv(), level)
        fold = self._actions.get(("unit", level, u))
        if fold is None:
            fold = self._actions["unit", level, u] = self.action(GroupElement.diag(self.ctx.p, u, 1), level)
        return back, fold

    def __repr__(self):
        return f"InducedModel<{self.tag}>"


def _k_residue(k: GroupElement, level: int) -> tuple[int, int, int, int]:
    """The entries of k in K mod p^level."""
    if not k.in_K():
        raise TriformError("the action on cells needs k in K; use Section for general g")
    mod = k.p**level
    d = pow(k.D, -1, mod)
    return k.X * d % mod, k.Y * d % mod, k.Z * d % mod, k.T * d % mod


def principal_series_model(ctx: Context, mu: SmoothCharacter, tag: str = "") -> InducedModel:
    return InducedModel(ctx, BorelCharacter(mu, mu.inverse()), tag=tag)


def steinberg_model(ctx: Context) -> InducedModel:
    """Normalized induction at (|.|^{1/2}, |.|^{-1/2}); Sp is the zero-average subspace."""
    chi_a = SmoothCharacter.norm_power_half(ctx, 1)
    chi_d = SmoothCharacter.norm_power_half(ctx, -1)
    return InducedModel(ctx, BorelCharacter(chi_a, chi_d), tag="Steinberg", steinberg=True)


def table_level(level: int) -> int:
    """The level of the P^1 table or unit group that carries a function
    right-K(level)-invariant: level itself, raised to 1, as level 0 (K
    itself) has no P^1(O/p^0) table to build."""
    return max(1, level)


class TableSection:
    """A level-m section: Scalar values on the P^1(O/p^m) cells, held as its
    support, the dict cell -> value of its nonzero cells.

    k_level is the least l the table is known to be right-K(l)-invariant at:
    0 where every cell holds one value on an unramified model (B(O) acts
    trivially, so f(bk) = chi delta^{1/2}(b) f(1) is K-invariant; the
    Steinberg model is such an induced model), m otherwise.  Two caches live on
    the table and die with it: its support counted in ints (zeta), and its phi values, which
    TorusFunctional.phi_table keys by (functional, cell, unit of x0 mod p^m,
    val x0).  No translate of the table is ever built.
    """

    __slots__ = ("model", "level", "support", "k_level", "_zeta", "phi_values")

    def __init__(self, model: InducedModel, level: int, values):
        model.require_level(level)
        n = len(p1_table(model.ctx, level).reps)
        values = [model.ctx.scalar(v) for v in values]
        if len(values) != n:
            raise TriformError(f"expected {n} cell values, got {len(values)}")
        self.model = model
        self.level = level
        self.support = {j: v for j, v in enumerate(values) if not v.is_zero()}
        spherical = model.borel.conductor() == 0
        constant = len(self.support) in (0, n) and all(v is values[0] or v == values[0] for v in values)
        self.k_level = 0 if spherical and constant else level
        self._zeta = None
        self.phi_values: dict = {}

    @property
    def zeta(self) -> tuple:
        """(den, counts), the support counted in ints over one int den on first read (phi, the kernel),
        whose (e, n) and den become their sum_products items:
        cell -> (None, pairs), the value being sum n zeta_M^e / den over (e, n) in pairs
        (Scalar.zeta_counts), or cell -> (value, ((0, den),)) for a value outside Q(zeta_M), one object per value."""
        if self._zeta is None:
            counted = {j: v.zeta_counts() for j, v in self.support.items()}
            den = lcm(*(c[1] for c in counted.values() if c))
            first: dict = {}  # (num, den) -> the one object the kernel, keying values by identity, sees for it
            same = {j: first.setdefault((v.num, v.den), v) for j, v in self.support.items() if not counted[j]}
            self._zeta = den, {j: (None, tuple((e, k * den // c[1]) for e, k in c[0])) if c else (same[j], ((0, den),)) for j, c in counted.items()}
        return self._zeta

    @property
    def values(self) -> list:
        """The dense list of cell values, zeros included, built from the support on each read."""
        zero = self.ctx.zero()
        return [self.support.get(j, zero) for j in range(p1_table(self.ctx, self.level).size)]

    @property
    def ctx(self) -> Context:
        return self.model.ctx

    def eval(self, g: GroupElement) -> Scalar:
        j, c = self.model.locate(g.Z, g.T, g.D, g.N, self.level)
        return c * self.support.get(j, self.ctx.zero())

    def k_average(self) -> Scalar:
        """Integral over K (unramified models only: ramified cells average to 0)."""
        if self.model.borel.conductor() != 0:
            raise TriformError("K-average is only computed on unramified-twist models")
        mass = self.ctx.scalar(p1_table(self.ctx, self.level).cell_mass)
        return sum_products(self.ctx.field, (((mass, v), 0, 1) for v in self.support.values()))

    def dump(self) -> str:
        """Deterministic cell -> scalar dump: `cell (z:t) -> scalar`."""
        table = p1_table(self.ctx, self.level)
        lines = []
        for (chart, key), v in zip(table.coords, self.values):
            zt = f"({key}:1)" if chart == 0 else f"(1:{key})"
            lines.append(f"cell {zt} -> {v.render()}")
        return "\n".join(lines)

    def as_section(self) -> "Section":
        """The table as a one-term Section, the empty sum where it vanishes."""
        return Section(self.model, ((self.ctx.one(), GroupElement.identity(self.ctx.p), self),) if self.support else ())


class Section:
    """A finite formal sum  sum_i c_i * (right-translate by g_i of a table),
    every c_i nonzero: a zero-coefficient term is dropped when the sum is made.

    Evaluation is exact: eval(x) = sum c_i * table_i(x * g_i).  Translation by
    any group element is lazy, so no level management is ever needed for
    evaluation; a table is materialized only on demand (as_table), at a level
    that guarantees right K(level)-invariance.
    """

    __slots__ = ("model", "terms")

    def __init__(self, model: InducedModel, terms):
        self.model = model
        self.terms = tuple((c, g, t) for (c, g, t) in terms if not c.is_zero())

    @property
    def ctx(self) -> Context:
        return self.model.ctx

    def factors(self, Z: int, T: int, D: int, N: int):
        """One tuple (c, chi delta^{1/2} factor of locate, table value) per term of
        section(x) = sum c tbl(x g) whose cell is in the table's support, for x
        with bottom row (Z, T)/D and determinant N/D^2: no new Scalar and no
        matrix.  x g has bottom row (Z g.X + T g.Z, Z g.Y + T g.T)/(D g.D) and
        determinant numerator N g.N, which is all that locate reads."""
        for c, g, tbl in self.terms:
            j, f = tbl.model.locate(Z * g.X + T * g.Z, Z * g.Y + T * g.T, D * g.D, N * g.N, tbl.level)
            v = tbl.support.get(j)
            if v is not None:
                yield c, f, v

    def eval(self, x: GroupElement) -> Scalar:
        return sum_products(self.ctx.field, ((fs, 0, 1) for fs in self.factors(x.Z, x.T, x.D, x.N)))

    def translated(self, h: GroupElement) -> "Section":
        """The right-translation action: result(x) = self(x * h)."""
        return Section(self.model, tuple((c, h * g, tbl) for c, g, tbl in self.terms))

    def __add__(self, other: "Section") -> "Section":
        if other.model is not self.model:
            raise TriformError("section addition needs a common model")
        return Section(self.model, self.terms + other.terms)

    def __sub__(self, other: "Section") -> "Section":
        return self + other.scaled(self.ctx.scalar(-1))

    def scaled(self, c) -> "Section":
        c = self.ctx.scalar(c)
        return Section(self.model, tuple((c * c0, g, t) for c0, g, t in self.terms))

    def level_bound(self) -> int:
        """A level l at which the section is right-K(l)-invariant, 0 for K itself.

        A term tbl(x g) is right-invariant under g^{-1} K(k) g, which holds
        K(k + cartan_gap(g)) for k = tbl.k_level, so the sum is invariant at the
        largest of those levels; the empty sum is K-invariant."""
        return max((tbl.k_level + g.cartan_gap() for _, g, tbl in self.terms), default=0)

    def table_level(self) -> int:
        """The least level a table or unit group of the section is built at."""
        return table_level(self.level_bound())

    def as_table(self, level: int | None = None) -> TableSection:
        lvl = level if level is not None else self.table_level()
        if lvl < self.level_bound():
            raise TriformError(f"refine level: need >= {self.level_bound()}, got {lvl}")
        (c, g, tbl), *more = self.terms or ((None, None, None),)
        if not more and tbl is not None and tbl.level == lvl and c.is_one() and g == GroupElement.identity(self.ctx.p):
            return tbl  # the section of one table, untranslated
        reps = p1_table(self.ctx, lvl).reps
        return TableSection(self.model, lvl, [self.eval(rep) for rep in reps])


def sections_equal(s1: Section, s2: Section) -> bool:
    lvl = max(s1.table_level(), s2.table_level())
    t1 = s1.as_table(lvl)
    t2 = s2.as_table(lvl)
    return all((x - y).is_zero() for x, y in zip(t1.values, t2.values))


# ---------------------------------------------------------------------------
# fixed vectors under the congruence subgroups, and conductors
# ---------------------------------------------------------------------------


def iwahori_generators(ctx: Context, n: int, level: int) -> list[GroupElement]:
    """Generators of I(n) modulo K(level) (of K itself when n = 0)."""
    p = ctx.p
    gens: list[GroupElement] = [GroupElement.upper(p, 1)]
    for g, _ in unit_group_generators(p, level):
        gens.append(GroupElement.diag(p, g, 1))
        gens.append(GroupElement.diag(p, 1, g))
    if n == 0:
        gens.append(GroupElement.w(p))
        gens.append(GroupElement.lower(p, 1))
    else:
        gens.append(GroupElement.lower(p, p**n))
    return gens


def fixed_space(model: InducedModel, n: int, level: int | None = None) -> list:
    """Basis of the I(n)-fixed vectors in the level-`level` table space.

    A fixed v has v[i] = zeta_M^e v[j] for each generator's (j, e) at cell i
    (InducedModel.action), so one value pins it on an orbit of the generators.
    Walked from its first cell with value 1, an orbit gives one fixed line when
    every edge closes, and none otherwise.  For the Steinberg model the zero
    K-average is one relation on those lines, so the answer lives in Sp itself.
    """
    ctx = model.ctx
    lvl = model.fixed_level(n, level)
    actions = [model.action(g, lvl) for g in iwahori_generators(ctx, n, lvl)]
    ncols, zero, zeta, m = len(actions[0]), ctx.zero(), ctx.zeta_powers, ctx.field.m
    seen: set[int] = set()
    lines = []
    for start in range(ncols):
        if start in seen:
            continue
        orbit, v, closed = [start], {start: ctx.one()}, True
        for i in orbit:  # the orbit grows as it is walked
            for act in actions:
                j, e = act[i]
                if j not in v:
                    v[j] = v[i] * zeta[-e % m]
                    orbit.append(j)
                elif v[j] * zeta[e] != v[i]:
                    closed = False
        seen.update(orbit)
        if closed:
            lines.append([v.get(i, zero) for i in range(ncols)])
    if model.steinberg:  # zero K-average cuts Sp out of the induced model
        sums = [sum(line, zero) for line in lines]
        pivot = next((k for k, s in enumerate(sums) if not s.is_zero()), None)
        if pivot is not None:
            base, base_sum = lines.pop(pivot), sums.pop(pivot)
            lines = [[x - s / base_sum * y for x, y in zip(line, base)] for line, s in zip(lines, sums)]
    return lines


def new_vector_unramified(model: InducedModel) -> Section:
    """The constant-1 table: the spherical vector of an unramified model."""
    if model.borel.conductor() != 0 or model.steinberg:
        raise TriformError("unramified new vector requested on a ramified (or Steinberg) model")
    tbl = TableSection(model, 1, [model.ctx.one()] * len(p1_table(model.ctx, 1).reps))
    return tbl.as_section()


def new_vector_by_solve(model: InducedModel, n: int, level: int | None = None) -> Section:
    basis = fixed_space(model, n, level)
    if len(basis) == 0:
        raise TriformError(f"I({n})-fixed space has dimension 0 (n below the conductor?)")
    if len(basis) > 1:
        raise TriformError(f"I({n})-fixed space has dimension {len(basis)} (level too coarse or model error)")
    vec = basis[0]
    inv = next(v for v in vec if not v.is_zero()).inverse()  # the identity cell's value when nonzero
    lvl = model.fixed_level(n, level)
    tbl = TableSection(model, lvl, [inv * v for v in vec])
    return tbl.as_section()


def conductor_search(model: InducedModel) -> int:
    """Minimal n with a nonzero I(n)-fixed vector (in Sp for Steinberg), up to table level MAX_LEVEL."""
    n = 0
    while model.fixed_level(n) <= MAX_LEVEL:
        dim = len(fixed_space(model, n))
        if dim:
            if dim != 1:
                raise TriformError(f"fixed space at n = {n} has dimension {dim}, expected 1")
            return n
        n += 1
    raise TriformError(f"no fixed vector found at a table level up to {MAX_LEVEL}")
