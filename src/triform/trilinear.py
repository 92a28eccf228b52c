"""The invariant trilinear form: two independent evaluators and the maps of
the orbit exact sequence (ext from the open orbit, res to the diagonal).

ell_chain realizes ell(F (x) v) as the regularized open-orbit integral
  integral over T\\G of F(g, wg) phi(pi(g) v) dg,
parameterized by ordered pairs of projective points via the bottom-row section
matrix; pairs at unit distance are an exact finite sum, near-diagonal strata
collapse to (cell, depth, unit-class) sums closed by verified geometric tails.

A tensor F in V1 (x) V2 (TensorFn) is a V1-table of V2-sections: the section
F(rep, .) for each P^1 cell rep of V1.  Pure tensors and ext(f) are built in
this one form, and ell_chain reads it one way: a near-diagonal pair
(b rep, w b rep) costs one slot-2 evaluation, as F(b rep, .) = chi_1(b) F(rep, .).

KernelForm.eval is the independent oracle: a triple (P^1)^3 integral against a
product of pair characters of the wedge values, the three characters derived
at build time from the equivariance constraints.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import chain

from .characters import SmoothCharacter
from .context import Context
from .cosets import p1_table, units_mod
from .errors import KernelUnsupportedError, TailError, TriformError
from .functionals import CompactInducedFn, TorusFunctional, close_tail
from .matrices import GroupElement
from .models import InducedModel, Section, TableSection, table_level
from .scalars import Scalar, sum_products, zeta_products


class TensorFn:
    """F in V1 (x) V2, held by its first slot, which is right-K(level)-invariant
    (level 0: K-invariant): a table over the P^1 cells of V1 at
    table_level(level) whose entry i is the V2 section F(rep_i, .), the empty
    section where that vanishes.  Left B-equivariance and the right
    invariance in slot 1 give every other F(g1, .) from the table."""

    def __init__(self, model1: InducedModel, level: int, rows):
        self.model1 = model1
        self.level = level
        self.table_level = table_level(level)
        self.rows = list(rows)

    @property
    def ctx(self) -> Context:
        return self.model1.ctx

    @classmethod
    def pure(cls, ctx: Context, coeff, s1: Section, s2: Section) -> "TensorFn":
        """coeff * s1 (x) s2; slot 2 stays a lazy section with its own level bound."""
        coeff = ctx.scalar(coeff)
        level = s1.level_bound()
        rows = [s2.scaled(coeff * s1.eval(rep)) for rep in p1_table(ctx, table_level(level)).reps]
        return cls(s1.model, level, rows)

    def slot1(self, g1: GroupElement) -> Section:
        """The V2 section F(g1, .)."""
        j, c = self.model1.locate(g1.Z, g1.T, g1.D, g1.N, self.table_level)
        return self.rows[j].scaled(c)

    def eval_pair(self, g1: GroupElement, g2: GroupElement) -> Scalar:
        return self.slot1(g1).eval(g2)

    def translated(self, g: GroupElement) -> "TensorFn":
        """The diagonal action of g on V1 (x) V2."""
        level = self.level + g.cartan_gap()
        rows = [self.slot1(rep * g).translated(g) for rep in p1_table(self.ctx, table_level(level)).reps]
        return TensorFn(self.model1, level, rows)

    def level_bound(self) -> int:
        return max([self.level] + [row.level_bound() for row in self.rows])


def ext(f: CompactInducedFn, model1: InducedModel, model2: InducedModel, level: int | None = None) -> TensorFn:
    """The open-orbit extension: the tensor F with F(g, wg) = f(g), vanishing
    on the diagonal orbit, built row by row from its values on cell pairs."""
    ctx = f.ctx
    lvl = max(level or 0, f.level, f.n, 1)
    table = p1_table(ctx, lvl)
    p = ctx.p
    rows = []
    for z1, t1 in table.rows:
        row = []
        for z2, t2 in table.rows:
            # the section matrix sigma = (z2 t2; z1 t1) lies in T I(n) only if
            # its determinant Delta is a unit, so near pairs contribute 0
            delta = z2 * t1 - t2 * z1
            if not delta % p:
                row.append(ctx.zero())
                continue
            fv = f.eval(GroupElement(p, z2, t2, z1, t1))
            if fv.is_zero():
                row.append(ctx.zero())
                continue
            # rep1 = b1 sigma and rep2 = b2 w sigma share the bottom rows of
            # sigma and w sigma and have det 1, so b1 = diag(1/Delta, 1) and
            # b2 = diag(-1/Delta, 1) up to unipotents
            row.append(model1.borel.eval((1, delta), (1, 1)) * model2.borel.eval((-1, delta), (1, 1)) * fv)
        rows.append(TableSection(model2, lvl, row).as_section())
    return TensorFn(model1, lvl, rows)


def closed_form_tensor(ctx: Context, mu1: SmoothCharacter, mu2: SmoothCharacter, v1: Section, v2: Section, n: int, A: Scalar) -> TensorFn:
    """The closed form A * v1' (x) v2' with A = a^n/((a^2-1)(b^2-1)),
    v1' = a gamma^{-(n-1)} v1 - gamma^{-n} v1, v2' = b gamma^{-1} v2 - v2,
    where a, b are the Satake-type values mu_i(pi)/sqrt(q)."""
    a = mu1.value_at_pi / ctx.r
    b = mu2.value_at_pi / ctx.r
    v1p = v1.translated(GroupElement.gamma(ctx.p, -(n - 1))).scaled(a) - v1.translated(GroupElement.gamma(ctx.p, -n))
    v2p = v2.translated(GroupElement.gamma(ctx.p, -1)).scaled(b) - v2
    return TensorFn.pure(ctx, A, v1p, v2p)


def simple_case_pairing(F: TensorFn, mu1: SmoothCharacter, mu2: SmoothCharacter, v3: Section) -> Scalar:
    """The K-integral pairing of res(F): g -> F(g, g), a vector of
    Ind(mu1 mu2, (mu1 mu2)^{-1}), against a Steinberg vector; this is the
    natural surjection route available exactly when mu1 mu2 = |.|^{-1}."""
    ctx = F.ctx
    prod = mu1 * mu2
    if prod.c != 0 or not (prod.value_at_pi == ctx.scalar(ctx.q)):
        raise TriformError("simple-case pairing needs mu1 mu2 |.|^{1/2} = |.|^{-1/2}")
    if not v3.model.steinberg:
        raise TriformError("simple-case pairing needs a Steinberg third vector")
    lvl = table_level(max(F.level_bound(), v3.level_bound()))
    table = p1_table(ctx, lvl)
    mass = ctx.scalar(table.cell_mass)
    return sum_products(ctx.field, ((mass, F.eval_pair(rep, rep), v3.eval(rep)) for rep in table.reps))


# ---------------------------------------------------------------------------
# the chain evaluator: regularized open-orbit quadrature
# ---------------------------------------------------------------------------


def ell_chain(phi: TorusFunctional, F: TensorFn, v: Section) -> Scalar:
    """ell(F (x) v) by pair-of-cells quadrature with near-diagonal closure.

    Weights: c_K = (p+1)/p normalizes the unit-distance region to total mass
    1 = mass((T cap K)\\K); the near-diagonal stratum (cell, depth e, unit
    class mod p^R) carries weight cell_mass * q^{e-R}.  A term is a tuple of
    memoized factors: chi_1, a (c, Borel factor, table value) of
    Section.factors and a reader term of phi, all read from int bottom rows.
    Each stratum's tuples are counted by the identity of their factors, and
    each distinct tuple is streamed once, led by its weight times its
    multiplicity.  The unit-distance pairs and the strata below e0 = L* + 1
    are one deferred sum (`sum_products`); strata e0 and e0 + 1 are separate
    Scalars, which close_tail checks against the derived depth ratio.

    The depth ratio.  Per step e -> e + 1 (s = eta pi^e, b_s = (s 1; 0 1)) a
    term of stratum e >= e0 moves by q from the weight q^{e-R}; by
    mu_1(pi)/sqrt(q) from chi_1(b_s) = mu_1(s)|s|^{1/2}; by mu_2(pi)/sqrt(q)
    from the row's Borel factor, as w b_s rep g has det -s det(g) and a bottom
    row fixed mod p^level (so its cell and pivot stay); by (mu_2/mu_1)(pi) from
    the reader's torus factor at t = diag(s X, T); and, as x0 = y/x + t/(s x)
    drops one valuation in phi's deep-negative Tate regime
    C (chi~ chi_d/chi_a)(x0) q^{val x0}, by 1/(chi~(pi) (chi_d/chi_a)(pi) q).
    So rho = mu_2(pi)^2/(chi~(pi) (chi_d/chi_a)(pi) q) (`tail_ratios`), which
    is mu_1(pi) mu_2(pi)/q = ab on the Steinberg model.  That regime has a
    second term, proportional to the K-average of v and at another ratio: it
    vanishes on Sp, and a Steinberg-model v outside Sp is refused as such.
    Where chi~ is ramified the strata past e0 sum a ramified character of eta
    over all units and vanish.
    """
    ctx = phi.ctx
    p, q = ctx.p, ctx.q
    Lstar = max(F.level_bound(), v.level_bound(), phi.model3.min_level)
    table = p1_table(ctx, Lstar)

    # Everything that does not move with sigma = b rep (b upper triangular) is
    # hoisted per cell: F(b rep, .) = chi_1(b) F(rep, .), and phi's reader
    # splits rep g once per term g of v.  rep = (x y; z t) has det 1.
    cell_pre = [(rep.X, rep.Y, z, t, F.slot1(rep), phi.reader(v, rep)) for rep, (z, t) in zip(table.reps, table.rows)]

    def products(lead, row_factors, read_terms):
        """The factor tuples lead + (c, Borel factor, value) of a row + a reader term."""
        return ((*lead, *f, *t) for f in row_factors for t in read_terms)

    # unit-distance pairs: an exact finite sum.  sigma = (z2 t2; z1 t1) has
    # det Delta = z2 t1 - t2 z1, so w sigma has bottom row (z2, t2) and det
    # -Delta, and b = sigma rep^-1 = (Delta, t2 x - z2 y; 0 1).
    borel1 = F.model1.borel
    w0 = ctx.scalar(Fraction(p + 1, p) * table.cell_mass * table.cell_mass)

    def unit_distance():
        for x, y, z1, t1, row, read in cell_pre:
            for z2, t2 in table.rows:
                delta = z2 * t1 - t2 * z1
                if not delta % p:
                    continue
                fs = list(row.factors(z2, t2, 1, -delta))
                if fs:
                    chi = borel1.eval((delta, 1), (1, 1))
                    yield from products((w0, chi), fs, list(read(delta, t2 * x - z2 * y, 1)))

    # near-diagonal strata, collapsed to (cell, e, eta mod p^R) with R = Lstar,
    # at least the invariance level (level_bound) of F in either slot and of v.
    # Moving eta by p^R moves sigma = b_s rep to sigma k with
    # k = rep^-1 diag(1 + p^R d, 1) rep, which lies in K(R) as rep is in K.
    # So F(sigma k, w sigma k) = F(sigma, w sigma) and pi(sigma k) v = pi(sigma) v:
    # every term of a class is the term at its eta.
    R = Lstar
    e0 = R + 1
    units = units_mod(p, R)

    def stratum(e):
        """The terms chi_1(bs) F phi of depth e, one per (eta, cell, factor of
        the row, term of v), each distinct one once, led by weight times count.
        w b_s rep has bottom row (s x + z, s y + t) and det -s."""
        seen: dict = {}  # factor ids -> [tuple, count]; the stored tuple keeps its ids unreused
        for eta in units:
            s = eta * p**e
            chi = borel1.eval((s, 1), (1, 1))
            for x, y, z, t, row, read in cell_pre:
                # F(sigma, w sigma) / chi_1(bs) with sigma = bs rep
                fs = list(row.factors(s * x + z, s * y + t, 1, -s))
                if fs:
                    for tup in products((chi,), fs, list(read(s, 1, 1))):
                        seen.setdefault(tuple(map(id, tup)), [tup, 0])[1] += 1
        weight = table.cell_mass * Fraction(q**e, q**R)
        weights: dict = {}
        for tup, n in seen.values():
            if n not in weights:
                weights[n] = ctx.scalar(weight * n)
            yield weights[n], *tup

    head = sum_products(ctx.field, chain(unit_distance(), *(stratum(e) for e in range(1, e0))))
    t0, t1 = (sum_products(ctx.field, stratum(e)) for e in (e0, e0 + 1))
    try:
        rest = close_tail(t0, t1, phi.tail_ratios["depth"])
    except TailError:
        if phi.model3.steinberg:
            avg = v.as_table(Lstar).k_average()
            if not avg.is_zero():
                raise TriformError(f"v lies outside Sp: its K-average is {avg.render()}, not 0, so the depth tail diverges from the Sp regime") from None
        raise
    return head + t0 + t1 + rest


# ---------------------------------------------------------------------------
# the kernel evaluator: independent (P^1)^3 quadrature
# ---------------------------------------------------------------------------


def derive_kernel_characters(ctx: Context, mu1: SmoothCharacter, mu2: SmoothCharacter, mu3: SmoothCharacter):
    """Solve the equivariance constraints for the three pair characters.

    The per-point cocycle matching forces nu_ij nu_ik = mu_i^2 |.|^{-1} for
    each point i, and the determinant matching forces the product of all three
    to be mu_1 mu_2 mu_3 |.|^{-3/2}; both together pin the solution, which is
    assembled and re-verified here (no hardcoded exponents).
    """
    norm1 = SmoothCharacter.norm_power_half(ctx, -2)  # |.|^{-1}
    E = [mu1 * mu1 * norm1, mu2 * mu2 * norm1, mu3 * mu3 * norm1]
    D = mu1 * mu2 * mu3 * SmoothCharacter.norm_power_half(ctx, -3)
    nu12 = D / E[2]
    nu13 = D / E[1]
    nu23 = D / E[0]
    ok = (nu12 * nu13 == E[0]) and (nu12 * nu23 == E[1]) and (nu13 * nu23 == E[2]) and (nu12 * nu13 * nu23 == D)
    if not ok:
        raise KernelUnsupportedError("kernel exponent derivation inconsistent for this character data")
    return nu12, nu13, nu23


class KernelForm:
    """The triple-integral realization of ell on principal-series data."""

    def __init__(self, ctx: Context, mu1: SmoothCharacter, mu2: SmoothCharacter, model3: InducedModel):
        if model3.steinberg:
            raise KernelUnsupportedError("unsupported model for kernel route: Steinberg input")
        mu3 = model3.borel.chi_a
        if mu3.is_unramified():
            raise KernelUnsupportedError("kernel route expects a ramified third representation")
        self.ctx = ctx
        self.model3 = model3
        self.nu12, self.nu13, self.nu23 = derive_kernel_characters(ctx, mu1, mu2, mu3)
        if max(self.nu12.c, self.nu13.c, self.nu23.c) > 1:
            raise KernelUnsupportedError("unsupported model for kernel route: pair characters of conductor exponent > 1")
        self._levels: dict = {}  # L0 -> _level(L0)

    # -- closed-form helpers ---------------------------------------------------
    def _usum(self, chars_signs) -> Scalar:
        """(1/q) * sum over units mod p of a product of unit characters."""
        ctx, m = self.ctx, self.ctx.field.m
        counts = Counter(sum(ch.unit_exponent(sgn * eps) for ch, sgn in chars_signs) % m for eps in range(1, ctx.p))
        return ctx.zeta_sum(counts) * ctx.scalar(Fraction(1, ctx.q))

    def _G(self, lam: int) -> Scalar:
        """The universal collision integral over val(s), val(s') >= lam of
        nu12(-s) nu13(-s') nu23(s - s'), flat dz^2 measure, times
        the chart density (p/(p+1))^2."""
        ctx, q, qs = self.ctx, self.ctx.q, self.ctx.scalar(self.ctx.q)
        X12, X13, X23 = self.nu12.value_at_pi, self.nu13.value_at_pi, self.nu23.value_at_pi
        # val s < val s': the difference sits with s, unit eps
        UA = self._usum([(self.nu12, -1), (self.nu23, 1)])
        UB = self._usum([(self.nu13, -1)])
        gA = X13 / qs
        part_a = UA * UB * gA.geometric_tail(1) * ((X12 * X23 / qs) * gA).geometric_tail(lam)
        # val s' < val s: the difference sits with s', unit -eps'
        UA2 = self._usum([(self.nu13, -1), (self.nu23, -1)])
        UB2 = self._usum([(self.nu12, -1)])
        gB = X12 / qs
        part_b = UA2 * UB2 * gB.geometric_tail(1) * ((X13 * X23 / qs) * gB).geometric_tail(lam)
        # equal valuations: split by the collision depth of the unit parts
        counts = Counter(
            (self.nu12.unit_exponent(-e1) + self.nu13.unit_exponent(-e2) + self.nu23.unit_exponent(e1 - e2))
            % ctx.field.m
            for e1 in range(1, ctx.p)
            for e2 in range(1, ctx.p)
            if (e1 - e2) % ctx.p
        )
        C0 = ctx.zeta_sum(counts) * ctx.scalar(Fraction(1, q * q))
        C1 = self._usum([(self.nu12, -1), (self.nu13, -1)]) * self._usum([(self.nu23, -1)])
        rho_diag = (X12 * X13 * X23) / (qs * qs)
        part_c = (C0 + C1 * (X23 / qs).geometric_tail(1)) * rho_diag.geometric_tail(lam)
        return (part_a + part_b + part_c) * ctx.scalar(Fraction(ctx.p, ctx.p + 1) ** 2)

    def _level(self, L0: int) -> tuple:
        """What eval reads at level L0, memoized: each pair character at the wedge z_i t_j - t_i z_j
        of two cells' bottom rows as (valuation, zeta exponent), (0, 0) on the diagonal, and
        the strata's leads: (i) mass^3, (ii) mass^2 p/(p+1) usum tail per pair, (iii) mass G(L0)."""
        if L0 not in self._levels:
            ctx, p, q, nus = self.ctx, self.ctx.p, self.ctx.scalar(self.ctx.q), (self.nu12, self.nu13, self.nu23)
            table = p1_table(ctx, L0)
            rows = list(enumerate(table.rows))
            wedges = [[[nu.val_exponent(zi * tj - ti * zj) if i != j else (0, 0) for j, (zj, tj) in rows] for i, (zi, ti) in rows] for nu in nus]
            mass = ctx.scalar(table.cell_mass)
            pair = [mass * mass * ctx.scalar(Fraction(p, p + 1)) * self._usum([(nu, -1)]) * (nu.value_at_pi / q).geometric_tail(L0) for nu in nus]
            self._levels[L0] = (*wedges, {0: mass**3, 1: pair[0], 2: pair[1], 4: pair[2], 7: mass * self._G(L0)})
        return self._levels[L0]

    # -- the evaluator -----------------------------------------------------------
    def eval(self, f1: Section, f2: Section, f3: Section) -> Scalar:
        """The sum over cells (c1, c2, c3) of the tables' supports, counted in ints: the cells
        the slots share pick the stratum, (i) none, (ii) one pair, (iii) all.  A term adds its
        values' zeta counts (TableSection.zeta) times its wedges' zeta exponents to the histogram
        of (stratum, wedge valuations, opaque values by identity), which zeta_products sums led
        by the stratum's lead, the characters' values at pi to those valuations and the opaque values."""
        m = self.ctx.field.m
        L0 = max(f1.level_bound(), f2.level_bound(), f3.level_bound(), self.model3.min_level)
        (d1, z1), (d2, z2), (d3, z3) = (f.as_table(L0).zeta for f in (f1, f2, f3))
        W12, W13, W23, leads = self._level(L0)
        groups: dict = {}  # key -> (lead factors, zeta exponent -> count)
        for c1, (o1, h1) in z1.items():
            for c2, (o2, h2) in z2.items():
                v12, e12 = W12[c1][c2]
                pre = [(e + f + e12, n * k) for e, n in h1 for f, k in h2]
                w13, w23 = W13[c1], W23[c2]
                for c3, (o3, h3) in z3.items():
                    (v13, e13), (v23, e23) = w13[c3], w23[c3]
                    key = ((c1 == c2) + 2 * (c1 == c3) + 4 * (c2 == c3), v12, v13, v23, id(o1), id(o2), id(o3))
                    group = groups.get(key)
                    if group is None:
                        powers = (self.nu12.value_at_pi**v12, self.nu13.value_at_pi**v13, self.nu23.value_at_pi**v23)
                        group = groups[key] = ((leads[key[0]], *powers, *(o for o in (o1, o2, o3) if o is not None)), Counter())
                    hist = group[1]
                    for e, n in pre:
                        for f, k in h3:
                            hist[(e + f + e13 + e23) % m] += n * k
        items = ((lead, e, n) for lead, hist in groups.values() for e, n in hist.items() if n)
        return zeta_products(self.ctx.field, items, d1 * d2 * d3)
