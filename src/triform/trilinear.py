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
from .scalars import Scalar, sum_products


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
        if z1 % p**f.n:
            # sigma = (z2 t2; z1 t1) has primitive rows and D = 1, so it lies in
            # T I(n) iff it lies in I(n): iff Delta is a unit and p^n divides z1
            rows.append(Section(model2, ()))
            continue
        row = []
        for z2, t2 in table.rows:
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
    return sum_products(ctx.field, (((mass, F.eval_pair(rep, rep), v3.eval(rep)), 0, 1) for rep in table.reps))


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
    each distinct tuple is streamed once, as the sum_products item
    ((weight, *tuple), 0, count).  The unit-distance pairs and the strata below
    e0 = L* + 1 are one deferred sum (`sum_products`); strata e0 and e0 + 1 are separate
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

    The zero tail.  Where chi~ and psi = chi~ chi_d/chi_a are ramified (on units
    chi_d^-1 and chi_a^-1: the test is on the ints c(chi~), c(chi_a)), strata e >= L*
    are 0 and the head stops below L*.  Per cell, s = eta pi^e, x = 1/s, u = pi(rep) v.
    - Only the read moves with eta: chi_1 and mu_2/mu_1 are unramified, and as
      w b_s = (-s 1; 0 1) nbar(s), nbar(s) in K(e), normal in K (the row (sx + z, sy + t)
      is (z, t) mod p^e), F(rep, w b_s rep) = (mu_2 delta^{1/2})(diag(-s, 1)) F(rep, rep).
    - b_s = diag(s, 1) n(x), so the read is (chi_2/chi_1)(diag(s, 1)) phi(pi(n(x)) u),
      and eta's classes average x over A = pi^-e O*.  Average over x each annulus
      y in pi^k O* of phi's integral of u(wbar n(x + y)) chi~(y) d*y; tau = x + y.
    - val tau > -e (so k = -e; the read's K-average term): y = tau - x runs over
      A with x, and chi~ averages to 0 over A.
    - val tau <= -e: u is right-K(e)-invariant, so wbar n(tau) = (-1/tau 1; 0 tau)
      nbar(1/tau) gives u(wbar n(tau)) = chi_a(-1) (chi_d/chi_a)(tau) q^{val tau} u(1).
      With x = tau xi, dx dy = |tau| dtau dxi on (annulus of tau) x (a xi-set fixed
      by valuations) and chi~(y) = chi~(tau) chi~(1 - xi): psi integrates to 0 there.
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
                    yield from ((tup, 0, 1) for tup in products((w0, chi), fs, list(read(delta, t2 * x - z2 * y, 1))))

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
        weight = ctx.scalar(table.cell_mass * Fraction(q**e, q**R))
        for tup, n in seen.values():
            yield (weight, *tup), 0, n

    zero_tail = phi.chtil.c and phi.model3.borel.chi_a.c  # strata L* and deeper are 0
    head = sum_products(ctx.field, chain(unit_distance(), *(stratum(e) for e in range(1, Lstar if zero_tail else e0))))
    if zero_tail:
        return head
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
    """The triple-integral realization of ell on principal-series data,
      ell(f1, f2, f3) = integral over (P^1)^3 of f1(x1) f2(x2) f3(x3) nu12(x1^x2) nu13(x1^x3) nu23(x2^x3),
    x^y the wedge z t' - t z' of bottom rows, a point of a level-L0 cell a row = its rep's mod p^L0.

    mu1 and mu2 are unramified, so on units nu12 = mu3^-1 and nu13 = nu23 = mu3: every nu
    has conductor c = c(mu3) = n/2, and c >= 1 is the refusal of an unramified mu3.

    eval sums the resolved triples: distinct cells with val(x_i^x_j) + c <= L0 for all
    three pairs.  There each wedge moves within its value at the reps times
    1 + p^(L0 - val), where its nu is constant, so the triple adds mass^3 times the
    integrand at the reps.  Every other triple integrates to 0.  Let (x_i, x_j) be the
    nearest pair (largest wedge valuation v; the other two are equal), x_i in {x1, x2},
    and x_k the third point.  Moving x_i alone fixes the character of (x_j, x_k) and
    moves the other two, each not constant, by mu3^(+-1) of R = (x_i^x_k)/(x_i^x_j).
    (a) Distinct cells, v + c > L0 (as the c agree, a triple is resolved iff its nearest
        pair is): x_i runs over its cell, a ball of depth L0.  By Pluecker,
        R(x')/R(x) - 1 = (x'^x)(x_k^x_j)/((x'^x_j)(x^x_k)), a Moebius function of x'
        with no pole there, so R runs uniformly over R(x)(1 + p^(L0 - v) Z_p), and mu3,
        of conductor c > L0 - v, sums to 0 over each coset of 1 + p^(L0 - v).
    (b) x_i, x_j in one cell, x_k in another: fix x_j and x_k, and let x_i = x_j + t d
        (d^x_j = 1) run over a shell val t = s >= L0 of the cell.  R = (x_j^x_k)/t + d^x_k
        runs over a whole shell p^(val(x_j^x_k) - s) Z_p^x (the translation has higher
        valuation), a multiple of Z_p^x, over which mu3 (c >= 1) sums to 0.
    (c) All three in one cell: with x_i = x2 + t_i d, the dilation t_i -> l t_i by a unit
        l keeps the cell, the valuations and the measure, and multiplies the integrand
        by mu3(l)^(-1+1+1) = mu3(l), which is not 1 for some l: the integral is 0.
    """

    def __init__(self, ctx: Context, mu1: SmoothCharacter, mu2: SmoothCharacter, model3: InducedModel):
        if model3.steinberg:
            raise KernelUnsupportedError("unsupported model for kernel route: Steinberg input")
        mu3 = model3.borel.chi_a
        if mu3.is_unramified():
            raise KernelUnsupportedError("kernel route expects a ramified third representation")
        self.ctx = ctx
        self.model3 = model3
        self.nu12, self.nu13, self.nu23 = derive_kernel_characters(ctx, mu1, mu2, mu3)
        self._rows: dict = {}  # (k, L0, i) -> _row(k, L0, i)

    def _row(self, k: int, L0: int, i: int) -> list:
        """Pair character k (nu12, nu13, nu23) at the wedges z_i t_j - t_i z_j of level-L0 cell i
        and each cell j, memoized: (valuation, zeta exponent), or None where the pair is not resolved."""
        row = self._rows.get((k, L0, i))
        if row is None:
            nu, rows = (self.nu12, self.nu13, self.nu23)[k], p1_table(self.ctx, L0).rows
            zi, ti = rows[i]
            row = self._rows[k, L0, i] = [None] * len(rows)
            for j, (zj, tj) in enumerate(rows):
                if j != i:
                    v, e = nu.val_exponent(zi * tj - ti * zj)
                    if v + nu.c <= L0:
                        row[j] = v, e
        return row

    def eval(self, f1: Section, f2: Section, f3: Section) -> Scalar:
        """The resolved sum over cells (c1, c2, c3) of the tables' supports, counted in ints: a
        term adds its values' zeta counts (TableSection.zeta) times its wedges' zeta exponents to
        the histogram of (wedge valuations, opaque values by identity), summed as sum_products items (lead,
        e, count), led by mass^3, the characters' values at pi to those valuations and the opaque values."""
        m = self.ctx.field.m
        L0 = max(f1.level_bound(), f2.level_bound(), f3.level_bound(), self.model3.min_level)
        (d1, z1), (d2, z2), (d3, z3) = (f.as_table(L0).zeta for f in (f1, f2, f3))
        mass3 = self.ctx.scalar(p1_table(self.ctx, L0).cell_mass ** 3)
        groups: dict = {}  # key -> (lead factors, zeta exponent -> count)
        for c1, (o1, h1) in z1.items():
            w12, w13 = self._row(0, L0, c1), self._row(1, L0, c1)
            for c2, (o2, h2) in z2.items():
                if w12[c2] is None:
                    continue
                v12, e12 = w12[c2]
                pre = [(e + f + e12, n * k) for e, n in h1 for f, k in h2]
                w23 = self._row(2, L0, c2)
                for c3, (o3, h3) in z3.items():
                    if w13[c3] is None or w23[c3] is None:
                        continue
                    (v13, e13), (v23, e23) = w13[c3], w23[c3]
                    key = (v12, v13, v23, id(o1), id(o2), id(o3))
                    group = groups.get(key)
                    if group is None:
                        powers = (self.nu12.value_at_pi**v12, self.nu13.value_at_pi**v13, self.nu23.value_at_pi**v23)
                        group = groups[key] = ((mass3, *powers, *(o for o in (o1, o2, o3) if o is not None)), Counter())
                    hist = group[1]
                    for e, n in pre:
                        for f, k in h3:
                            hist[(e + f + e13 + e23) % m] += n * k
        items = ((lead, e, n) for lead, hist in groups.values() for e, n in hist.items() if n)
        return sum_products(self.ctx.field, items, d1 * d2 * d3)
