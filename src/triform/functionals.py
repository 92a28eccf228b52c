"""The torus-equivariant functional phi and the compact-orbit integral Phi.

phi is realized on the open Bruhat cell: phi(v) = integral over F* of
v(wbar n(y)) chi~(y) d*y, with the twist chi~ derived (not hardcoded) from the
equivariance law phi(pi(t) v) = (chi_2/chi_1)(t) phi(v) via the exact cocycle
    wbar n(y) t = diag(t2, t1) wbar n(y t2/t1).
Every evaluation reduces to one universal shape phi(pi(n(x0)) w) with w a
table section, which is an exact piecewise character sum: finitely many annuli
of F* resolved into unit classes, plus closed geometric tails on both ends.
The engine returns the vector of values on the cell basis, and phi of a
K-translate of a table is read against it through the transpose of the
K-action on cells, over the table's support: no translate is built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .characters import SmoothCharacter
from .context import Context
from .cosets import p1_size, torus_orbit_reps, iwahori_orbit_key, units_mod
from .errors import TailError, TriformError
from .matrices import GroupElement, in_T_In
from .models import InducedModel, Section, TableSection
from .padic import ratio_val, unit_residue
from .scalars import Scalar, products_equal, sum_products


def close_tail(t0: Scalar, t1: Scalar, rho: Scalar) -> Scalar:
    """The sum t2 + t3 + ... of a series that continues t0, t1 at the derived
    ratio rho: t1 rho/(1 - rho), or 0 when both terms vanish.  t1 = rho t0 is
    required exactly, by cross-multiplying numerators and denominator factors;
    anything else raises TailError.  rho/(1 - rho) is formed only for a nonzero
    tail, and rho keeps it (`Scalar.geometric_tail`)."""
    if t0.is_zero() and t1.is_zero():
        return t1
    if products_equal(t1.field, (t1,), (rho, t0)):
        return t1 * rho.geometric_tail(1)
    raise TailError(f"tail not stabilized: {t0.render()} | {t1.render()} is not a progression at the derived ratio {rho.render()}")


def derive_phi_twist(mu1: SmoothCharacter, mu2: SmoothCharacter, model3: InducedModel) -> SmoothCharacter:
    """Solve the equivariance constraint for the open-cell twist.

    Substituting y -> y t2/t1 in the open-cell integral and using the cocycle
    wbar n(y) t = diag(t2, t1) wbar n(y t2/t1) forces
        chi~(s) = (mu2/mu1)(s) * [s -> chi_3 delta^{1/2}(diag(1, s))]^{-1}.
    The right factor is itself a smooth character of F* built from the model's
    Borel data, so chi~ is produced by character algebra; the equivariance
    property test certifies the construction.
    """
    ctx = mu1.ctx
    chi_d = model3.borel.chi_d
    # chi_3 delta^{1/2}(diag(1, s)) = chi_d(s) * |1/s|^{1/2}, value at pi: chi_d(pi) * r
    diag_char = SmoothCharacter(ctx, chi_d.c, chi_d.images, chi_d.value_at_pi * ctx.r)
    return (mu2 / mu1) * diag_char.inverse()


class WProfile:
    """tau -> (cell, e) with  w(wbar n(tau)) = scale(val tau) * zeta_M^e * table[cell].

    For val(tau) >= 1 the matrix (0 1; 1 tau) sits over the infinity-chart
    cell of tau with no residual twist.  For val(tau) <= 0 it factors as
    (-1/tau, 1; 0, tau) * nbar(1/tau), contributing
    chi_a(-1) (chi_d/chi_a)(tau) q^{val tau} over the z-chart cell of 1/tau.
    """

    def __init__(self, model: InducedModel, level: int):
        self.ctx = model.ctx
        self.m = level
        self.ratio = model.borel.chi_d / model.borel.chi_a
        self.sign_factor = self.ctx.zeta_powers[model.borel.chi_a.unit_exponent(-1)]
        self.ratio_pi_q = self.ratio.value_at_pi * self.ctx.scalar(self.ctx.q)

    def scale(self, k: int) -> Scalar:
        """The factor at val(tau) = k apart from the unit twist:
        chi_a(-1), times ((chi_d/chi_a)(pi) q)^k when k <= 0."""
        return self.sign_factor if k >= 1 else self.sign_factor * self.ratio_pi_q**k

    def term(self, k: int, eps: int) -> tuple[int, int]:
        """Cell and twist exponent at tau = pi^k * eps (eps a unit residue mod p^m).

        For val(tau) >= 1 the residual factor against the det-one lift
        (0 -1; 1 t0) is diag(-1, 1) mod p^m, contributing chi_a(-1) only.
        """
        p, m = self.ctx.p, self.m
        mod = p**m
        if k >= 1:
            tkey = (p**k * eps) % mod if k < m else 0
            return mod + tkey // p, 0
        zkey = (p ** (-k) * pow(eps, -1, mod)) % mod if -k < m else 0
        return zkey, self.ratio.unit_exponent(eps)


class TorusFunctional:
    """phi, its Phi-integral over the unit orbit, and the Tate-vector cache.

    Carries (mu1, mu2, model3); the twist chi~ is derived at construction and
    the equivariance law is what the property tests certify.
    """

    def __init__(self, ctx: Context, mu1: SmoothCharacter, mu2: SmoothCharacter, model3: InducedModel):
        if not (mu1.is_unramified() and mu2.is_unramified()):
            raise TriformError("the first two representations must be unramified principal series")
        self.ctx = ctx
        self.mu1 = mu1
        self.mu2 = mu2
        self.model3 = model3
        self.chtil = derive_phi_twist(mu1, mu2, model3)
        self.ratio21 = mu2 / mu1  # (chi_2/chi_1)(diag(t1, t2)) = ratio21(t1/t2)
        self._vectors: dict = {}

    # -- the derived ratios of the two tails that close_tail closes ----------
    @cached_property
    def tail_ratios(self) -> dict:
        """The ratio of each tail by name.  "negative": eval_reference's annulus
        k - 1 over annulus k, k <= -R.  There wbar n(y) = (-1/y 1; 0 y) nbar(1/y)
        with nbar(1/y) in K(R), so the integrand is chi_a(-1) (chi_d/chi_a)(y)
        q^{val y} section(1) chi~(y), and a step down divides by
        chi~(pi) (chi_d/chi_a)(pi) q; plain_neg_tail closes the Tate engine's
        deep annuli at the same ratio.  "depth":
        ell_chain's stratum e + 1 over stratum e (derived there)."""
        borel, q = self.model3.borel, self.ctx.scalar(self.ctx.q)
        neg = (self.chtil.value_at_pi * borel.chi_d.value_at_pi / borel.chi_a.value_at_pi * q).inverse()
        return {"negative": neg, "depth": self.mu2.value_at_pi**2 * neg}

    # -- the Tate engine: vectors of phi over the cell basis ------------------
    def tate_vector(self, level: int, x0_key) -> list[Scalar]:
        """phi(pi(n(x0)) delta_cell) for every cell, as one vector.

        x0_key is None for x0 = 0 (in particular val(x0) >= level), else the
        valuation v of x0 = pi^v; phi_table folds any other unit of x0 into
        the table.

        Each window of the integral is a unit sum  factor * sum_eps
        chi~(eps) W(pi^k key(eps)); its values chi~(eps) and the twist of W are
        roots of unity, so the window counts (cell, zeta exponent) in ints and
        appends one item (factor * scale, e, count) per count to its cell, and
        each cell is one sum_products.  The units run
        mod p^level: a summand reads eps through chi~ (conductor chi_d.c),
        through the twist chi_d/chi_a of W and through cells mod p^level, and
        require_level makes the level at least both conductors.
        """
        cache_key = (level, x0_key)
        if cache_key in self._vectors:
            return self._vectors[cache_key]
        ctx = self.ctx
        W = WProfile(self.model3, level)
        p, q, M, m = ctx.p, ctx.q, ctx.field.m, level
        mod = p**m
        units = units_mod(p, m)
        cmass_s = ctx.scalar(Fraction(1, (q - 1) * q ** (m - 1)))
        X = self.chtil.value_at_pi
        chexp = self.chtil.unit_exponent
        cells: list[list] = [[] for _ in range(p1_size(p, m))]  # cell -> items for sum_products

        def window(k: int, factor: Scalar, keyed_units):
            """Add factor * sum over (key, eps) of chi~(eps) W(pi^k key)."""
            counts: dict = {}  # (cell, zeta exponent) -> count
            for key, eps in keyed_units:
                cell, e = W.term(k, key)
                ce = cell, (e + chexp(eps)) % M
                counts[ce] = counts.get(ce, 0) + 1
            fs = (factor * W.scale(k),)
            for (cell, e), n in counts.items():
                cells[cell].append((fs, e, n))

        def plain_window(k: int, shift: int = 0):
            window(k, X**k * cmass_s, (((eps + shift) % mod, eps) for eps in units))

        def plain_neg_tail(k_hi: int):
            """Sum over k <= k_hi of the multiplicative deep-negative annuli (k_hi <= -m)."""
            ch = W.ratio * self.chtil
            if ch.c != 0:
                return  # the unit integral kills every deep annulus
            # annulus k - 1 over annulus k: 1/(X (chi_d/chi_a)(pi) q)
            cells[0].append(((W.sign_factor, self.tail_ratios["negative"].geometric_tail(-k_hi)), 0, 1))  # cell 0: z = 0

        def plain_upto(k_hi: int):
            plain_neg_tail(min(k_hi, -m))
            for k in range(-m + 1, k_hi + 1):
                plain_window(k)

        if x0_key is None:
            plain_upto(m - 1)
            if self.chtil.c == 0:
                window(m, X.geometric_tail(m), ((1, 1),))
        else:
            K0 = x0_key
            # region A: k < K0, x0 shifts the unit key by p^{K0-k}, which is
            # invisible mod p^m once K0 - k >= m
            plain_upto(K0 - m - 1)
            for k in range(K0 - m, K0):
                plain_window(k, shift=p ** (K0 - k))
            # region B: k > K0, tau stays in the annulus of x0
            for k in range(K0 + 1, K0 + m):
                window(K0, X**k * cmass_s, (((1 + eps * p ** (k - K0)) % mod, eps) for eps in units))
            if self.chtil.c == 0:
                window(K0, X.geometric_tail(K0 + m), ((1, 1),))
            # region C: k = K0, stratified by d = val(eps + 1)
            xk0 = X**K0
            window(K0, xk0 * cmass_s, (((eps + 1) % mod, eps) for eps in units if (eps + 1) % p))
            d_plus = max(1, self.chtil.c, m - K0)
            for d in range(1, d_plus):
                dmass = xk0 * ctx.scalar(Fraction(1, (q - 1) * q ** (d + m - 1)))
                window(K0 + d, dmass, ((eta, p**d * eta - 1) for eta in units))
            # d >= d_plus: tau is deep positive, W is the constant infinity cell
            tail_mass = Fraction(q, q - 1) * Fraction(1, q**d_plus)
            window(K0 + d_plus, xk0 * ctx.scalar(tail_mass), ((1, -1),))

        vec = self._vectors[cache_key] = [sum_products(ctx.field, items) if items else ctx.zero() for items in cells]
        return vec

    # -- public evaluation -----------------------------------------------------
    def phi_table(self, tbl: TableSection, x0: int = 0, den: int = 1, cell: int = 0) -> Scalar:
        """phi(pi(n(x0 / den) rep_cell) tbl) for ints x0 and den, memoized on the
        table (tbl.phi_values) per (functional, cell, unit u of x0 mod p^level, val x0).

        n(pi^v u) = diag(u, 1) n(pi^v) diag(1/u, 1), and phi does not see diag(u, 1)
        (chi_2/chi_1 is trivial on units), so this is <T, W> for the Tate vector T
        of val x0 and W[i] = tbl(rep_i g), g = diag(1/u, 1) rep_cell.  It is read
        through the transpose, over tbl's support: where the actions of g^{-1} (read_actions) take
        s to (i, zeta_M^e), W[i] = zeta_M^-e tbl[s], counted in ints (TableSection.zeta)
        as sum_products items ((T[i],), -e, n) over the table's den for each nonzero T[i];
        an opaque tbl[s] joins T[i] as a second factor."""
        p, level = self.ctx.p, tbl.level
        v = ratio_val(x0, den, p)
        v, u = (None, 1) if v >= level else (v, unit_residue(x0, den, p, level))  # x0 = 0 has val inf
        key = (self, cell, u, v)
        out = tbl.phi_values.get(key)
        if out is None:
            tate = self.tate_vector(level, v)
            back, fold = tbl.model.read_actions(level, cell, u)
            d, zeta = tbl.zeta
            steps = ((value, counts, e1, *fold[j]) for s, (value, counts) in zeta.items() for j, e1 in (back[s],))
            reads = (((t,) if o is None else (o, t), e - e1 - e2, n) for o, counts, e1, i, e2 in steps for t in (tate[i],) if t.num.terms for e, n in counts)
            out = tbl.phi_values[key] = sum_products(self.ctx.field, reads, d)
        return out

    def reader(self, section: Section, k: GroupElement | None = None):
        """phi(pi(b k) section) as a function of b = (alpha beta; 0 delta), three
        ints (k, b = 1 when None), yielding one factor tuple
        (c, (chi_2/chi_1)(t), phi_table) per term c pi(g) tbl for sum_products.
        Each h = k g is split once, here: h = bh rep_j mod K(level) with j and the
        pivot of InducedModel.cell, and bh = (N/piv, top; 0, piv)/D, top the entry
        above the pivot, read as the ints (X, Y, T) = (N, top piv, piv^2).  Then
        b bh = t n(x0) has t = diag(alpha X, delta T)/(D piv) and x0 = (alpha Y + beta T)/(alpha X)."""
        if section.model is not self.model3:
            raise TriformError("phi evaluated on a section of a different model")
        pre = []
        for c, g, tbl in section.terms:
            h = g if k is None else k * g
            j, piv = self.model3.cell(h.Z, h.T, tbl.level)
            pre.append((c, h.N, (h.Y if piv == h.T else h.X) * piv, piv * piv, j, tbl))

        def terms(alpha: int = 1, beta: int = 0, delta: int = 1):
            for c, X, Y, T, j, tbl in pre:
                ax = alpha * X
                yield c, self.ratio21.eval(ax, delta * T), self.phi_table(tbl, alpha * Y + beta * T, ax, j)

        return terms

    def eval(self, section: Section) -> Scalar:
        """phi of a formal sum of lazy translates, through the reader at b = k = 1."""
        return sum_products(self.ctx.field, ((fs, 0, 1) for fs in self.reader(section)()))

    # -- the independent slow route (oracle for tests) --------------------------
    def annulus(self, section: Section, k: int) -> Scalar:
        """The integral of section(wbar n(y)) chi~(y / pi^k) d*y over y in pi^k O*,
        as the average over the units eps mod p^R of y = eps pi^k, with
        R = max(section.table_level(), c(chi~)), at least 1.

        The integrand reads eps mod p^R for every k, so the average is the same
        Scalar at any finer resolution.  Write eps' = eps (1 + p^R delta):
        - the section is right-K(R)-invariant;
        - for k >= 0, wbar n(eps' pi^k) = wbar n(eps pi^k) n(pi^k p^R eps delta),
          and that n lies in K(R);
        - for k < 0, wbar n(y) = (-1/y 1; 0 y) nbar(1/y).  The Borel factor
          changes by the unit eps'/eps = 1 mod p^R, which the model's twist
          (conductor <= the table levels <= R) does not see, and nbar(1/y')
          lies in nbar(1/y) K(R);
        - chi~ reads eps mod p^c(chi~).
        """
        ctx = self.ctx
        units = units_mod(ctx.p, max(section.table_level(), self.chtil.c))
        num, den = ctx.p ** max(k, 0), ctx.p ** max(-k, 0)  # y = eps num/den = eps pi^k
        # wbar n(y) = (0 1; 1 y): bottom row (den, eps num)/den and det -1
        items = ((f, self.chtil.unit_exponent(eps), 1) for eps in units for f in section.factors(den, eps * num, den, -den * den))
        return sum_products(ctx.field, items, len(units))

    def eval_reference(self, section: Section, depths: int = 4) -> list:
        """Direct annulus-by-annulus summation through Section.eval, with the
        two tails closed from the stabilized multiplicative regimes.  Shares no
        code path with the Tate engine past the section evaluator.

        One sweep over |k| <= D + depths - 1 closes the sum at the depths
        d = D, ..., D + depths - 1: the annuli |k| <= d, the positive tail past
        d and the negative tail from the annuli -d + 1, -d at its derived ratio
        (tail_ratios).  A TailError at depth D is raised; a deeper one stands in
        the place of its closure."""
        D = section.level_bound() + max(1, self.chtil.c) + 2
        X = self.chtil.value_at_pi
        terms = {k: self.annulus(section, k) * X**k for k in range(-D - depths + 1, D + depths)}
        # positive tail: the integrand is constant once n(y) is that deep
        top = section.eval(GroupElement.w(self.ctx.p)) if self.chtil.c == 0 else None
        partial = sum((terms[k] for k in range(-D + 1, D)), self.ctx.zero())
        closures = []
        for d in range(D, D + depths):
            partial = partial + terms[-d] + terms[d]
            out = partial if top is None else partial + top * X.geometric_tail(d + 1)
            try:  # negative tail: verified geometric continuation of the last annuli
                closures.append(out + close_tail(terms[-d + 1], terms[-d], self.tail_ratios["negative"]))
            except TailError as e:
                if d == D:
                    raise
                closures.append(e)
        return closures


# ---------------------------------------------------------------------------
# compactly induced functions on T\G and the Phi integral
# ---------------------------------------------------------------------------


class CompactInducedFn:
    """f(t k) = (chi_1/chi_2)(t) on a union of unit-orbit cells of T\\G.

    Well-defined because chi_1/chi_2 is unramified, hence trivial on T cap K;
    support is all of T I(n) for the indicator, or a subset of
    (T cap K)\\I(n)/K(m) orbits for the random compactly supported inputs.
    """

    def __init__(self, ctx: Context, mu1: SmoothCharacter, mu2: SmoothCharacter, n: int, level: int, support=None):
        if not (mu1.is_unramified() and mu2.is_unramified()):
            raise TriformError("chi_1/chi_2 must be trivial on T cap K: unramified data required")
        if n < 1 or level < n:
            raise TriformError("need level >= n >= 1")
        self.ctx = ctx
        self.mu1 = mu1
        self.mu2 = mu2
        self.ratio12 = mu1 / mu2
        self.n = n
        self.level = level
        self.support = None if support is None else frozenset(support)

    def eval(self, g: GroupElement) -> Scalar:
        fac = in_T_In(g, self.n)
        if fac is None:
            return self.ctx.zero()
        t, k = fac
        if self.support is not None:
            if iwahori_orbit_key(self.ctx, k, self.n, self.level) not in self.support:
                return self.ctx.zero()
        return self.ratio12.eval(*t.ratio(0, 3))

    def orbit_cells(self) -> tuple[Fraction, list]:
        """The T\\G mass of one unit-orbit cell, and the cells' representatives
        in the support.  f is 1 on each: its T I(n) split has t = 1."""
        table = torus_orbit_reps(self.ctx, self.n, self.level)
        if self.support is None:
            return table.weight, table.reps
        return table.weight, [rep for rep in table.reps if iwahori_orbit_key(self.ctx, rep, self.n, self.level) in self.support]


def Phi_eval(phi: TorusFunctional, f: CompactInducedFn, v: Section) -> Scalar:
    """Phi(f)(v) = integral over T\\G of f(g) phi(pi(g) v) dg, a finite sum
    over the unit-orbit cells with the fixed measure conventions."""
    ctx = phi.ctx
    wt, reps = f.orbit_cells()
    return ctx.scalar(wt) * sum_products(ctx.field, (((phi.eval(v.translated(rep)),), 0, 1) for rep in reps))


def coset_constant(ctx: Context, n: int) -> Fraction:
    """The convention-determined lambda: the T\\G mass of the unit orbit, 1/[K:I(n)]."""
    return Fraction(1, p1_size(ctx.p, n))
