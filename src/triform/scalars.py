"""The exact coefficient field Q(zeta_M)(a, b, u)[r]/(r^2 - q).

a and b are the Satake-type parameters of the two spherical principal series
(mu_i(pi)/sqrt q), u is the value at the uniformizer of the ramified character
cutting out the third representation, and r is a square root of q: formal,
or the one in Q(zeta_M) where that field holds it (`Poly.var`).  Every
certificate the engine emits is ultimately an `is_zero` question about one of
these Scalars, so all arithmetic is exact and zero-testing syntactic: a Scalar
is an expanded Laurent numerator (exponents of a, b, u may be negative) over a
multiset of monic denominator factors in a, b, u with no monomial content.

A polynomial carries both algebraic generators, r and zeta = zeta_M, as
exponents next to those of a, b, u, and has int coefficients over one int
denominator d > 0 with gcd(d, coefficients) = 1, a unique form (Knuth, TAOCP
4.6.1); rationals appear only at the edges (construction, scaling,
substitution, rendering).  One rule reduces both generators when terms
multiply: a power at or above the degree of the generator's minimal
polynomial (x^2 - q, or the cyclotomic polynomial Phi_M, both monic over Z)
is replaced by its integral row in the power-basis table `power_rows` builds
from that polynomial.  An inverse multiplies by the Galois conjugates of the
numerator (zeta -> zeta^k for the units k mod M, then r -> -r), which leaves
a denominator free of r and zeta.

Cancellation has two parts.  The units of Z[a^+-1, b^+-1, u^+-1] are its
monomials, so a denominator factor's monomial content moves into the
numerator as negative exponents, with no division (Geddes, Czapor and
Labahn, 1992).  The factors are then tried against the numerator shifted to
zero a, b, u content by exact division over Z, which stops at the first
quotient coefficient that is not an int (Gauss's lemma, see `divexact`).  A
product with a monomial, a Laurent one included, skips the trial divisions: a
unit cannot change divisibility.  `render` and `specialize` see the negative
exponents as one monomial factor, sorted among the others.

Every exact sum of the engine is one call of `sum_products`, whose items
(factors, e, n) stand for n zeta_M^e times the product of the Scalars factors.
It adds the numerator products of items with the same denominator multiset and
canonicalizes once per multiset, not once per term, which saves the trial
divisions of the partial sums.  It classifies factors by their fields and
multiplies each item straight into its multiset's int accumulator with
`Poly.__mul__`'s term-product loop, building no product Poly per item
(S. C. Johnson, Sparse polynomial arithmetic, 1974).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .cyclo import cyclotomic_polynomial
from .errors import PoleError, TriformError

VARS = ("a", "b", "u", "r", "zeta")  # the exponent order of a monomial; zeta renders as zeta<M>
_CONST = (0, 0, 0, 0, 0)


def power_rows(minpoly: tuple, count: int) -> tuple:
    """x^k for k < count in the basis 1, x, ..., x^(d-1) of Z[x]/(minpoly).

    minpoly is monic of degree d over Z with ascending coefficients; row k is a
    tuple of (exponent, int coefficient) pairs with nonzero coefficients.
    """
    cur = [1] + [0] * (len(minpoly) - 2)
    rows = []
    for _ in range(count):
        rows.append(tuple((j, c) for j, c in enumerate(cur) if c))
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            cur = [c - top * int(m) for c, m in zip(cur, minpoly)]
    return tuple(rows)


class FieldSpec:
    """Shared read-only scalar-field configuration: zeta order M and q = r^2."""

    def __init__(self, m: int, q: int):
        self.m, self.q = m, q

    @cached_property
    def zeta_rows(self) -> tuple:
        """zeta^k in the power basis, for every k below M and below 2 deg Phi_M - 1."""
        phi = cyclotomic_polynomial(self.m)
        return power_rows(phi, max(self.m, 2 * len(phi) - 3))

    @cached_property
    def zeta_terms(self) -> tuple:
        """zeta^k for k < M as the terms of a Poly, shared: the rows of zeta_rows."""
        return tuple({(0, 0, 0, 0, j): c for j, c in row} for row in self.zeta_rows[: self.m])

    @cached_property
    def reduction(self) -> tuple:
        """(deg(x^2 - q), deg Phi_M, table): table[i, j] is the row of r^i zeta^j,
        as ((i', j'), int coefficient) pairs, for each exponent pair a product of
        two reduced terms can reach with i or j at or above its degree."""
        rrows = power_rows((-self.q, 0, 1), 3)
        dz = len(cyclotomic_polynomial(self.m)) - 1
        table = {
            (i, j): tuple(((ki, kj), ci * cj) for ki, ci in rrows[i] for kj, cj in self.zeta_rows[j])
            for i in range(3)
            for j in range(2 * dz - 1)
            if i >= 2 or j >= dz
        }
        return 2, dz, table

    @cached_property
    def sqrt_q(self) -> dict | None:
        """sqrt(q) as counts of zeta_M exponents where Q(zeta_M) holds it, else
        None: the root that is positive under zeta_M -> e^{2 pi i/M}.  For q = 2
        it is zeta_8 + zeta_8^7; for an odd prime q it is the Gauss sum
        sum_a (a/q) zeta_q^a, times -i = zeta_4^3 when q = 3 mod 4."""
        q, m = self.q, self.m
        if q == 2:
            return {m // 8: 1, 7 * m // 8: 1} if m % 8 == 0 else None
        if m % (q if q % 4 == 1 else 4 * q):
            return None
        shift = 0 if q % 4 == 1 else 3 * m // 4
        return {(shift + a * m // q) % m: 1 if pow(a, (q - 1) // 2, q) == 1 else -1 for a in range(1, q)}


class Poly:
    """Laurent polynomial in a, b, u (a Scalar's numerator; factors and divisors have no
    negative exponent) and polynomial in r, zeta over Q, reduced by r^2 = q and Phi_M(zeta) = 0:
    nonzero int `terms` over one int `den` > 0 with gcd(den, terms) = 1 (den = 1 for zero)."""

    __slots__ = ("field", "terms", "den", "_lead", "_den_key", "_canonical")

    def __init__(self, field: FieldSpec, terms: dict):
        fracs = [(mo, Fraction(c)) for mo, c in terms.items() if c]
        # over the lcm of the reduced denominators no prime divides every numerator
        den = lcm(*(c.denominator for _, c in fracs))
        self.field, self.den, self._lead, self._den_key, self._canonical = field, den, None, None, False
        self.terms = {mo: c.numerator * (den // c.denominator) for mo, c in fracs}

    @classmethod
    def _raw(cls, field: FieldSpec, terms: dict, den: int = 1) -> "Poly":
        """Int terms over den, already in normal form (caller guarantees it)."""
        out = object.__new__(cls)
        out.field, out.terms, out.den, out._lead, out._den_key, out._canonical = field, terms, den, None, None, False
        return out

    @classmethod
    def _make(cls, field: FieldSpec, terms: dict, den: int = 1) -> "Poly":
        """The normal form of int terms over den > 0: zero terms dropped, the gcd divided out."""
        if 0 in terms.values():
            terms = {mo: c for mo, c in terms.items() if c}
        if den != 1:
            g = gcd(den, *terms.values())
            if g != 1:
                den //= g
                terms = {mo: c // g for mo, c in terms.items()}
        return cls._raw(field, terms, den)

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, field: FieldSpec) -> "Poly":
        return cls._raw(field, {})

    @classmethod
    def const(cls, field: FieldSpec, c) -> "Poly":
        return cls(field, {_CONST: c})

    @classmethod
    def var(cls, field: FieldSpec, name: str) -> "Poly":
        """The generator `name`.  r is formal unless Q(zeta_M) holds sqrt(q):
        there x^2 - q splits, so r is that root (`FieldSpec.sqrt_q`), and the
        ring stays a field."""
        if name == "r" and field.sqrt_q is not None:
            return cls.zeta_sum(field, field.sqrt_q)
        mono = tuple(1 if v == name else 0 for v in VARS)
        return cls._raw(field, {mono: 1})

    @classmethod
    def zeta_sum(cls, field: FieldSpec, counts: dict) -> "Poly":
        """sum_j counts[j] zeta_M^j for integer counts, reduced by the rows of Phi_M."""
        return cls.zeta_reduced(field, {(0, 0, 0, 0, j): n for j, n in counts.items()})

    @classmethod
    def zeta_reduced(cls, field: FieldSpec, terms: dict, den: int = 1) -> "Poly":
        """The int terms over den, their zeta exponents taken mod M and reduced by the rows of Phi_M."""
        out: dict = {}
        for (a, b, u, r, k), c in terms.items():
            for j, f in field.zeta_rows[k % field.m]:
                mo = (a, b, u, r, j)
                out[mo] = out[mo] + c * f if mo in out else c * f
        return cls._make(field, out, den)

    # -- basic structure ----------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _CONST in self.terms)

    def has_r(self) -> bool:
        return any(mo[3] for mo in self.terms)

    def has_zeta(self) -> bool:
        return any(mo[4] for mo in self.terms)

    def coefficients(self) -> list:
        """(monomial, rational coefficient) pairs, grlex-descending: the order of rendering."""
        return sorted(((mo, Fraction(c, self.den)) for mo, c in self.terms.items()), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def leading(self) -> tuple[tuple, int]:
        if self._lead is None:
            mo = max(zip(map(sum, self.terms), self.terms))[1]  # grlex: by degree, then exponents
            self._lead = (mo, self.terms[mo])
        return self._lead

    def trailing_monomial(self):
        return min(zip(map(sum, self.terms), self.terms))[1]

    def den_key(self) -> str:
        """The order of denominator factors: the repr of the grlex-descending terms."""
        if self._den_key is None:
            self._den_key = repr(self.coefficients())
        return self._den_key

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.den == other.den and self.terms == other.terms

    def __hash__(self):
        return hash((self.den, frozenset(self.terms.items())))

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: "Poly") -> "Poly":
        d = lcm(self.den, other.den)
        s, t = d // self.den, d // other.den
        out = dict(self.terms) if s == 1 else {mo: c * s for mo, c in self.terms.items()}
        for mo, c in other.terms.items():
            c *= t
            out[mo] = out[mo] + c if mo in out else c
        return Poly._make(self.field, out, d)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly._raw(self.field, {mo: -c for mo, c in self.terms.items()}, self.den)

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict = {}
        _mul_into(out, self.field, self.terms, other.terms, 1)
        return Poly._make(self.field, out, self.den * other.den)

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        return Poly._make(self.field, {mo: co * c.numerator for mo, co in self.terms.items()}, self.den * c.denominator)

    def galois(self, s: int, k: int) -> "Poly":
        """The automorphism r -> s*r (s = +-1), zeta -> zeta^k (k a unit mod M, so no two terms meet)."""
        terms = {(ea, eb, eu, er, ez * k): -c if er and s < 0 else c for (ea, eb, eu, er, ez), c in self.terms.items()}
        return Poly.zeta_reduced(self.field, terms, self.den)

    def divexact(self, f: "Poly") -> "Poly | None":
        """Exact quotient self / f, or None when f does not divide self.

        Both are polynomials (`_canonicalize` shifts a Laurent numerator), so a
        quotient term with a negative exponent proves that f does not divide.
        f must be free of r and zeta (every denominator factor is), so no
        product below needs a reduction and the remainder is updated in place:
        each step takes the leading term off the remainder and subtracts only
        the non-leading terms of f times the new quotient term.  The division
        is over Z, by the primitive part P of f's int numerator: by Gauss's
        lemma, applied to each r^i zeta^j coordinate, a P that divides an int
        numerator over Q leaves an int quotient, so the first quotient
        coefficient that is not an int proves that f does not divide self.
        """
        if f.is_zero():
            raise TriformError("exact division by the zero Poly")
        assert not any(mo[3] or mo[4] for mo in f.terms), "divisors must be free of r and zeta"
        fmo, fc = f.leading()
        f0, f1, f2, _, _ = fmo
        content = gcd(*f.terms.values())
        fc //= content
        ftail = [(mo, c // content) for mo, c in f.terms.items() if mo != fmo]
        rem = dict(self.terms)
        quot: dict = {}
        while rem:
            mo = max(zip(map(sum, rem), rem))[1]
            dm = (mo[0] - f0, mo[1] - f1, mo[2] - f2, mo[3], mo[4])
            if dm[0] < 0 or dm[1] < 0 or dm[2] < 0:
                return None
            qc, frac = divmod(rem.pop(mo), fc)
            if frac:  # not an int: P does not divide
                return None
            quot[dm] = qc
            for tm, tc in ftail:
                m = (dm[0] + tm[0], dm[1] + tm[1], dm[2] + tm[2], dm[3], dm[4])
                c = qc * tc
                if m in rem:
                    c = rem[m] - c
                    if c:
                        rem[m] = c
                    else:
                        del rem[m]
                else:
                    rem[m] = -c
        # self / f = (quot / primitive part) * f.den / (self.den * content)
        return Poly._make(self.field, {mo: c * f.den for mo, c in quot.items()}, self.den * content)

    def shift_down(self, mono: tuple) -> "Poly":
        """self / mono for a Laurent monomial: exponents shift, coefficients stay."""
        e0, e1, e2, e3, e4 = mono
        return Poly._raw(
            self.field,
            {(m0 - e0, m1 - e1, m2 - e2, m3 - e3, m4 - e4): c for (m0, m1, m2, m3, m4), c in self.terms.items()},
            self.den,
        )

    def substitute(self, assignment: dict) -> "Poly":
        """Substitute exact rational values for a subset of a, b, u."""
        vals = {}
        for name, v in assignment.items():
            if name not in ("a", "b", "u"):
                raise TriformError(f"cannot specialize variable {name!r}")
            vals[VARS.index(name)] = Fraction(v)
        out: dict = {}
        for mo, c in self.coefficients():
            new_mo = list(mo)
            for idx, v in vals.items():
                c = c * v ** mo[idx]
                new_mo[idx] = 0
            new_mo = tuple(new_mo)
            out[new_mo] = out[new_mo] + c if new_mo in out else c
        return Poly(self.field, out)

    # -- rendering -----------------------------------------------------
    def render(self) -> str:
        if self.is_zero():
            return "0"
        names = VARS[:4] + (f"zeta{self.field.m}",)
        parts: list[str] = []
        for mo, c in self.coefficients():
            parts.append(_render_term(names, mo, c, first=not parts))
        return "".join(parts)

    def __repr__(self):
        return f"Poly<{self.render()}>"


def _mul_into(out: dict, field: FieldSpec, terms1: dict, terms2: dict, s: int) -> None:
    """Add s times the product of two int term dicts to out in place, one
    term product at a time, reduced by r^2 -> q and zeta^d -> its Phi_M row."""
    dr, dz, table = field.reduction
    for (a1, b1, u1, r1, z1), c1 in terms1.items():
        c1 *= s
        for (a2, b2, u2, r2, z2), c2 in terms2.items():
            c = c1 * c2
            er, ez = r1 + r2, z1 + z2
            if er >= dr or ez >= dz:
                for (kr, kz), f in table[er, ez]:
                    mo = (a1 + a2, b1 + b2, u1 + u2, kr, kz)
                    out[mo] = out[mo] + c * f if mo in out else c * f
                continue
            mo = (a1 + a2, b1 + b2, u1 + u2, er, ez)
            if mo in out:
                out[mo] = out[mo] + c
            else:
                out[mo] = c


def _render_term(names: tuple, mo: tuple, c: Fraction, first: bool) -> str:
    mono = "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(names, mo) if e)
    cs = str(abs(c))
    if mono and cs == "1":
        body = mono
    elif mono:
        body = f"{cs}*{mono}"
    else:
        body = cs
    if first:
        return ("-" if c < 0 else "") + body
    return (" - " if c < 0 else " + ") + body


class Scalar:
    """An element of Q(zeta_M)(a, b, u)[r]/(r^2 - q).

    num is a Laurent Poly (its exponents of a, b, u may be negative); den a
    sorted tuple of monic Poly factors in a, b, u (free of r and zeta) with no
    monomial content, so none is a monomial, and none divides num.  Equality is
    decided exactly by cross-multiplication; is_zero by the (expanded)
    numerator.
    """

    __slots__ = ("field", "num", "den", "_memo")

    def __init__(self, field: FieldSpec, num: Poly, den: tuple = (), trial: bool = True):
        self.field = field
        self.num, self.den = _canonicalize(field, num, den, trial)
        self._memo = None  # k -> self**k and ("tail", k0) -> self.geometric_tail(k0), made on first use

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_rational(cls, field: FieldSpec, x) -> "Scalar":
        return cls(field, Poly.const(field, x))

    @classmethod
    def variable(cls, field: FieldSpec, name: str) -> "Scalar":
        return cls(field, Poly.var(field, name))

    # -- predicates -------------------------------------------------------
    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        # the term count, then the constant coefficient: no Poly comparison
        return not self.den and len(self.num.terms) == 1 and self.num.terms.get(_CONST) == 1 == self.num.den

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.num == other.num and self.den == other.den:
            return True
        return products_equal(self.field, (self,), (other,))

    __hash__ = None  # mutable-free but equality is semantic; not hashable

    # -- arithmetic -------------------------------------------------------
    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar.from_rational(self.field, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        if self.den == other.den:
            return Scalar(self.field, self.num + other.num, self.den)
        # the multiset union of the factors, counted by their cached den_key
        poly = {f.den_key(): f for f in (*self.den, *other.den)}
        mine, theirs = Counter(map(Poly.den_key, self.den)), Counter(map(Poly.den_key, other.den))
        common = mine | theirs
        num = self.num * _product(self.field, map(poly.get, (common - mine).elements()))
        num = num + other.num * _product(self.field, map(poly.get, (common - theirs).elements()))
        return Scalar(self.field, num, tuple(map(poly.get, common.elements())))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        s = Scalar.__new__(Scalar)
        s.field, s.num, s.den, s._memo = self.field, -self.num, self.den, None
        return s

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.num.is_zero():
            return self
        if other.num.is_zero():
            return other
        if self.is_one():
            return other
        if other.is_one():
            return self
        # A canonical numerator has no den factor dividing it, and a monomial
        # multiplier, a Laurent one included, is a unit that cannot change that.
        monomial = (not self.den and len(self.num.terms) == 1) or (not other.den and len(other.num.terms) == 1)
        return Scalar(self.field, self.num * other.num, self.den + other.den, trial=not monomial)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def inverse(self) -> "Scalar":
        """den times the numerator's Galois conjugates (zeta -> zeta^k for the
        units 1 < k < M, then r -> -r), over their product with the numerator,
        which lies in Q[a, b, u]."""
        if self.is_zero():
            raise TriformError("division by the zero Scalar")
        num, norm, m = _product(self.field, self.den), self.num, self.field.m
        conjugates = [norm.galois(1, k) for k in range(2, m) if gcd(k, m) == 1] if norm.has_zeta() else []
        for conj in conjugates:
            num, norm = num * conj, norm * conj
        if norm.has_r():  # norm is zeta-free: each zeta -> zeta^k permutes its factors
            conj = norm.galois(-1, 1)
            num, norm = num * conj, norm * conj
        if norm.is_zero():
            raise TriformError("zero divisor: the numerator times its Galois conjugates vanishes")
        return Scalar(self.field, num, (norm,))

    def __pow__(self, k: int) -> "Scalar":
        """self**k, memoized per object (Scalars are immutable) for k != 1; one
        inverse serves every k < 0, and a failed inverse stores nothing, so
        zero**-1 raises every time."""
        if k == 1:
            return self
        if self._memo is None:
            self._memo = {}
        out = self._memo.get(k)
        if out is None:
            if k < 0:
                out = (self.inverse() if k == -1 else self**-1) ** (-k)
            else:
                out, base, e = Scalar.from_rational(self.field, 1), self, k
                while e:
                    if e & 1:
                        out = out * base
                    base = base * base if e > 1 else base
                    e >>= 1
            self._memo[k] = out
        return out

    # -- the regularization primitive --------------------------------------
    def geometric_tail(self, k0: int) -> "Scalar":
        """Sum_{k >= k0} self^k in closed form: self^k0 / (1 - self), memoized
        per object as powers are; a pole stores nothing and raises every time."""
        if self._memo is None:
            self._memo = {}
        out = self._memo.get(("tail", k0))
        if out is None:
            denom = 1 - self
            if denom.is_zero():
                raise PoleError("pole on parameter locus: geometric tail at ratio 1 (factor 1 - (%s))" % self.render())
            out = self._memo["tail", k0] = (self**k0) / denom
        return out

    def zeta_counts(self) -> tuple | None:
        """(counts, d) with self = sum of n zeta_M^e over (e, n) in counts, divided by the
        int d, where self lies in Q(zeta_M); None outside it."""
        if self.den or any(a or b or u or r for a, b, u, r, _ in self.num.terms):
            return None
        return tuple((mo[4], n) for mo, n in self.num.terms.items()), self.num.den

    # -- specialization -----------------------------------------------------
    def specialize(self, assignment: dict) -> "Scalar":
        num, den = self._quotient()
        out = Scalar(self.field, num.substitute(assignment))
        for f in den:
            fv = f.substitute(assignment)
            if fv.is_zero():
                raise PoleError("specialization pole: denominator factor (%s) vanishes" % f.render())
            out = out / Scalar(self.field, fv)
        return out

    # -- rendering ------------------------------------------------------------
    def _quotient(self) -> tuple[Poly, tuple]:
        """num / den as polynomials: num times the monomial of exponent max(0, -least
        exponent) per variable, which joins the factors in den_key order."""
        up = tuple(min(0, e) for e in _content_monomial(self.num))
        if not any(up):
            return self.num, self.den
        mono = Poly._raw(self.field, {tuple(-e for e in up): 1})
        return self.num.shift_down(up), tuple(sorted((*self.den, mono), key=Poly.den_key))

    def render(self) -> str:
        num, den = self._quotient()
        return "(%s)/(%s)" % (num.render(), "*".join("(%s)" % f.render() for f in den)) if den else num.render()

    def __repr__(self):
        return f"Scalar<{self.render()}>"


def _content_monomial(poly: Poly) -> tuple:
    """The least exponents of a, b and u over poly's terms (0 for r and zeta)."""
    ea, eb, eu, _, _ = map(min, zip(*poly.terms)) if poly.terms else _CONST
    return (ea, eb, eu, 0, 0)


def _canonicalize(field: FieldSpec, num: Poly, den: tuple, trial: bool = True) -> tuple[Poly, tuple]:
    """Move each factor's monomial content into the numerator, make factors
    monic, then (when `trial`) try each factor against the numerator;
    trial=False is for callers that know no factor can divide num."""
    if num.is_zero():
        return Poly.zero(field), ()
    out: list[Poly] = []
    for f in den:
        if f._canonical:  # a factor this function returned before: monic, r- and zeta-free, no monomial content
            out.append(f)
            continue
        if f.is_zero():
            raise TriformError("zero denominator factor")
        if f.has_r() or f.has_zeta():
            raise AssertionError("denominator factors must be free of r and zeta")
        mono = _content_monomial(f)
        if any(mono):  # a unit: it moves to the numerator as negative exponents
            f, num = f.shift_down(mono), num.shift_down(mono)
        _, lc = f.leading()
        if lc != f.den:  # make f monic (a constant becomes 1)
            inv = Fraction(f.den, lc)
            f, num = f.scale(inv), num.scale(inv)
        if not f.is_constant():
            f._canonical = True
            out.append(f)
    if trial and out:
        # cancel factors dividing num shifted to zero a, b, u content; prefilters: a
        # factor has two terms or more, and its leading and trailing monomials divide
        low = _content_monomial(num)
        part = start = num.shift_down(low) if any(low) else num
        while out and len(part.terms) > 1:
            nlead, ntrail = part.leading()[0], part.trailing_monomial()
            for i, f in enumerate(out):
                flead = f.leading()[0]
                if nlead[0] < flead[0] or nlead[1] < flead[1] or nlead[2] < flead[2]:
                    continue
                ftrail = f.trailing_monomial()
                if ntrail[0] < ftrail[0] or ntrail[1] < ftrail[1] or ntrail[2] < ftrail[2]:
                    continue
                q = part.divexact(f)
                if q is not None:
                    part = q
                    del out[i]
                    break
            else:
                break
        if part is not start:
            num = part.shift_down(tuple(-e for e in low)) if any(low) else part
    if len(out) > 1:
        out.sort(key=Poly.den_key)
    return num, tuple(out)


def sum_products(field: FieldSpec, items, den: int = 1) -> Scalar:
    """The sum over items (factors, e, n) of n zeta_M^e times the product of the Scalars
    `factors`, over the int den: the one accumulator of the engine's exact sums.  A factor
    is classified by its fields: a zero skips the item, a one is dropped, and only
    denominator factors make the multiset key (none: the key ()).  A multiset of one item
    with e = 0, n = 1 and den = 1 is that item's Scalar product; any other multiset's
    items are multiplied into one int accumulator in place (`_add_product`) and become one
    Scalar.  A multiset whose items all carry one Scalar skips the trial divisions: a
    nonzero element of Q(zeta_M) is a unit.  `items` is consumed as it streams; () is 1."""
    groups: dict = {}
    for factors, e, n in items:
        fs, dens = [], ()
        for f in factors:
            terms = f.num.terms
            if not terms:
                break
            if f.den:
                dens += f.den
            elif len(terms) == 1 and f.num.den == 1 and terms.get(_CONST) == 1:
                continue
            fs.append(f)
        else:
            key = tuple(sorted(g.den_key() for g in dens)) if dens else ()
            lone = fs[0] if len(fs) == 1 else None
            group = groups.get(key)
            if group is None:
                groups[key] = [dens, lone, (fs, e, n), None, 1]  # the accumulator starts once a second item joins
                continue
            if group[3] is None:
                group[3] = {}
                group[4] = _add_product(field, group[3], 1, *group[2])
            if lone is not group[1]:
                group[1] = None
            group[4] = _add_product(field, group[3], group[4], fs, e, n)
    out = None
    for dens, lone, (fs, e, n), acc, d in groups.values():
        if acc is None and not e and n == 1 == den:
            term = fs[0] if fs else Scalar.from_rational(field, 1)
            for f in fs[1:]:
                term = term * f
        else:
            if acc is None:
                acc = {}
                d = _add_product(field, acc, 1, fs, e, n)
            term = Scalar(field, Poly._make(field, acc, d * den), dens, trial=lone is None)
        out = term if out is None else out + term
    return Scalar(field, Poly.zero(field)) if out is None else out


def _add_product(field: FieldSpec, acc: dict, den: int, fs: list, e: int, n: int) -> int:
    """Add n zeta_M^e times the numerators' product of fs to the int terms acc over den in
    place (the last one multiplied straight in); return the lcm of the denominators, acc's new one."""
    e %= field.m
    lead, head = (field.zeta_terms[e], fs[:-1]) if e or len(fs) < 2 else (fs[0].num.terms, fs[1:-1])
    for f in head:
        lead, prev = {}, lead
        _mul_into(lead, field, prev, f.num.terms, 1)
    pd = 1
    for f in fs:
        pd *= f.num.den
    d = lcm(den, pd)
    if d != den:
        for mo in acc:
            acc[mo] *= d // den
    _mul_into(acc, field, lead, fs[-1].num.terms if fs else {_CONST: 1}, n * (d // pd))
    return d


def products_equal(field: FieldSpec, lhs, rhs) -> bool:
    """Whether the product of the Scalars lhs equals that of rhs: the numerators
    of each side times the denominator factors of the other, compared as Polys
    with no canonicalization."""
    left = _product(field, [f.num for f in lhs] + [g for f in rhs for g in f.den])
    right = _product(field, [f.num for f in rhs] + [g for f in lhs for g in f.den])
    return (left - right).is_zero()


def _product(field: FieldSpec, factors) -> Poly:
    acc = None
    for f in factors:
        acc = f if acc is None else acc * f
    return Poly._raw(field, {_CONST: 1}) if acc is None else acc


# ---------------------------------------------------------------------------
# textual grammar: deterministic rendering above, recursive-descent parsing here
# ---------------------------------------------------------------------------


def _tokenize(s: str) -> list:
    toks, i = [], 0
    while i < len(s):
        ch, j = s[i], i + 1
        if ch.isdecimal() or ch.isalpha():  # an int is a run of digits, a name a letter and alphanumerics
            more = str.isdecimal if ch.isdecimal() else str.isalnum
            while j < len(s) and more(s[j]):
                j += 1
            toks.append(("int", int(s[i:j])) if ch.isdecimal() else ("name", s[i:j]))
        elif ch in "+-*/^()":
            toks.append((ch, ch))
        elif not ch.isspace():
            raise TriformError(f"bad character {ch!r} in scalar literal")
        i = j
    return toks


class _Parser:
    def __init__(self, field: FieldSpec, toks: list):
        self.field = field
        self.toks = toks
        self.pos = 0

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def next(self):
        if self.pos == len(self.toks):
            raise TriformError("unexpected end of scalar literal")
        self.pos += 1
        return self.toks[self.pos - 1]

    def parse_expr(self) -> Scalar:
        acc = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.next()[0]
            rhs = self.parse_term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def parse_term(self) -> Scalar:
        acc = self.parse_factor()
        while self.peek() in ("*", "/"):
            if self.next()[0] == "*":
                acc = acc * self.parse_factor()
            else:
                for f in self.parse_divisor():
                    acc = acc / f
        return acc

    def parse_divisor(self) -> list:
        """What to divide by, one factor at a time: a parenthesized product gives
        its factors, so the factors of a rendered denominator stay separate
        factors; anything else is one factor."""
        start = self.pos
        if self.peek() == "(":
            self.next()
            factors = [self.parse_factor()]
            while self.peek() == "*":
                self.next()
                factors.append(self.parse_factor())
            powered = self.pos + 1 < len(self.toks) and self.toks[self.pos + 1][0] == "^"
            if self.peek() == ")" and not powered:
                self.next()
                return factors
            self.pos = start  # a sum, or a power of the product: one factor
        return [self.parse_factor()]

    def parse_factor(self) -> Scalar:
        neg = False
        while self.peek() == "-":
            self.next()
            neg = not neg
        base = self.parse_atom()
        if self.peek() == "^":
            self.next()
            sign = 1
            while self.peek() == "-":
                self.next()
                sign = -sign
            kind, val = self.next()
            if kind != "int":
                raise TriformError("exponent must be an integer")
            base = base ** (sign * val)
        return -base if neg else base

    def parse_atom(self) -> Scalar:
        kind, val = self.next()
        if kind == "int":
            return Scalar.from_rational(self.field, val)
        if kind == "(":
            e = self.parse_expr()
            if self.next()[0] != ")":
                raise TriformError("unbalanced parenthesis")
            return e
        if kind == "name":
            if val in ("a", "b", "u", "r"):
                return Scalar.variable(self.field, val)
            if val.startswith("zeta"):
                order = int(val[4:]) if val[4:].isdecimal() else 0
                if not order:
                    raise TriformError(f"{val!r} is not zeta with a positive order")
                if self.field.m % order != 0:
                    raise TriformError(f"zeta{order} does not live in Q(zeta_{self.field.m})")
                return Scalar(self.field, Poly.zeta_sum(self.field, {self.field.m // order: 1}))
        raise TriformError(f"unexpected token {val!r}")


def parse_scalar(field: FieldSpec, text: str) -> Scalar:
    p = _Parser(field, _tokenize(text))
    try:
        out = p.parse_expr()
    except RecursionError:  # the parser recurses once per nesting level
        raise TriformError("scalar literal nested too deeply") from None
    if p.pos != len(p.toks):
        raise TriformError("trailing input in scalar literal")
    return out
