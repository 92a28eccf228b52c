"""The exact coefficient field Q(zeta_M)(a, b, u)[r]/(r^2 - q).

a and b are the Satake-type parameters of the two spherical principal series
(mu_i(pi)/sqrt q), u is the value at the uniformizer of the ramified character
cutting out the third representation, and r is a formal square root of q.
Every certificate the engine emits is ultimately an `is_zero` question about
one of these Scalars, so all arithmetic is exact and zero-testing syntactic:
a Scalar is an expanded numerator polynomial over a multiset of monic, r-free
denominator factors.

Cancellation has two parts.  Monomial content (powers of a, b, u) is split
off every denominator factor and cancelled against the numerator's content by
subtracting exponents, with no division.  The remaining factors are then
tried against the numerator by exact division, which keeps its remainder in
one dict and subtracts only the non-leading terms of the divisor at each step
(the divisor is r-free, so no r^2 -> q rewrite arises there).  A product with
a monomial skips the trial divisions: a factor that did not divide a
canonical numerator does not divide it times a monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cyclo import Cyclo, RootOfUnity

VARS = ("a", "b", "u", "r")


class ScalarError(Exception):
    pass


class ScalarDivisionError(ScalarError):
    """Division by the zero Scalar (or by a sqrt-q zero divisor)."""


class PoleError(ScalarError):
    """A geometric tail or specialization hit the excluded parameter locus."""


@dataclass(frozen=True)
class FieldSpec:
    """Shared read-only scalar-field configuration: zeta order and q = r^2."""

    m: int
    q: int


def _grlex_key(mono: tuple[int, int, int, int]):
    return (sum(mono), mono)


class Poly:
    """Multivariate polynomial in (a, b, u, r) over Q(zeta_M), with r^2 -> q."""

    __slots__ = ("field", "terms", "_lead", "_den_key")

    def __init__(self, field: FieldSpec, terms: dict):
        self.field = field
        self.terms = {mo: c for mo, c in terms.items() if not c.is_zero()}
        self._lead = None
        self._den_key = None

    @classmethod
    def _raw(cls, field: FieldSpec, terms: dict) -> "Poly":
        """Skip the zero-coefficient filter (caller guarantees none)."""
        out = object.__new__(cls)
        out.field = field
        out.terms = terms
        out._lead = None
        out._den_key = None
        return out

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, field: FieldSpec) -> "Poly":
        return cls(field, {})

    @classmethod
    def const(cls, field: FieldSpec, c) -> "Poly":
        if isinstance(c, (int, Fraction)):
            c = Cyclo.from_rational(field.m, c)
        return cls(field, {(0, 0, 0, 0): c})

    @classmethod
    def var(cls, field: FieldSpec, name: str) -> "Poly":
        mono = tuple(1 if v == name else 0 for v in VARS)
        return cls(field, {mono: Cyclo.from_rational(field.m, 1)})

    # -- basic structure ----------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(mo == (0, 0, 0, 0) for mo in self.terms)

    def constant_value(self) -> Cyclo:
        if self.is_zero():
            return Cyclo.from_rational(self.field.m, 0)
        return self.terms[(0, 0, 0, 0)]

    def has_r(self) -> bool:
        return any(mo[3] for mo in self.terms)

    def leading(self) -> tuple[tuple[int, int, int, int], Cyclo]:
        if self._lead is None:
            mo = max(self.terms, key=_grlex_key)
            self._lead = (mo, self.terms[mo])
        return self._lead

    def trailing_monomial(self):
        return min(self.terms, key=_grlex_key)

    def den_key(self) -> str:
        """The order of denominator factors: the repr of the grlex-descending terms."""
        if self._den_key is None:
            terms = sorted(((mo, c.co) for mo, c in self.terms.items()), key=lambda t: _grlex_key(t[0]), reverse=True)
            self._den_key = repr(terms)
        return self._den_key

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset((mo, c) for mo, c in self.terms.items()))

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        zero = Cyclo.from_rational(self.field.m, 0)
        for mo, c in other.terms.items():
            out[mo] = out.get(mo, zero) + c
        return Poly(self.field, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly._raw(self.field, {mo: -c for mo, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict = {}
        qc = Fraction(self.field.q)
        for mo1, c1 in self.terms.items():
            for mo2, c2 in other.terms.items():
                c = c1 * c2
                er = mo1[3] + mo2[3]
                if er == 2:  # rewrite r^2 -> q
                    c = c * qc
                    er = 0
                mo = (mo1[0] + mo2[0], mo1[1] + mo2[1], mo1[2] + mo2[2], er)
                if mo in out:
                    out[mo] = out[mo] + c
                else:
                    out[mo] = c
        return Poly(self.field, out)

    def scale(self, c: Cyclo) -> "Poly":
        if c.is_zero():
            return Poly.zero(self.field)
        return Poly._raw(self.field, {mo: co * c for mo, co in self.terms.items()})

    def conj_r(self) -> "Poly":
        """The automorphism r -> -r."""
        return Poly._raw(self.field, {mo: (-c if mo[3] else c) for mo, c in self.terms.items()})

    def divexact(self, f: "Poly") -> "Poly | None":
        """Exact quotient self / f, or None when f does not divide self.

        f must be r-free (every denominator factor is), so no product below
        carries r^2 and the remainder is updated in place: each step takes the
        leading term off the remainder and subtracts only the non-leading terms
        of f times the new quotient term.
        """
        if f.is_zero():
            raise ZeroDivisionError
        assert not f.has_r(), "divisors must be r-free"
        fmo, fc = f.leading()
        f0, f1, f2, _ = fmo
        fc_inv = None if fc.is_one() else fc.inverse()
        ftail = [(mo, c) for mo, c in f.terms.items() if mo != fmo]
        rem = dict(self.terms)
        quot: dict = {}
        while rem:
            mo = max(rem, key=_grlex_key)
            dm = (mo[0] - f0, mo[1] - f1, mo[2] - f2, mo[3])
            if dm[0] < 0 or dm[1] < 0 or dm[2] < 0:
                return None
            qc = rem.pop(mo)
            if fc_inv is not None:
                qc = qc * fc_inv
            quot[dm] = qc
            for tm, tc in ftail:
                m = (dm[0] + tm[0], dm[1] + tm[1], dm[2] + tm[2], dm[3])
                c = qc * tc
                if m in rem:
                    c = rem[m] - c
                    if c.is_zero():
                        del rem[m]
                    else:
                        rem[m] = c
                else:
                    rem[m] = -c
        return Poly._raw(self.field, quot)

    def shift_down(self, mono: tuple[int, int, int, int]) -> "Poly":
        """self / mono for a monomial dividing every term: exponents shift, coefficients stay."""
        e0, e1, e2, e3 = mono
        return Poly._raw(
            self.field, {(m0 - e0, m1 - e1, m2 - e2, m3 - e3): c for (m0, m1, m2, m3), c in self.terms.items()}
        )

    def substitute(self, assignment: dict) -> "Poly":
        """Substitute exact rational/cyclotomic values for a subset of a, b, u."""
        vals = {}
        for name, v in assignment.items():
            if name not in ("a", "b", "u"):
                raise ScalarError(f"cannot specialize variable {name!r}")
            vals[VARS.index(name)] = v if isinstance(v, Cyclo) else Cyclo.from_rational(self.field.m, v)
        out = Poly.zero(self.field)
        for mo, c in self.terms.items():
            coeff = c
            new_mo = list(mo)
            for idx, v in vals.items():
                for _ in range(mo[idx]):
                    coeff = coeff * v
                new_mo[idx] = 0
            out = out + Poly(self.field, {tuple(new_mo): coeff})
        return out

    # -- rendering -----------------------------------------------------
    def render(self) -> str:
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for mo in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[mo]
            parts.append(_render_term(mo, c, first=not parts))
        return "".join(parts)

    def __repr__(self):
        return f"Poly<{self.render()}>"


def _render_cyclo(c: Cyclo) -> tuple[str, bool]:
    """Render a coefficient; second component says whether a sign can be pulled out."""
    if c.is_rational():
        v = c.rational_value()
        s = str(v)
        return s, True
    terms = []
    for k, co in enumerate(c.co):
        if co == 0:
            continue
        if k == 0:
            terms.append(str(co))
        else:
            mag = "" if abs(co) == 1 else f"{abs(co)}*"
            t = f"{mag}zeta{c.m}" + (f"^{k}" if k > 1 else "")
            terms.append(t if co > 0 and not terms else (("+" if co > 0 else "-") + t) if terms else ("-" + t))
    return "(" + "".join(terms) + ")", True


def _render_term(mo, c: Cyclo, first: bool) -> str:
    names = []
    for name, e in zip(VARS, mo):
        if e == 1:
            names.append(name)
        elif e > 1:
            names.append(f"{name}^{e}")
    mono = "*".join(names)
    cs, plain = _render_cyclo(c)
    neg = plain and cs.startswith("-")
    if neg:
        cs = cs[1:]
    if mono and cs == "1":
        body = mono
    elif mono:
        body = f"{cs}*{mono}"
    else:
        body = cs
    if first:
        return ("-" if neg else "") + body
    return (" - " if neg else " + ") + body


_ONE_POLY: dict = {}


class Scalar:
    """An element of Q(zeta_M)(a, b, u)[r]/(r^2 - q).

    num is a Poly; den a sorted tuple of monic, r-free, non-constant Poly
    factors, none of which divides num.  Equality is decided exactly by
    cross-multiplication; is_zero by the (expanded) numerator.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: FieldSpec, num: Poly, den: tuple = (), trial: bool = True):
        self.field = field
        num, den = _canonicalize(field, num, den, trial)
        self.num = num
        self.den = den

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_rational(cls, field: FieldSpec, x) -> "Scalar":
        if field not in _ONE_POLY:
            _ONE_POLY[field] = Poly.const(field, 1)
        return cls(field, Poly.const(field, x))

    @classmethod
    def from_cyclo(cls, field: FieldSpec, c: Cyclo) -> "Scalar":
        return cls(field, Poly(field, {(0, 0, 0, 0): c}))

    @classmethod
    def from_root_of_unity(cls, field: FieldSpec, z: RootOfUnity) -> "Scalar":
        return cls.from_cyclo(field, z.embed(field.m))

    @classmethod
    def variable(cls, field: FieldSpec, name: str) -> "Scalar":
        return cls(field, Poly.var(field, name))

    # -- predicates -------------------------------------------------------
    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return not self.den and self.num == Poly.const(self.field, 1)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar.from_rational(self.field, other)
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.num == other.num and self.den == other.den:
            return True
        lhs = self.num
        for f in other.den:
            lhs = lhs * f
        rhs = other.num
        for f in self.den:
            rhs = rhs * f
        return (lhs - rhs).is_zero()

    __hash__ = None  # mutable-free but equality is semantic; not hashable

    # -- arithmetic -------------------------------------------------------
    def _coerce(self, other) -> "Scalar":
        if isinstance(other, (int, Fraction)):
            return Scalar.from_rational(self.field, other)
        if isinstance(other, Cyclo):
            return Scalar.from_cyclo(self.field, other)
        if isinstance(other, RootOfUnity):
            return Scalar.from_root_of_unity(self.field, other)
        if isinstance(other, Scalar):
            return other
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
        common = _multiset_union(self.den, other.den)
        num = self.num * _product(self.field, _multiset_diff(common, self.den)) + other.num * _product(
            self.field, _multiset_diff(common, other.den)
        )
        return Scalar(self.field, num, common)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        s = Scalar.__new__(Scalar)
        s.field, s.num, s.den = self.field, -self.num, self.den
        return s

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.num.is_zero():
            return self
        if other.num.is_zero():
            return other
        if not self.den and self.num == _ONE_POLY.get(self.field, None):
            return other
        if not other.den and other.num == _ONE_POLY.get(other.field, None):
            return self
        # A canonical numerator has no den factor dividing it, and a monomial
        # multiplier cannot change that (den factors have no monomial content),
        # so only the monomial cancellation is needed.
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
        if self.is_zero():
            raise ScalarDivisionError("division by the zero Scalar")
        n = self.num
        numerator = _product(self.field, self.den)
        if n.has_r():
            conj = n.conj_r()
            norm = n * conj  # r-free by construction
            if norm.is_zero():
                raise ScalarDivisionError("sqrt(q) zero divisor: numerator times its r-conjugate vanishes")
            return Scalar(self.field, numerator * conj, (norm,))
        return Scalar(self.field, numerator, (n,))

    def __pow__(self, k: int) -> "Scalar":
        if k < 0:
            return self.inverse() ** (-k)
        acc = Scalar.from_rational(self.field, 1)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base if k > 1 else base
            k >>= 1
        return acc

    # -- the regularization primitive --------------------------------------
    def geometric_tail(self, k0: int) -> "Scalar":
        """Sum_{k >= k0} self^k in closed form: self^k0 / (1 - self)."""
        one = Scalar.from_rational(self.field, 1)
        denom = one - self
        if denom.is_zero():
            raise PoleError("pole on parameter locus: geometric tail at ratio 1 (factor 1 - (%s))" % self.render())
        return (self**k0) / denom

    # -- specialization -----------------------------------------------------
    def specialize(self, assignment: dict) -> "Scalar":
        out = Scalar(self.field, self.num.substitute(assignment))
        for f in self.den:
            fv = f.substitute(assignment)
            if fv.is_zero():
                raise PoleError("specialization pole: denominator factor (%s) vanishes" % f.render())
            out = out / Scalar(self.field, fv)
        return out

    # -- rendering ------------------------------------------------------------
    def render(self) -> str:
        if not self.den:
            return self.num.render()
        dens = "*".join("(%s)" % f.render() for f in self.den)
        return "(%s)/(%s)" % (self.num.render(), dens)

    def __repr__(self):
        return f"Scalar<{self.render()}>"

    def as_fraction(self) -> Fraction:
        """The value as an exact rational (raises unless constant and rational)."""
        if self.den or not self.num.is_constant():
            raise ScalarError("scalar is not a rational constant: %s" % self.render())
        return self.num.constant_value().rational_value()


def _content_monomial(poly: Poly) -> tuple[int, int, int, int]:
    mono = None
    for mo in poly.terms:
        mono = mo if mono is None else tuple(min(x, y) for x, y in zip(mono, mo))
    return mono or (0, 0, 0, 0)


def _canonicalize(field: FieldSpec, num: Poly, den: tuple, trial: bool = True) -> tuple[Poly, tuple]:
    """Cancel monomial content, make factors monic, then (when `trial`) try
    each factor against the numerator; trial=False is for callers that know no
    non-monomial factor can divide num."""
    if num.is_zero():
        return Poly.zero(field), ()
    out: list[Poly] = []
    den_mono = (0, 0, 0, 0)
    for f in den:
        if f.is_zero():
            raise ScalarDivisionError("zero denominator factor")
        if f.has_r():
            raise AssertionError("denominator factors must be r-free")
        if f.is_constant():
            num = num.scale(f.constant_value().inverse())
            continue
        # split off the monomial content so a*b-powers cancel transparently
        mono = _content_monomial(f)
        if any(mono):
            f = f.shift_down(mono)
            den_mono = tuple(x + y for x, y in zip(den_mono, mono))
        if f.is_constant():
            num = num.scale(f.constant_value().inverse())
            continue
        _, lc = f.leading()
        if not lc.is_one():
            f = f.scale(lc.inverse())
            num = num.scale(lc.inverse())
        out.append(f)
    if any(den_mono):
        # cancel against the numerator's own monomial content
        num_mono = _content_monomial(num)
        common = tuple(min(x, y) for x, y in zip(num_mono, den_mono))
        left = tuple(x - y for x, y in zip(den_mono, common))
        if any(common):
            num = num.shift_down(common)
        if any(left):
            if left[3]:  # keep denominators r-free: r / r^2 -> rewrite via r^2 = q
                raise AssertionError("denominator factors must be r-free")
            out.append(Poly(field, {left: Cyclo.from_rational(field.m, 1)}))
    # cancel factors dividing the numerator (with cheap divisibility prefilters:
    # both the leading and the trailing monomial of a divisor must divide the
    # numerator's, and a monomial can only be divided by a monomial)
    changed = trial
    while changed and out:
        changed = False
        if num.is_constant():
            break
        nlead = num.leading()[0]
        ntrail = num.trailing_monomial()
        n_terms = len(num.terms)
        for i, f in enumerate(out):
            if n_terms == 1 and len(f.terms) > 1:
                continue
            flead = f.leading()[0]
            if (
                nlead[0] < flead[0]
                or nlead[1] < flead[1]
                or nlead[2] < flead[2]
                or nlead[3] < flead[3]
            ):
                continue
            ftrail = f.trailing_monomial()
            if (
                ntrail[0] < ftrail[0]
                or ntrail[1] < ftrail[1]
                or ntrail[2] < ftrail[2]
                or ntrail[3] < ftrail[3]
            ):
                continue
            q = num.divexact(f)
            if q is not None:
                num = q
                out.pop(i)
                changed = True
                break
    if len(out) > 1:
        out.sort(key=Poly.den_key)
    return num, tuple(out)


def _multiset_union(d1: tuple, d2: tuple) -> tuple:
    rest = list(d2)
    out = list(d1)
    for f in d1:
        if f in rest:
            rest.remove(f)
    out.extend(rest)
    return tuple(out)


def _multiset_diff(d1: tuple, d2: tuple) -> tuple:
    out = list(d1)
    for f in d2:
        out.remove(f)
    return tuple(out)


def _product(field: FieldSpec, factors) -> Poly:
    acc = Poly.const(field, 1)
    for f in factors:
        acc = acc * f
    return acc


# ---------------------------------------------------------------------------
# textual grammar: deterministic rendering above, recursive-descent parsing here
# ---------------------------------------------------------------------------


def _tokenize(s: str) -> list:
    toks = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(s) and s[j].isdigit():
                j += 1
            toks.append(("int", int(s[i:j])))
            i = j
        elif ch.isalpha():
            j = i
            while j < len(s) and (s[j].isalnum()):
                j += 1
            toks.append(("name", s[i:j]))
            i = j
        elif ch in "+-*/^()":
            toks.append((ch, ch))
            i += 1
        else:
            raise ScalarError(f"bad character {ch!r} in scalar literal")
    return toks


class _Parser:
    def __init__(self, field: FieldSpec, toks: list):
        self.field = field
        self.toks = toks
        self.pos = 0

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

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
            op = self.next()[0]
            rhs = self.parse_factor()
            acc = acc * rhs if op == "*" else acc / rhs
        return acc

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
                raise ScalarError("exponent must be an integer")
            base = base ** (sign * val)
        return -base if neg else base

    def parse_atom(self) -> Scalar:
        kind, val = self.next()
        if kind == "int":
            return Scalar.from_rational(self.field, val)
        if kind == "(":
            e = self.parse_expr()
            if self.next()[0] != ")":
                raise ScalarError("unbalanced parenthesis")
            return e
        if kind == "name":
            if val in ("a", "b", "u", "r"):
                return Scalar.variable(self.field, val)
            if val.startswith("zeta"):
                order = int(val[4:])
                if self.field.m % order != 0:
                    raise ScalarError(f"zeta{order} does not live in Q(zeta_{self.field.m})")
                return Scalar.from_root_of_unity(self.field, RootOfUnity(order, 1))
        raise ScalarError(f"unexpected token {val!r}")


def parse_scalar(field: FieldSpec, text: str) -> Scalar:
    p = _Parser(field, _tokenize(text))
    out = p.parse_expr()
    if p.pos != len(p.toks):
        raise ScalarError("trailing input in scalar literal")
    return out
