"""Smooth characters of F* and of the Borel subgroup.

A character is (conductor exponent c, unit data, value at the uniformizer as
a Scalar).  The unit data is held only as exponents of zeta_M: `images` has
the j with chi(g) = zeta_M^j for each canonical generator g of (O/p^c)*, and
the table of the j for every unit residue mod p^c is built with the
character.  The generator convention is fixed once per (p, c): a primitive
root for odd p, {-1, 5} for p = 2, so ramified characters in config files are
unambiguous.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import gcd

from .context import Context
from .errors import TriformError
from .padic import as_ratio, split
from .scalars import Scalar


@lru_cache(maxsize=None)
def unit_group_generators(p: int, c: int) -> tuple[tuple[int, int], ...]:
    """Canonical generators of (O/p^c)* with their orders, as (residue, order)."""
    if c == 0:
        return ()
    mod = p**c
    if p == 2:
        if c == 1:
            return ()
        if c == 2:
            return ((3, 2),)
        return ((mod - 1, 2), (5, 2 ** (c - 2)))
    # odd p: a primitive root mod p^2 generates every (Z/p^c)*
    order = (p - 1) * p ** (c - 1)
    for g in range(2, p * p):
        if pow(g, order, mod) != 1:
            continue
        ok = True
        for ell in _prime_factors(order):
            if pow(g, order // ell, mod) == 1:
                ok = False
                break
        if ok:
            return ((g % mod, order),)
    raise AssertionError("no primitive root found")


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def _dlog_table(p: int, c: int) -> dict:
    """unit residue mod p^c -> exponent tuple over the canonical generators."""
    import itertools

    gens = unit_group_generators(p, c)
    mod = p**c
    exps = [range(o) for _, o in gens]
    table = {}
    for tup in itertools.product(*exps):
        x = 1 % mod
        for (g, _), e in zip(gens, tup):
            x = x * pow(g, e, mod) % mod
        table[x] = tup
    return table


def _exponent_table(p: int, c: int, images: tuple, m: int) -> list:
    """Entry r is the j with chi(r) = zeta_m^j for each unit residue r mod p^c (None elsewhere)."""
    table = [None] * p**c
    for residue, exps in _dlog_table(p, c).items():
        table[residue] = sum(j * e for j, e in zip(images, exps)) % m
    return table


def _effective_conductor(p: int, table: list) -> int:
    """Smallest c such that the unit data of an _exponent_table factors through
    (O/p^c)*, i.e. is trivial on the units congruent to 1 mod p^c (the None
    entries, non-units, count as trivial)."""
    c = 0
    while p**c < len(table) and any(table[r] for r in range(1, len(table), p**c)):
        c += 1
    return c


class SmoothCharacter:
    """A smooth character of F*, with minimal (effective) conductor exponent c:
    the least c with trivial unit data on 1 + p^c (0 when unramified)."""

    __slots__ = ("ctx", "c", "images", "value_at_pi", "_exponents", "_values")

    def __init__(self, ctx: Context, c: int, images: tuple, value_at_pi: Scalar):
        """images: the exponent j, mod M, of each canonical generator's image zeta_M^j."""
        m = ctx.field.m
        gens = unit_group_generators(ctx.p, c)
        if len(images) != len(gens):
            raise TriformError(f"(O/p^{c})* has {len(gens)} canonical generators, got {len(images)} images")
        if value_at_pi.is_zero():
            raise TriformError("a character's value at pi must be nonzero")
        images = tuple(j % m for j in images)
        for j, (g, order) in zip(images, gens):
            if j * order % m:
                raise TriformError(f"image of generator {g} must have order dividing {order}")
        table = _exponent_table(ctx.p, c, images, m)
        eff = _effective_conductor(ctx.p, table)
        if eff != c:
            raise TriformError(
                f"declared conductor exponent {c} is not minimal (unit data factors through level {eff}); "
                "construct the character at its effective conductor"
            )
        self.ctx = ctx
        self.c = c
        self.images = images
        self.value_at_pi = value_at_pi
        self._exponents = table
        self._values: dict[int, Scalar] = {}  # v * M + j -> value_at_pi^v zeta_M^j; Scalars are immutable

    # -- constructors ---------------------------------------------------------
    @classmethod
    def unramified(cls, ctx: Context, value_at_pi) -> "SmoothCharacter":
        return cls(ctx, 0, (), ctx.scalar(value_at_pi))

    @classmethod
    def norm_power_half(cls, ctx: Context, k: int) -> "SmoothCharacter":
        """|.|^{k/2}; value at pi is q^{-k/2}."""
        return cls.unramified(ctx, ctx.q_power_half(-k))

    def is_unramified(self) -> bool:
        return self.c == 0

    # -- evaluation --------------------------------------------------------------
    def unit_exponent(self, residue: int) -> int:
        """The j with chi(residue) = zeta_M^j, for an int that is a unit mod p^c."""
        return self._exponents[residue % len(self._exponents)]

    def val_exponent(self, x: int, d: int = 1) -> tuple[int, int]:
        """(v, j) with chi(x / d) = value_at_pi^v zeta_M^j, for nonzero ints x and d."""
        p = self.ctx.p
        vx, ux = split(x, p)
        vd, ud = split(d, p)
        if not self.c:
            return vx - vd, 0
        return vx - vd, (self.unit_exponent(ux) - self.unit_exponent(ud)) % self.ctx.field.m

    def value(self, v: int, j: int) -> Scalar:
        """value_at_pi^v zeta_M^j, memoized."""
        key = v * self.ctx.field.m + j
        out = self._values.get(key)
        if out is None:
            out = self._values[key] = self.value_at_pi**v * self.ctx.zeta_powers[j]
        return out

    def eval(self, x, d: int = 1) -> Scalar:
        """chi(x / d) for ints x and d, or chi(x) for an int or Fraction x."""
        if type(x) is not int:
            x, d = as_ratio(x)
        if not x:
            raise TriformError("character evaluated at 0")
        return self.value(*self.val_exponent(x, d))

    # -- group structure ---------------------------------------------------------
    def __mul__(self, other: "SmoothCharacter") -> "SmoothCharacter":
        """The product: the two exponent tables added at the larger level, then
        read at the generators of the product's effective conductor."""
        p, cmax = self.ctx.p, max(self.c, other.c)
        table = [None] * p**cmax
        for residue in _dlog_table(p, cmax):
            table[residue] = (self.unit_exponent(residue) + other.unit_exponent(residue)) % self.ctx.field.m
        c = _effective_conductor(p, table)
        images = tuple(table[g] for g, _ in unit_group_generators(p, c))
        return SmoothCharacter(self.ctx, c, images, self.value_at_pi * other.value_at_pi)

    def inverse(self) -> "SmoothCharacter":
        return SmoothCharacter(self.ctx, self.c, tuple(-j for j in self.images), self.value_at_pi.inverse())

    def __truediv__(self, other: "SmoothCharacter") -> "SmoothCharacter":
        return self * other.inverse()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SmoothCharacter)
            and self.c == other.c
            and self.images == other.images
            and self.value_at_pi == other.value_at_pi
        )

    def __repr__(self):
        return f"SmoothCharacter<{self.render_spec()}>"

    # -- config grammar ------------------------------------------------------------
    def render_spec(self) -> str:
        """The config grammar, each image zeta_M^j written in lowest terms as zeta{M/g}^{j/g}, g = gcd(j, M)."""
        if self.c == 0:
            return f"unram(value={self.value_at_pi.render()})"
        m = self.ctx.field.m
        gens = unit_group_generators(self.ctx.p, self.c)
        parts = ",".join(f"{g}->zeta{m // gcd(j, m)}^{j // gcd(j, m)}" for (g, _), j in zip(gens, self.images))
        return f"ram(c={self.c}, gens=[{parts}], pi={self.value_at_pi.render()})"


_SPEC_UNRAM = re.compile(r"^unram\(\s*value\s*=\s*(?P<value>.*)\)$")
_SPEC_RAM = re.compile(r"^ram\(\s*c\s*=\s*(?P<c>\d+)\s*,\s*gens\s*=\s*\[(?P<gens>[^\]]*)\]\s*,\s*pi\s*=\s*(?P<pi>.*)\)$")
_GEN = re.compile(r"^\s*(?P<g>\d+)\s*->\s*zeta(?P<order>\d+)(\^(?P<e>-?\d+))?\s*$")


def parse_character_spec(ctx: Context, text: str) -> SmoothCharacter:
    """Parse the config mini-grammar: unram(value=...) / ram(c=..., gens=[...], pi=...)."""
    text = text.strip()
    m = _SPEC_UNRAM.match(text)
    if m:
        return SmoothCharacter.unramified(ctx, ctx.scalar(m.group("value")))
    m = _SPEC_RAM.match(text)
    if m:
        c = int(m.group("c"))
        gens = unit_group_generators(ctx.p, c)
        entries = [e for e in m.group("gens").split(",") if e.strip()]
        if len(entries) != len(gens):
            raise TriformError(f"expected {len(gens)} generator images for (p, c) = ({ctx.p}, {c})")
        images = []
        for entry, (g, _) in zip(entries, gens):
            gm = _GEN.match(entry)
            if not gm:
                raise TriformError(f"bad generator image {entry!r}")
            if int(gm.group("g")) % ctx.p**c != g:
                raise TriformError(f"generator {gm.group('g')} is not the canonical generator {g} for (p, c) = ({ctx.p}, {c})")
            order = int(gm.group("order"))
            if not order or ctx.field.m % order:
                raise TriformError(f"zeta{order} does not live in Q(zeta_{ctx.field.m})")
            images.append(int(gm.group("e") or 1) * (ctx.field.m // order))
        return SmoothCharacter(ctx, c, tuple(images), ctx.scalar(m.group("pi")))
    raise TriformError(f"bad character spec {text!r}")


class BorelCharacter:
    """chi(diag(a, d)) = chi_a(a) chi_d(d) delta^{1/2}(diag(a, d))."""

    __slots__ = ("ctx", "chi_a", "chi_d", "_values")

    def __init__(self, chi_a: SmoothCharacter, chi_d: SmoothCharacter):
        self.ctx = chi_a.ctx
        self.chi_a = chi_a
        self.chi_d = chi_d
        self._values: dict[tuple, Scalar] = {}  # (v(x), j_a, v(t), j_d) -> value; Scalars are immutable

    def eval(self, a: tuple[int, int], d: tuple[int, int]) -> Scalar:
        """The value on diagonal entries a, d, each an int pair (numerator, denominator)."""
        va, ja = self.chi_a.val_exponent(*a)
        vt, jd = self.chi_d.val_exponent(*d)
        key = (va, ja, vt, jd)
        out = self._values.get(key)
        if out is None:
            # delta^{1/2}(b) = q^{-val(x/t)/2}
            out = self.chi_a.value(va, ja) * self.chi_d.value(vt, jd) * self.ctx.q_power_half(vt - va)
            self._values[key] = out
        return out

    def conductor(self) -> int:
        return max(self.chi_a.c, self.chi_d.c)

    def __repr__(self):
        return f"BorelCharacter<{self.chi_a.render_spec()}, {self.chi_d.render_spec()}>"
