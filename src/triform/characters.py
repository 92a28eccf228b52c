"""Smooth characters of F* and of the Borel subgroup.

A character is (conductor exponent c, images of the fixed unit-group
generators as roots of unity, value at the uniformizer as a Scalar).  The
generator convention is fixed once per (p, c): a primitive root for odd p,
{-1, 5} for p = 2, so ramified characters in config files are unambiguous.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

from .context import Context
from .cyclo import RootOfUnity
from .padic import PadicRational
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
        x = 1
        for (g, _), e in zip(gens, tup):
            x = x * pow(g, e, mod) % mod
        table[x] = tup
    return table


class SmoothCharacter:
    """A smooth character of F*, with minimal (effective) conductor exponent."""

    __slots__ = ("ctx", "c", "images", "value_at_pi", "_powers")

    def __init__(self, ctx: Context, c: int, images: tuple, value_at_pi: Scalar):
        gens = unit_group_generators(ctx.p, c)
        if len(images) != len(gens):
            raise ValueError(f"(O/p^{c})* has {len(gens)} canonical generators, got {len(images)} images")
        images = tuple(images)
        for img, (g, order) in zip(images, gens):
            img.embed(ctx.field.m)  # raises unless the image order divides M
            if not (img**order).is_one():
                raise ValueError(f"image of generator {g} must have order dividing {order}")
        eff = _effective_conductor(ctx.p, c, images)
        if eff != c:
            raise ValueError(
                f"declared conductor exponent {c} is not minimal (unit data factors through level {eff}); "
                "construct the character at its effective conductor"
            )
        self.ctx = ctx
        self.c = c
        self.images = images
        self.value_at_pi = value_at_pi
        self._powers: dict[int, Scalar] = {}  # v -> value_at_pi ** v; Scalars are immutable

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

    def conductor(self) -> int:
        """Minimal c with trivial unit data on 1 + p^c (0 when unramified)."""
        return self.c

    # -- evaluation --------------------------------------------------------------
    def unit_image(self, residue: int) -> RootOfUnity:
        if self.c == 0:
            return RootOfUnity(1, 0)
        exps = _dlog_table(self.ctx.p, self.c)[residue % self.ctx.p**self.c]
        out = RootOfUnity(1, 0)
        for img, e in zip(self.images, exps):
            out = out * img**e
        return out

    def eval(self, x) -> Scalar:
        if not isinstance(x, PadicRational):
            x = PadicRational(x, self.ctx.p)
        if x.is_zero():
            raise ZeroDivisionError("character evaluated at 0")
        v = x.val()
        out = self._powers.get(v)
        if out is None:
            out = self._powers[v] = self.value_at_pi**v
        if self.c:
            out = out * self.ctx.scalar(self.unit_image(x.unit_residue(self.c)))
        return out

    __call__ = eval

    # -- group structure ---------------------------------------------------------
    def _images_at_level(self, c: int) -> tuple:
        """Images of the level-c canonical generators (c >= self.c)."""
        return tuple(self.unit_image(g) for g, _ in unit_group_generators(self.ctx.p, c))

    def __mul__(self, other: "SmoothCharacter") -> "SmoothCharacter":
        cmax = max(self.c, other.c)
        imgs = tuple(i1 * i2 for i1, i2 in zip(self._images_at_level(cmax), other._images_at_level(cmax)))
        c_eff = _effective_conductor(self.ctx.p, cmax, imgs)
        imgs_eff = _reduce_images(self.ctx.p, cmax, imgs, c_eff)
        return SmoothCharacter(self.ctx, c_eff, imgs_eff, self.value_at_pi * other.value_at_pi)

    def inverse(self) -> "SmoothCharacter":
        return SmoothCharacter(self.ctx, self.c, tuple(i.inverse() for i in self.images), self.value_at_pi.inverse())

    def __truediv__(self, other: "SmoothCharacter") -> "SmoothCharacter":
        return self * other.inverse()

    def __pow__(self, k: int) -> "SmoothCharacter":
        if k == 0:
            return SmoothCharacter.unramified(self.ctx, 1)
        base = self if k > 0 else self.inverse()
        out = base
        for _ in range(abs(k) - 1):
            out = out * base
        return out

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
        if self.c == 0:
            return f"unram(value={self.value_at_pi.render()})"
        gens = unit_group_generators(self.ctx.p, self.c)
        parts = ",".join(f"{g}->zeta{img.order}^{img.exponent}" for (g, _), img in zip(gens, self.images))
        return f"ram(c={self.c}, gens=[{parts}], pi={self.value_at_pi.render()})"


def _effective_conductor(p: int, c: int, images: tuple) -> int:
    """Smallest c' such that the unit data factors through (O/p^{c'})*."""
    if c == 0 or all(img.is_one() for img in images):
        return 0
    mod = p**c
    table = _dlog_table(p, c)
    gens = unit_group_generators(p, c)

    def img_of(residue: int) -> RootOfUnity:
        out = RootOfUnity(1, 0)
        for img, e in zip(images, table[residue]):
            out = out * img**e
        return out

    for cp in range(1, c):
        # factors through level cp iff trivial on 1 + p^cp
        trivial = all(img_of((1 + p**cp * k) % mod).is_one() for k in range(p ** (c - cp)))
        if trivial:
            return cp
    return c


def _reduce_images(p: int, c: int, images: tuple, c_eff: int) -> tuple:
    if c_eff == c:
        return images
    if c_eff == 0:
        return ()
    mod = p**c
    table = _dlog_table(p, c)

    def img_of(residue: int) -> RootOfUnity:
        out = RootOfUnity(1, 0)
        for img, e in zip(images, table[residue % mod]):
            out = out * img**e
        return out

    return tuple(img_of(g) for g, _ in unit_group_generators(p, c_eff))


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
            raise ValueError(f"expected {len(gens)} generator images for (p, c) = ({ctx.p}, {c})")
        images = []
        for entry, (g, _) in zip(entries, gens):
            gm = _GEN.match(entry)
            if not gm:
                raise ValueError(f"bad generator image {entry!r}")
            if int(gm.group("g")) % ctx.p**c != g:
                raise ValueError(f"generator {gm.group('g')} is not the canonical generator {g} for (p, c) = ({ctx.p}, {c})")
            images.append(RootOfUnity(int(gm.group("order")), int(gm.group("e") or 1)))
        return SmoothCharacter(ctx, c, tuple(images), ctx.scalar(m.group("pi")))
    raise ValueError(f"bad character spec {text!r}")


class BorelCharacter:
    """chi(diag(a, d)) = chi_a(a) chi_d(d), optionally times delta^{1/2}."""

    __slots__ = ("ctx", "chi_a", "chi_d", "half_delta")

    def __init__(self, chi_a: SmoothCharacter, chi_d: SmoothCharacter, half_delta: bool = True):
        self.ctx = chi_a.ctx
        self.chi_a = chi_a
        self.chi_d = chi_d
        self.half_delta = half_delta

    def eval(self, bmat) -> Scalar:
        if not bmat.is_upper():
            raise ValueError("Borel character evaluated off the Borel subgroup")
        out = self.chi_a.eval(bmat.x) * self.chi_d.eval(bmat.t)
        if self.half_delta:
            out = out * self.ctx.q_power_half(-(bmat.x.val() - bmat.t.val()))
        return out

    __call__ = eval

    def diag_units_image(self, r1: int, r2: int) -> RootOfUnity:
        """Value on diag(e1, e2) for unit residues; the delta part is trivial there."""
        return self.chi_a.unit_image(r1) * self.chi_d.unit_image(r2)

    def conductor(self) -> int:
        return max(self.chi_a.c, self.chi_d.c)

    def __repr__(self):
        return f"BorelCharacter<{self.chi_a.render_spec()}, {self.chi_d.render_spec()}, half_delta={self.half_delta}>"


def principal_series_pair(ctx: Context, mu: SmoothCharacter) -> BorelCharacter:
    """The Borel character (mu, mu^{-1}) delta^{1/2}: trivial central character."""
    return BorelCharacter(mu, mu.inverse(), half_delta=True)
