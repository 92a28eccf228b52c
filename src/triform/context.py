"""Shared read-only configuration: the prime p, q = #residue field, zeta order M.

One Context is fixed at startup and threaded through every value; all caches
hang off it so independent contexts never interfere.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclo import RootOfUnity
from .scalars import FieldSpec, Scalar, parse_scalar

SUPPORTED_PRIMES = (2, 3, 5)
MAX_LEVEL = 8


class LevelTooDeepError(Exception):
    pass


class Context:
    def __init__(self, p: int, zeta_order: int = 1):
        if p not in SUPPORTED_PRIMES:
            raise ValueError(f"prime {p} outside the supported desk-scale set {SUPPORTED_PRIMES}")
        self.p = p
        self.q = p
        self.field = FieldSpec(m=zeta_order, q=p)
        self._caches: dict = {}
        self._zero = Scalar.from_rational(self.field, 0)
        self._one = Scalar.from_rational(self.field, 1)

    # -- scalar factories --------------------------------------------------
    def scalar(self, x) -> Scalar:
        if isinstance(x, Scalar):
            return x
        if isinstance(x, str):
            return parse_scalar(self.field, x)
        if isinstance(x, RootOfUnity):
            return Scalar.from_root_of_unity(self.field, x)
        return Scalar.from_rational(self.field, x)

    def zero(self) -> Scalar:
        return self._zero

    def one(self) -> Scalar:
        return self._one

    @property
    def a(self) -> Scalar:
        return Scalar.variable(self.field, "a")

    @property
    def b(self) -> Scalar:
        return Scalar.variable(self.field, "b")

    @property
    def u(self) -> Scalar:
        return Scalar.variable(self.field, "u")

    @property
    def r(self) -> Scalar:
        """The formal sqrt(q)."""
        return Scalar.variable(self.field, "r")

    def q_power_half(self, k: int) -> Scalar:
        """q^{k/2} as a Scalar (an r-power when k is odd)."""
        half, odd = divmod(k, 2)
        out = self.scalar(Fraction(self.q) ** half)
        if odd:
            out = out * self.r
        return out

    def zeta(self, order: int, exponent: int = 1) -> RootOfUnity:
        if self.field.m % order != 0:
            raise ValueError(f"zeta_{order} not available: configured M = {self.field.m}")
        return RootOfUnity(order, exponent)

    def check_level(self, m: int):
        if m > MAX_LEVEL:
            raise LevelTooDeepError(f"level too deep: {m} > cap {MAX_LEVEL}")

    def cache(self, key, build):
        if key not in self._caches:
            self._caches[key] = build()
        return self._caches[key]

    def __repr__(self):
        return f"Context(p={self.p}, M={self.field.m})"
