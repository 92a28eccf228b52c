"""Shared read-only configuration: the prime p, q = #residue field, zeta order M.

One Context is fixed at startup and threaded through every value; all caches
hang off it so independent contexts never interfere.  Roots of unity are
exponents of zeta_M; `zeta_powers` holds the one shared Scalar for each.
"""

from __future__ import annotations

from functools import cached_property

from .errors import TriformError
from .scalars import FieldSpec, Poly, Scalar, parse_scalar

SUPPORTED_PRIMES = (2, 3, 5)
MAX_LEVEL = 8


class Context:
    def __init__(self, p: int, zeta_order: int = 1):
        if p not in SUPPORTED_PRIMES:
            raise TriformError(f"prime {p} outside the supported desk-scale set {SUPPORTED_PRIMES}")
        self.p = p
        self.q = p
        self.field = FieldSpec(m=zeta_order, q=p)
        self._caches: dict = {}
        self._zero = Scalar.from_rational(self.field, 0)
        self._one = Scalar.from_rational(self.field, 1)
        self._r = Scalar.variable(self.field, "r")
        self._q = Scalar.from_rational(self.field, p)  # its powers are memoized on it

    # -- scalar factories --------------------------------------------------
    def scalar(self, x) -> Scalar:
        if isinstance(x, Scalar):
            return x
        if isinstance(x, str):
            return parse_scalar(self.field, x)
        return Scalar.from_rational(self.field, x)

    @cached_property
    def zeta_powers(self) -> tuple:
        """zeta_M^j for j mod M: every value of a unit character, shared."""
        return tuple(Scalar(self.field, Poly.zeta_sum(self.field, {j: 1})) for j in range(self.field.m))

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
        return self._r

    def q_power_half(self, k: int) -> Scalar:
        """q^{k/2} as a Scalar (an r-power when k is odd)."""
        half, odd = divmod(k, 2)
        return self._q**half * self._r if odd else self._q**half

    def zeta(self, order: int, exponent: int = 1) -> Scalar:
        """zeta_order^exponent, the shared Scalar zeta_M^(exponent M / order)."""
        if self.field.m % order != 0:
            raise TriformError(f"zeta_{order} not available: configured M = {self.field.m}")
        return self.zeta_powers[exponent * (self.field.m // order) % self.field.m]

    def check_level(self, m: int):
        if m > MAX_LEVEL:
            raise TriformError(f"level too deep: {m} > cap {MAX_LEVEL}")

    def cache(self, key, build):
        if key not in self._caches:
            self._caches[key] = build()
        return self._caches[key]

    def __repr__(self):
        return f"Context(p={self.p}, M={self.field.m})"
