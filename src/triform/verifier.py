"""Scenario runner: every checkable statement becomes a PASS/FAIL record with
the computed scalars rendered, and reports are deterministic given the config
and seed (the structured format carries no timings).
"""

from __future__ import annotations

import math
import random
import re
import time
from fractions import Fraction
from functools import cached_property

from .characters import SmoothCharacter, parse_character_spec, unit_group_generators
from .context import MAX_LEVEL, SUPPORTED_PRIMES, Context
from .cosets import (
    enumerate_iwahori_mod,
    enumerate_K_mod,
    gl2_size,
    iwahori_orbit_key,
    p1_size,
    p1_table,
    torus_orbit_reps,
)
from .errors import ConfigError, KernelUnsupportedError, PoleError, TailError, TriformError
from .functionals import CompactInducedFn, Phi_eval, TorusFunctional, coset_constant
from .matrices import GroupElement, in_T_In
from .models import (
    InducedModel,
    Section,
    TableSection,
    conductor_search,
    fixed_space,
    iwahori_generators,
    new_vector_by_solve,
    new_vector_unramified,
    principal_series_model,
    sections_equal,
    steinberg_model,
)
from .padic import ratio_val
from .scalars import FieldSpec, Scalar
from .trilinear import (
    KernelForm,
    TensorFn,
    closed_form_tensor,
    ell_chain,
    ext,
    simple_case_pairing,
)

# acceptance criterion -> the scenarios (or single check ids) that certify it.
# tests/test_acceptance.py asserts these verdicts, so this is the one criterion
# table; tests/test_verifier.py asserts that no claim's list is empty.
COVERAGE = {
    "three-branch translation law": ["lemma-calcul"],
    "open-orbit indicator formula and its closed form": ["formula-FK", "lemma-FV"],
    "torus equivariance of phi": ["phi-equivariance"],
    "Phi equals lambda phi": ["Phi-lambda"],
    "phi does not vanish on the new vector": ["phi-nonvanishing"],
    "main test-vector theorem with intro and depth vanishing": ["main-theorem", "intro-vanishing", "conductor-vanishing"],
    "depth-one identity chain": ["n1-identity"],
    "swapped test vector": ["nb-swap"],
    "two evaluators proportional": ["proportionality"],
    "invariance of both evaluators": ["g-invariance"],
    "simple-case pairing": ["simple-case"],
    "structural solves, conductors and enumerations": ["main-theorem.newvector", "t-in-membership"],
}

CONVENTIONS = {
    "haar": "mass(K) = 1, mass(O, +) = 1, mass(O*, x) = 1; T\\G quotient measure from these",
    "steinberg_model": "zero-K-average subspace of normalized induction at (|.|^{1/2}, |.|^{-1/2})",
    "iwasawa_tie_break": "pivot on the minimal-valuation bottom-row entry, preferring position (2,2)",
    "open_orbit_section": "ordered pairs of projective points lifted through det-one bottom-row matrices",
    "sqrt_q": "formal generator r with r^2 -> q; r -> -r is a field automorphism fixing every verdict",
    "lambda": "convention-bound constant 1/[K:I(n)], recorded, not asserted as ground truth",
}


def sqrt_q_convention(field: FieldSpec) -> str:
    """The sqrt_q line: r is formal where Q(zeta_M) lacks sqrt(q), else that
    root of Q(zeta_M) (`FieldSpec.sqrt_q`)."""
    if field.sqrt_q is None:
        return CONVENTIONS["sqrt_q"]
    m = field.m
    return f"r is sqrt({field.q}) in Q(zeta{m}), the root that is positive under zeta{m} -> e^(2 pi i/{m})"


class Check:
    def __init__(self, id: str, claim: str, verdict: str, scalars: dict | None = None, reason: str = "", ms: float = 0.0):
        self.id, self.claim, self.verdict = id, claim, verdict  # verdict: PASS / FAIL / SKIPPED
        self.scalars = {} if scalars is None else scalars
        self.reason, self.ms = reason, ms

    def as_dict(self) -> dict:
        out = {"id": self.id, "claim": self.claim, "verdict": self.verdict, "scalars": dict(sorted(self.scalars.items()))}
        if self.reason:
            out["reason"] = self.reason
        return out


class Records(list):
    """A run's check list: each appended Check is stamped with the wall time
    since the previous record, or since the list was made."""

    def __init__(self):
        super().__init__()
        self._last = time.perf_counter()

    def append(self, check: Check):
        now = time.perf_counter()
        check.ms = (now - self._last) * 1000
        self._last = now
        super().append(check)


class ScenarioConfig:
    def __init__(
        self, p: int = 2, n: int = 1, level: int | None = None, mu3: str | None = None, scenario: str = "all", seed: int = 0, specialize: dict | None = None
    ):
        self.p, self.n, self.level, self.mu3 = p, n, level, mu3
        self.scenario, self.seed, self.specialize = scenario, seed, specialize

    def validate(self):
        if self.p not in SUPPORTED_PRIMES:
            raise ConfigError(f"p must be one of {SUPPORTED_PRIMES}")
        if self.n < 1:
            raise ConfigError("n must be >= 1 (the third representation is ramified)")
        if self.n > 1 and self.n % 2 == 1:
            raise ConfigError(
                "odd conductors n >= 3 are unreachable in the trivial-central-character "
                "principal-series/Steinberg family"
            )
        if self.level is not None and self.level < self.n:
            raise ConfigError("need level >= n")
        level = max(self.level or 0, self.n)
        if level > MAX_LEVEL:
            raise ConfigError(f"level {level} exceeds the cap {MAX_LEVEL}")
        if self.scenario != "all" and self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; known: {', '.join(SCENARIOS)}")
        if self.n == 1 and "u" in (self.specialize or {}):
            raise ConfigError("n = 1 uses the Steinberg model, which has no u to specialize")
        for name in ("a", "b"):
            if (self.specialize or {}).get(name, 0) ** 2 == 1:
                raise ConfigError(f"{name} = {self.specialize[name]} is a pole of A = a^n/((a^2-1)(b^2-1))")


def default_mu3_spec(p: int, c: int) -> str:
    gens = unit_group_generators(p, c)
    if not gens:
        raise ConfigError(
            f"no ramified character of conductor exponent {c} exists for p = {p} "
            f"((O/p^{c})* has no nontrivial characters)"
        )
    parts = ",".join(f"{g}->zeta{order}^1" for g, order in gens)
    return f"ram(c={c}, gens=[{parts}], pi=u)"


def required_zeta_order(spec: str) -> int:
    out = 1
    for m in re.findall(r"zeta(\d+)", spec):
        out = math.lcm(out, int(m))
    return out


class Env:
    """Everything a scenario needs, built once per configuration."""

    def __init__(self, cfg: ScenarioConfig):
        cfg.validate()
        self.cfg = cfg
        p, n = cfg.p, cfg.n
        spec = cfg.mu3
        if n == 1:
            if spec is not None:
                raise ConfigError("n = 1 uses the Steinberg model; --mu3 applies to even n >= 2")
            zorder = 2
        else:
            if spec is None:
                spec = default_mu3_spec(p, n // 2)
            zorder = max(2, required_zeta_order(spec))
        self.ctx = Context(p, zeta_order=zorder)
        ctx = self.ctx
        sp = cfg.specialize or {}
        aval = ctx.scalar(sp["a"]) if "a" in sp else ctx.a
        bval = ctx.scalar(sp["b"]) if "b" in sp else ctx.b
        self.a, self.b = aval, bval
        try:
            self.mu1 = SmoothCharacter.unramified(ctx, aval * ctx.r)
            self.mu2 = SmoothCharacter.unramified(ctx, bval * ctx.r)
        except TriformError as e:
            raise ConfigError(f"specialized a or b: {e}") from e
        self.V1 = principal_series_model(ctx, self.mu1, tag="V1")
        self.V2 = principal_series_model(ctx, self.mu2, tag="V2")
        if n == 1:
            self.mu3 = None
            self.V3 = steinberg_model(ctx)
        else:
            try:
                mu3 = parse_character_spec(ctx, spec)
                if "u" in sp:
                    mu3 = SmoothCharacter(ctx, mu3.c, mu3.images, mu3.value_at_pi.specialize({"u": sp["u"]}))
            except TriformError as e:
                raise ConfigError(f"mu3 {spec!r}: {e}") from e
            if 2 * mu3.c != n:
                raise ConfigError(f"mu3 has conductor exponent {mu3.c}, so the third "
                                  f"representation has conductor {2*mu3.c}, not n = {n}")
            self.mu3 = mu3
            self.V3 = principal_series_model(ctx, mu3, tag="V3")
        self.level = self.V3.fixed_level(n, cfg.level)
        self.v1 = new_vector_unramified(self.V1)
        self.v2 = new_vector_unramified(self.V2)
        self.v3 = new_vector_by_solve(self.V3, n, self.level)
        self.phi = TorusFunctional(ctx, self.mu1, self.mu2, self.V3)
        if sp:  # phi closes geometric tails at X = chi~(pi) and at its negative ratio (tail_ratios): neither may be 1
            chtil, X, rho = self.phi.chtil, self.phi.chtil.value_at_pi, self.phi.tail_ratios["negative"]
            if (chtil.c == 0 and X == 1) or ((self.V3.borel.chi_d / self.V3.borel.chi_a * chtil).c == 0 and rho == 1):
                raise ConfigError(f"the specialization puts a geometric tail of phi at ratio 1 (X = {X.render()}, rho = {rho.inverse().render()})")
            if chtil.c == 0 and self.phi.tail_ratios["depth"] == 1:  # ramified chi~: the depth tail vanishes
                raise ConfigError("the specialization puts the chain's depth tail at ratio 1")
        self.f = CompactInducedFn(ctx, self.mu1, self.mu2, n, self.level)
        self._chain: dict = {}  # (i, j) -> ell_pure(i, j)

    def gamma(self, k: int) -> GroupElement:
        return GroupElement.gamma(self.ctx.p, k)

    def ell(self, F: TensorFn, v: Section | None = None) -> Scalar:
        """ell(F (x) v) by the chain evaluator; v defaults to v3."""
        return ell_chain(self.phi, F, self.v3 if v is None else v)

    def ell_pure(self, i: int, j: int) -> Scalar:
        """ell(gamma^-i v1 (x) gamma^-j v2 (x) v3), computed once per Env."""
        if (i, j) not in self._chain:
            v1 = self.v1.translated(self.gamma(-i)) if i else self.v1
            v2 = self.v2.translated(self.gamma(-j)) if j else self.v2
            self._chain[i, j] = self.ell(TensorFn.pure(self.ctx, 1, v1, v2))
        return self._chain[i, j]

    @cached_property
    def A(self) -> Scalar:
        """A = a^n/((a^2-1)(b^2-1)), the coefficient of the closed form."""
        a, b = self.a, self.b
        return a**self.cfg.n / ((a * a - 1) * (b * b - 1))

    @cached_property
    def closed_form(self) -> TensorFn:
        """The closed form A * v1' (x) v2' of ext(f), built once per Env."""
        return closed_form_tensor(self.ctx, self.mu1, self.mu2, self.v1, self.v2, self.cfg.n, self.A)

    @cached_property
    def ext_f(self) -> TensorFn:
        """ext(f), the open-orbit tensor of the indicator f, built once per Env."""
        return ext(self.f, self.V1, self.V2, self.level)

    @cached_property
    def kernel_form(self) -> KernelForm | str:
        """The kernel evaluator, built once per Env, or the reason it does not apply."""
        if self.mu3 is None:
            return "Steinberg input: unsupported model for kernel route"
        try:
            return KernelForm(self.ctx, self.mu1, self.mu2, self.V3)
        except KernelUnsupportedError as e:
            return str(e)

    @cached_property
    def ell_ext(self) -> Scalar:
        """Psi(ext f)(v3) = ell(ext f (x) v3), computed once per Env."""
        return self.ell(self.ext_f)


# random elements, each drawn from the stream of the scenario that asks for it


def rand_unit(ctx: Context, rng: random.Random) -> int:
    p = ctx.p
    while True:
        x = rng.randrange(1, p**3)
        if x % p:
            return x


def rand_K(ctx: Context, rng: random.Random, m: int = 3) -> GroupElement:
    p = ctx.p
    while True:
        x, y, z, t = (rng.randrange(p**m) for _ in range(4))
        if (x * t - y * z) % p != 0:
            return GroupElement(p, x, y, z, t)


def rand_torus(ctx: Context, rng: random.Random) -> GroupElement:
    p = ctx.p
    d1, d2 = (Fraction(rand_unit(ctx, rng)) * Fraction(p) ** rng.randint(-3, 3) for _ in range(2))
    return GroupElement.diag(p, d1, d2)


def rand_G(ctx: Context, rng: random.Random, val_range: int) -> GroupElement:
    """k diag(pi^i, pi^j) k' with k, k' from rand_K and |i|, |j| <= val_range."""
    p = ctx.p
    g = rand_K(ctx, rng)
    i, j = rng.randint(-val_range, val_range), rng.randint(-val_range, val_range)
    return g * GroupElement.diag(p, Fraction(p) ** i, Fraction(p) ** j) * rand_K(ctx, rng)


def rand_section(ctx: Context, rng: random.Random, model: InducedModel, level: int) -> Section:
    vals = [ctx.scalar(rng.randint(-3, 3)) for _ in range(p1_table(ctx, level).size)]
    return TableSection(model, level, vals).as_section()


# the most random triples a kernel scenario draws; running out is a FAIL
KERNEL_DRAWS = 30


def kernel_triple(env: Env, rng: random.Random) -> tuple:
    """(f1, f2, f3) at V3's least level, max(1, n/2): with f1 and f2 at level l,
    ell(f1 (x) f2 (x) .) is K(l)-invariant, and V3 has no K(l)-fixed vector for l < n/2."""
    return tuple(rand_section(env.ctx, rng, model, env.V3.min_level) for model in (env.V1, env.V2, env.V3))


def _check(checks, cid, claim, ok, scalars=None, reason=""):
    checks.append(
        Check(
            id=cid,
            claim=claim,
            verdict="PASS" if ok else "FAIL",
            scalars={k: v.render() if isinstance(v, Scalar) else str(v) for k, v in (scalars or {}).items()},
            reason=reason,
        )
    )


def _skip(checks, cid, claim, reason):
    checks.append(Check(id=cid, claim=claim, verdict="SKIPPED", reason=reason))


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


def scenario_lemma_calcul(env: Env, checks: Records, rng: random.Random):
    a = env.a
    table = p1_table(env.ctx, 5)
    for i in range(0, 5):
        ti = env.v1.translated(env.gamma(-i))
        witness = None
        for k in [*table.reps, *(rand_K(env.ctx, rng, 5) for _ in range(10))]:
            vzt = ratio_val(k.Z, k.T, env.ctx.p)  # +inf at z = 0, -inf at t = 0
            want = a**i if vzt <= 0 else (a ** (i - 2 * vzt) if vzt <= i - 1 else a ** (-i))
            if not (ti.eval(k) == want):
                witness = k
                break
        ok = witness is None
        _check(
            checks,
            f"lemma-calcul.i{i}",
            f"translate by diag(pi^-{i}, 1): value on K is a^{i}, a^(i-2 val(z/t)) or a^-{i} by the "
            "position of val(z/t), on every level-5 cell and 10 random K points",
            ok,
            reason="" if ok else f"mismatch at {witness}",
        )


def scenario_formula_FK(env: Env, checks: Records, rng: random.Random):
    ctx, n = env.ctx, env.cfg.n
    F = env.ext_f
    table = p1_table(ctx, F.table_level)
    FV = env.closed_form
    bad_closed = bad_ext = None  # first mismatched cell pair of each route
    for i, rep1 in enumerate(table.reps):
        for j, rep2 in enumerate(table.reps):
            want = ctx.one() if (rep1.in_iwahori(n) and not rep2.in_iwahori(1)) else ctx.zero()
            if bad_closed is None and not (FV.eval_pair(rep1, rep2) == want):
                bad_closed = (i, j)
            if bad_ext is None and not (F.eval_pair(rep1, rep2) == want):
                bad_ext = (i, j)
    for cid, claim, bad in (
        (
            "formula-FK.indicator",
            "the open-orbit tensor takes value 1 exactly on pairs (k in I_n, k' not in I_1) "
            "and 0 elsewhere, on all coset pairs",
            bad_closed,
        ),
        ("formula-FK.ext", "ext of the unit-orbit indicator reproduces the same pair indicator", bad_ext),
    ):
        _check(checks, cid, claim, bad is None, reason="" if bad is None else f"first mismatched cell pair {bad}")


def scenario_lemma_FV(env: Env, checks: Records, rng: random.Random):
    ctx, n = env.ctx, env.cfg.n
    A = env.A
    F = env.ext_f
    FV = env.closed_form
    table = p1_table(ctx, F.table_level)
    ok = all(FV.eval_pair(rep1, rep2) == F.eval_pair(rep1, rep2) for rep1 in table.reps for rep2 in table.reps)
    _check(
        checks,
        "lemma-FV.tensor",
        "ext(f) equals A * v1' (x) v2' with v1' = a gamma^{-(n-1)}v1 - gamma^{-n}v1, "
        "v2' = b gamma^{-1}v2 - v2, on all coset pairs",
        ok,
        scalars={"A": A},
    )
    want_A = (env.mu1.value_at_pi / ctx.r) ** n / (
        ((env.mu1.value_at_pi / ctx.r) ** 2 - 1) * ((env.mu2.value_at_pi / ctx.r) ** 2 - 1)
    )
    _check(checks, "lemma-FV.A", "the coefficient equals a^n/((a^2-1)(b^2-1))", A == want_A, scalars={"A": A})


def scenario_t_in_membership(env: Env, checks: Records, rng: random.Random):
    ctx, n = env.ctx, env.cfg.n
    ok = True
    for _ in range(30):
        k = rand_K(ctx, rng, max(n + 1, 2))
        fac = in_T_In(k, n)
        if (fac is not None) != k.in_iwahori(n):
            ok = False
            break
        if fac is not None:
            t, kk = fac
            if not (t * kk == k and kk.in_iwahori(n) and t.is_diagonal()):
                ok = False
                break
    _check(checks, "t-in-membership.K", "for k in K: k lies in T I(n) exactly when k lies in I(n), with an exact witness", ok)

    kk = rand_K(ctx, rng, n + 1)
    while not kk.in_iwahori(n):
        kk = rand_K(ctx, rng, n + 1)
    g2 = GroupElement.diag(ctx.p, ctx.p, 1) * kk
    fac2 = in_T_In(g2, n)
    ok2 = fac2 is not None and (fac2[0] * fac2[1] == g2)
    w = GroupElement.w(ctx.p)
    ok3 = in_T_In(w, n) is None
    _check(checks, "t-in-membership.construction", "diag(pi,1) k for k in I(n) factors back, and w never does", ok2 and ok3)

    # structural enumeration counts against closed forms
    m = min(env.level, 2)
    okc = len(enumerate_K_mod(ctx, m)) == gl2_size(ctx.p, m)
    okc = okc and p1_table(ctx, m).size == p1_size(ctx.p, m)
    if n <= m:
        okc = okc and len(enumerate_iwahori_mod(ctx, n, m)) == gl2_size(ctx.p, m) // p1_size(ctx.p, n)
        okc = okc and torus_orbit_reps(ctx, n, m).total_mass() == coset_constant(ctx, n)
    _check(checks, "t-in-membership.counts", "coset enumeration sizes match the closed-form counts", okc)


def scenario_simple_case(env: Env, checks: Records, rng: random.Random):
    if env.cfg.n != 1:
        _skip(checks, "simple-case", "the natural-surjection route needs n = 1 (Steinberg)", "requires n = 1")
        return
    ctx = env.ctx
    # the simple case pins mu2 = mu1^{-1} |.|^{-1}: with a generic, b = 1/a
    a = env.a
    mu2s = SmoothCharacter.unramified(ctx, a.inverse() * ctx.r)
    V2s = principal_series_model(ctx, mu2s, tag="V2-simple")
    v2s = new_vector_unramified(V2s)
    v1s = env.v1.translated(env.gamma(-1))
    F = TensorFn.pure(ctx, 1, v1s, v2s)
    one, w = GroupElement.identity(ctx.p), GroupElement.w(ctx.p)
    val_id, val_w = F.eval_pair(one, one), F.eval_pair(w, w)  # res(F) at 1 and at w
    ok = (val_id == a.inverse()) and (val_w == a) and not (val_id == val_w)
    _check(
        checks,
        "simple-case.res",
        "res(v1* (x) v2) takes the distinct values sqrt(q)/mu1(pi) = 1/a at 1 and mu1(pi)/sqrt(q) = a at w",
        ok,
        scalars={"at_identity": val_id, "at_w": val_w},
    )
    pairing = simple_case_pairing(F, env.mu1, mu2s, env.v3)
    _check(
        checks,
        "simple-case.pairing",
        "the surjection pairing of v1* (x) v2 against the Steinberg new vector is nonzero",
        not pairing.is_zero(),
        scalars={"pairing": pairing},
    )
    Fconst = TensorFn.pure(ctx, 1, env.v1, v2s)
    z = simple_case_pairing(Fconst, env.mu1, mu2s, env.v3)
    _check(checks, "simple-case.constants", "the constant tensor pairs to zero against the zero-average vector", z.is_zero())


def scenario_phi_equivariance(env: Env, checks: Records, rng: random.Random):
    ctx = env.ctx
    sections = [rand_section(ctx, rng, env.V3, env.level) for _ in range(5)]

    def law_holds(sec) -> bool:  # (chi2/chi1)(diag(t1, t2)) = (mu2/mu1)(t1/t2)
        base = env.phi.eval(sec)
        return all(env.phi.eval(sec.translated(t)) == env.phi.ratio21.eval(*t.ratio(0, 3)) * base for t in (rand_torus(ctx, rng) for _ in range(10)))

    ok = all(law_holds(sec) for sec in sections)
    _check(
        checks,
        "phi-equivariance.law",
        "phi(pi(t) v) = (chi2/chi1)(t) phi(v) for 50 random torus elements x 5 random sections, exactly",
        ok,
    )
    sec = sections[0].translated(env.gamma(-1))
    ok2 = env.phi.eval(sec) == env.phi.eval_reference(sec, depths=1)[0]
    up = GroupElement.upper(ctx.p, 1)
    ok2 = ok2 and env.phi.eval(sections[1].translated(up)) == env.phi.eval_reference(sections[1].translated(up), depths=1)[0]
    _check(checks, "phi-equivariance.reference", "the fast engine matches the direct annulus reference on translated sections", ok2)


def scenario_phi_nonvanishing(env: Env, checks: Records, rng: random.Random):
    val = env.phi.eval(env.v3)
    _check(
        checks,
        "phi-nonvanishing.value",
        "phi(v3) is a nonzero element of the coefficient field",
        not val.is_zero(),
        scalars={"phi_v3": val},
    )
    closures = env.phi.eval_reference(env.v3)
    ok = val == closures[0]
    _check(checks, "phi-nonvanishing.reference", "independent annulus-summation route returns the same scalar", ok)

    # exact stabilization: a deeper closure is a TailError where the negative tail stops being geometric
    reason = ""
    for i, c in enumerate(closures):
        if isinstance(c, TailError) or not c == closures[0]:
            reason = str(c) if isinstance(c, TailError) else f"the closures at depths D and D+{i} differ"
            break
    claim = "the annulus route closed at depths D, D+1, D+2 and D+3 is one scalar exactly: the annuli past D continue both tails"
    try:  # recorded: the value at a point where the defining integral converges
        closed_q = val.specialize({"a": Fraction(1, 5), "b": Fraction(1, 7), "u": Fraction(1, 3)})
    except PoleError as e:
        _check(checks, "phi-nonvanishing.stabilization", claim, False, reason=str(e))
        return
    _check(checks, "phi-nonvanishing.stabilization", claim, not reason, scalars={"closed_form_at_(1/5,1/7,1/3)": closed_q}, reason=reason)


def scenario_Phi_lambda(env: Env, checks: Records, rng: random.Random):
    ctx, n = env.ctx, env.cfg.n
    lam = coset_constant(ctx, n)
    lhs = Phi_eval(env.phi, env.f, env.v3)
    rhs = ctx.scalar(lam) * env.phi.eval(env.v3)
    ok = lhs == rhs and lam == Fraction(1, p1_size(ctx.p, n))
    scal = {"Phi_f_v3": lhs, "lambda": ctx.scalar(lam)}
    _check(
        checks,
        "Phi-lambda.identity",
        "Phi(f)(v3) = lambda phi(v3) with lambda the nonzero unit-orbit mass 1/[K:I(n)]",
        ok,
        scalars=scal,
    )
    # Phi on a random compactly supported f agrees with the chain evaluator
    table = torus_orbit_reps(ctx, n, env.level)
    keys = [iwahori_orbit_key(ctx, rep, n, env.level) for rep in table.reps]
    support = frozenset(k for k in keys if rng.random() < 0.5) or frozenset([keys[0]])
    fr = CompactInducedFn(ctx, env.mu1, env.mu2, n, env.level, support=support)
    lhs2 = env.ell(ext(fr, env.V1, env.V2, env.level))
    rhs2 = Phi_eval(env.phi, fr, env.v3)
    _check(
        checks,
        "Phi-lambda.random-support",
        "the chain evaluator composed with ext agrees with Phi on a random union of unit-orbit cells",
        lhs2 == rhs2,
    )


def scenario_conductor_vanishing(env: Env, checks: Records, rng: random.Random):
    ctx, n, L = env.ctx, env.cfg.n, env.level
    if n < 2:
        _skip(checks, "conductor-vanishing", "psi-vanishing needs conductor n >= 2", "requires n >= 2")
        return
    for m in (n - 2, n - 1):
        gens = iwahori_generators(ctx, m, L)  # I(m) = K0(p^m) modulo K(L)
        fixed = all(v.level_bound() <= L and all(sections_equal(v.translated(g), v) for g in gens)
                    for v in (env.v1.translated(env.gamma(-m)), env.v2))
        _check(
            checks,
            f"conductor-vanishing.depth{m}",
            f"the functional v -> ell(gamma^-{m} v1 (x) v2 (x) v) is identically zero on V3, proved, not sampled: "
            f"gamma^-{m} v1 (x) v2 is I({m})-fixed and V3 has no I({m})-fixed vector at level {L}, so the "
            "G-invariance of ell kills it (the dual conductor); the chain gives 0 at v3",
            fixed and not fixed_space(env.V3, m, L) and env.ell_pure(m, 0).is_zero(),
        )


def scenario_main_theorem(env: Env, checks: Records, rng: random.Random):
    n = env.cfg.n
    # structural preconditions: fixed-space dimensions and the conductor search
    dims_ok = True
    for below in range(n):
        if len(fixed_space(env.V3, below, env.level)) != 0:
            dims_ok = False
    dims_ok = dims_ok and len(fixed_space(env.V3, n, env.level)) == 1
    dims_ok = dims_ok and conductor_search(env.V3) == n
    _check(
        checks,
        "main-theorem.newvector",
        f"the congruence-fixed space is 0 below depth {n} and one-dimensional at {n}; "
        "the conductor search confirms the minimal depth",
        dims_ok,
    )
    # v1* = pi(gamma^-n) v1 is invariant under the conjugated maximal compact
    v1star = env.v1.translated(env.gamma(-n))
    gam_n = env.gamma(n)
    ok = all(sections_equal(v1star.translated(gam_n.inv() * rand_K(env.ctx, rng, n + 2) * gam_n), v1star) for _ in range(5))
    _check(checks, "main-theorem.invariance", "pi(gamma^-n) v1 is invariant under the order conjugate of K", ok)

    val = env.ell_pure(n, 0)
    _check(
        checks,
        "main-theorem.testvector",
        "ell(v1* (x) v2 (x) v3) = ell(gamma^-n v1 (x) v2 (x) v3) is a nonzero element "
        "of the coefficient field: the translated pure tensor is a test vector",
        not val.is_zero(),
        scalars={"ell_value": val},
    )
    a, b, A = env.a, env.b, env.A
    psiF = env.ell_ext
    if n >= 2:
        ok = A * val == psiF
        claim = "the same value reaches the compact route: Psi(ext f)(v3) = A * ell(gamma^-n v1 (x) v2 (x) v3) (depth vanishing kills the other terms)"
    else:
        ok = psiF == A * (a * b * env.ell_pure(0, 1) + val)
        claim = "the same value reaches the compact route: Psi(ext f)(v3) = A (ab ell(v1 (x) gamma^-1 v2 (x) v3) + ell(gamma^-1 v1 (x) v2 (x) v3))"
    _check(checks, "main-theorem.chain", claim, ok, scalars={"Psi_F_v3": psiF, "A": A})


def scenario_n1_identity(env: Env, checks: Records, rng: random.Random):
    ctx, n = env.ctx, env.cfg.n
    if n != 1:
        _skip(checks, "n1-identity", "the depth-one identity chain applies at n = 1", "requires n = 1")
        return
    a, b, A = env.a, env.b, env.A
    g1 = env.gamma(-1)
    psiF = env.ell_ext
    ok = psiF == A * (a * b * env.ell_pure(0, 1) + env.ell_pure(1, 0))
    _check(
        checks,
        "n1-identity.two-terms",
        "Psi(F)(v3) = A (ab ell(v1 (x) gamma^-1 v2 (x) v3) + ell(gamma^-1 v1 (x) v2 (x) v3)), exactly",
        ok,
        scalars={"Psi_F_v3": psiF},
    )
    gmat = GroupElement(ctx.p, 0, 1, ctx.p, 0)
    v3p = env.v3.translated(gmat.inv()).scaled(a * b) + env.v3
    t3 = env.ell(TensorFn.pure(ctx, 1, env.v1.translated(g1), env.v2), v3p)
    _check(
        checks,
        "n1-identity.v3prime",
        "the same value collapses to A ell(gamma^-1 v1 (x) v2 (x) v3') with v3' = ab (0 1; pi 0)^{-1} v3 + v3",
        psiF == A * t3,
    )


def scenario_nb_swap(env: Env, checks: Records, rng: random.Random):
    ctx, n = env.ctx, env.cfg.n
    gmat = GroupElement(ctx.p, 0, 1, Fraction(ctx.p) ** n, 0)
    gam_n = env.gamma(-n)
    ok = sections_equal(env.v1.translated(gam_n).translated(gmat), env.v1)
    ok = ok and sections_equal(env.v2.translated(gmat), env.v2.translated(gam_n))
    _check(
        checks,
        "nb-swap.conjugation",
        "with g = (0 1; pi^n 0): g gamma^-n v1 = v1 and g v2 = gamma^-n v2, as sections",
        ok,
    )
    val = env.ell_pure(0, n)
    _check(
        checks,
        "nb-swap.value",
        "ell(v1 (x) gamma^-n v2 (x) v3) is nonzero: the swapped tensor is a test vector too",
        not val.is_zero(),
        scalars={"ell_swapped": val},
    )
    if ctx.p == 2 and n == 1:
        moved = env.ell(TensorFn.pure(ctx, 1, env.v1, env.v2.translated(gam_n)), env.v3.translated(gmat))
        _check(
            checks,
            "nb-swap.consistency",
            "ell(v1 (x) gamma^-n v2 (x) g v3) = ell(gamma^-n v1 (x) v2 (x) v3), exactly",
            moved == env.ell_pure(n, 0),
        )


def scenario_g_invariance(env: Env, checks: Records, rng: random.Random):
    ctx, n = env.ctx, env.cfg.n
    # F = v1 (x) gamma^-n v2, the swapped test vector: ell(v1 (x) gamma^-j v2 (x) v3) = 0 for 0 < j < n
    F = TensorFn.pure(ctx, 1, env.v1, env.v2.translated(env.gamma(-n)))
    base = env.ell_pure(0, n)
    count = 8 if n == 1 else 7
    gs = [rand_K(ctx, rng) for _ in range(count - 2)] + [GroupElement.w(ctx.p) * rand_K(ctx, rng), rand_G(ctx, rng, 1)]
    _check(
        checks,
        "g-invariance.chain",
        f"the open-orbit evaluator is invariant under {count} random translations within the level budget",
        not base.is_zero() and all(env.ell(F.translated(g), env.v3.translated(g)) == base for g in gs),
        reason="the base value ell(v1 (x) gamma^-n v2 (x) v3) is 0" if base.is_zero() else "",
    )
    kform = env.kernel_form
    if isinstance(kform, str):
        _skip(checks, "g-invariance.kernel", "kernel-route invariance", kform)
        return
    claim = "the kernel evaluator is invariant under 20 translations (compact, Weyl, torus and one diagonal-pi)"
    for _ in range(KERNEL_DRAWS):  # a base of 0 would compare 0 with 0
        f1, f2, f3 = kernel_triple(env, rng)
        base_k = kform.eval(f1, f2, f3)
        if not base_k.is_zero():
            break
    else:
        _check(checks, "g-invariance.kernel", claim, False, reason=f"the kernel value was 0 on all {KERNEL_DRAWS} random triples drawn")
        return
    gs2 = (
        [rand_K(ctx, rng) for _ in range(16)]
        + [GroupElement.w(ctx.p), GroupElement.diag(ctx.p, rand_unit(ctx, rng), rand_unit(ctx, rng))]
        + [env.gamma(1), GroupElement.w(ctx.p) * rand_K(ctx, rng)]
    )
    ok2 = all(kform.eval(f1.translated(g), f2.translated(g), f3.translated(g)) == base_k for g in gs2)
    _check(checks, "g-invariance.kernel", claim, ok2)


def scenario_proportionality(env: Env, checks: Records, rng: random.Random):
    ctx = env.ctx
    kform = env.kernel_form
    if isinstance(kform, str):
        _skip(checks, "proportionality", "two-evaluator comparison", kform)
        return
    ratio, ok, tested, draws = None, True, 0, 0
    while ok and tested < 10 and draws < KERNEL_DRAWS:
        draws += 1
        f1, f2, f3 = kernel_triple(env, rng)
        cv = env.ell(TensorFn.pure(ctx, 1, f1, f2), f3)
        kv = kform.eval(f1, f2, f3)
        if cv.is_zero():
            ok = kv.is_zero()
            continue
        tested += 1
        r = kv / cv
        if ratio is None:
            ratio = r
        ok = r == ratio
    short = ok and tested < 10
    _check(
        checks,
        "proportionality.constant",
        "the kernel and chain evaluators agree up to one constant across 10 random triples "
        "(both span the one-dimensional space of invariant forms)",
        ok and not short and not ratio.is_zero(),
        scalars={"constant": ratio if ratio is not None else ctx.zero()},
        reason=f"only {tested} of the {draws} random triples drawn gave a nonzero chain value" if short else "",
    )


def scenario_intro_vanishing(env: Env, checks: Records, rng: random.Random):
    z = env.ell_pure(0, 0)
    _check(
        checks,
        "intro-vanishing.value",
        "ell(v1 (x) v2 (x) v3) = 0 exactly: the unramified pure tensor is not a test vector "
        "once the third representation ramifies",
        z.is_zero(),
        scalars={"ell_spherical": z},
    )


_RUNNERS = {
    "lemma-calcul": scenario_lemma_calcul,
    "formula-FK": scenario_formula_FK,
    "lemma-FV": scenario_lemma_FV,
    "t-in-membership": scenario_t_in_membership,
    "simple-case": scenario_simple_case,
    "phi-equivariance": scenario_phi_equivariance,
    "phi-nonvanishing": scenario_phi_nonvanishing,
    "Phi-lambda": scenario_Phi_lambda,
    "conductor-vanishing": scenario_conductor_vanishing,
    "main-theorem": scenario_main_theorem,
    "n1-identity": scenario_n1_identity,
    "nb-swap": scenario_nb_swap,
    "g-invariance": scenario_g_invariance,
    "proportionality": scenario_proportionality,
    "intro-vanishing": scenario_intro_vanishing,
}
SCENARIOS = tuple(_RUNNERS)


class Report:
    def __init__(self, schema_version: int, config: dict, conventions: dict, seed: int, checks: list):
        self.schema_version, self.config, self.conventions = schema_version, config, conventions
        self.seed, self.checks = seed, checks

    def has_failure(self) -> bool:
        return any(c.verdict == "FAIL" for c in self.checks)

    def emit(self, fmt: str = "text") -> str:
        if fmt == "structured":
            import json  # only a structured report needs it; a plain run never loads it

            payload = {
                "schema_version": self.schema_version,
                "config": self.config,
                "conventions": self.conventions,
                "seed": self.seed,
                "checks": [c.as_dict() for c in self.checks],
            }
            return json.dumps(payload, sort_keys=True, indent=1)
        lines = [f"triform verification report (schema {self.schema_version})"]
        lines.append("config: " + ", ".join(f"{k}={v}" for k, v in self.config.items()))
        for k, v in self.conventions.items():
            lines.append(f"convention {k}: {v}")
        for c in self.checks:
            lines.append(f"[{c.verdict}] {c.id} ({c.ms:.0f} ms)")
            lines.append(f"    {c.claim}")
            for k, v in sorted(c.scalars.items()):
                lines.append(f"    {k} = {v}")
            if c.reason:
                lines.append(f"    reason: {c.reason}")
        n_fail = sum(1 for c in self.checks if c.verdict == "FAIL")
        lines.append(f"{len(self.checks)} checks, {n_fail} failures")
        return "\n".join(lines)


def parse_report(text: str) -> Report:
    """The Report of a structured emit: its keys are the Report's and each Check's fields."""
    import json

    data = json.loads(text)
    return Report(**{**data, "checks": [Check(**c) for c in data["checks"]]})


def run_checks(env: Env, names) -> Records:
    """Run the named scenarios in order on one Env, each appending to the one
    Records of the run and drawing from its own stream, seeded by (seed,
    scenario id): a scenario draws the same elements alone as inside `all`.
    An engine error ends its scenario as a FAIL record carrying the reason,
    after the checks the scenario had already recorded."""
    checks = Records()
    for name in names:
        try:
            _RUNNERS[name](env, checks, random.Random(f"{env.cfg.seed}/{name}"))
        except TriformError as e:
            checks.append(Check(id=name, claim="scenario execution", verdict="FAIL", reason=f"{type(e).__name__}: {e}"))
    return checks


def run_scenario(cfg: ScenarioConfig) -> Report:
    env = Env(cfg)
    checks = run_checks(env, SCENARIOS if cfg.scenario == "all" else (cfg.scenario,))
    config_dict = {
        "p": cfg.p,
        "n": cfg.n,
        "level": env.level,
        "mu3": env.mu3.render_spec() if env.mu3 is not None else "steinberg",
        "scenario": cfg.scenario,
        "specialize": {k: str(v) for k, v in (cfg.specialize or {}).items()},
    }
    conventions = {**CONVENTIONS, "sqrt_q": sqrt_q_convention(env.ctx.field)}
    return Report(schema_version=2, config=config_dict, conventions=conventions, seed=cfg.seed, checks=checks)
