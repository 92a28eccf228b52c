# The headline computation: the invariant trilinear form, evaluated two
# independent ways, certifying the test-vector statements as nonzero rational
# functions in (a, b, u).
# Run with: python demos/04_trilinear_form.py   (about two minutes)

import time

from triform import Context
from triform.characters import SmoothCharacter, parse_character_spec
from triform.functionals import CompactInducedFn, Phi_eval, TorusFunctional, coset_constant
from triform.matrices import GroupElement
from triform.models import new_vector_by_solve, new_vector_unramified, principal_series_model
from triform.trilinear import KernelForm, TensorFn, ell_chain, ext

t0 = time.time()
ctx = Context(3, zeta_order=2)
a, b, u, r = ctx.a, ctx.b, ctx.u, ctx.r

mu1 = SmoothCharacter.unramified(ctx, a * r)
mu2 = SmoothCharacter.unramified(ctx, b * r)
mu3 = parse_character_spec(ctx, "ram(c=1, gens=[2->zeta2^1], pi=u)")
V1 = principal_series_model(ctx, mu1, tag="V1")
V2 = principal_series_model(ctx, mu2, tag="V2")
V3 = principal_series_model(ctx, mu3, tag="V3")
v1, v2 = new_vector_unramified(V1), new_vector_unramified(V2)
n = 2
v3 = new_vector_by_solve(V3, n)

# The torus functional phi, with its equivariance twist derived on the fly.
phi = TorusFunctional(ctx, mu1, mu2, V3)
print("phi(v3) =", phi.eval(v3).render())

# Phi integrates phi over the unit orbit: a finite sum worth lambda phi(v3).
f = CompactInducedFn(ctx, mu1, mu2, n, n)
print("lambda  =", coset_constant(ctx, n), " and Phi(f)(v3) =", Phi_eval(phi, f, v3).render())

# The chain evaluator agrees with Phi on the image of ext ... exactly.
psiF = ell_chain(phi, ext(f, V1, V2), v3)
print("Psi(ext f)(v3) =", psiF.render(), " equals Phi:", psiF == Phi_eval(phi, f, v3))

# The spherical tensor is NOT a test vector; the translated one is.
print("ell(v1, v2, v3)          =", ell_chain(phi, TensorFn.pure(ctx, 1, v1, v2), v3).render())
print("ell(gamma^-1 v1, v2, v3) =", ell_chain(phi, TensorFn.pure(ctx, 1, v1.translated(GroupElement.gamma(3, -1)), v2), v3).render(),
      f"  [{time.time()-t0:.0f}s]")
main = ell_chain(phi, TensorFn.pure(ctx, 1, v1.translated(GroupElement.gamma(3, -n)), v2), v3)
print("ell(gamma^-2 v1, v2, v3) =", main.render(), f"  [{time.time()-t0:.0f}s]")

A = a**n / ((a * a - 1) * (b * b - 1))
print("A * ell == Psi(F)(v3):", A * main == psiF)

# The independent kernel route returns the same line in the space of forms.
kform = KernelForm(ctx, mu1, mu2, V3)
kv = kform.eval(v1.translated(GroupElement.gamma(3, -n)), v2, v3)
print("kernel evaluator:", kv.render(), "  ratio to chain:", (kv / main).render(), f"  [{time.time()-t0:.0f}s]")
