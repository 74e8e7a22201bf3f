"""Tour of the generator registry.

Every f-divergence in the library is described by a generator: the convex
function f with f(1) = 0, its first two derivatives, the boundary limits
f(0+) and f'(inf), a certified Pinsker constant with its lambda witness, and
a handful of analytic flags the bound machinery consults.
"""

import numpy as np

from divlab import default_registry, generator_values, make_generator, shift_generator
from divlab.divergence import f_divergence

print("=" * 78)
print("The fourteen certified generators (default parameters)")
print("=" * 78)
header = f"{'generator':<24}{'L':>7}{'lambda':>8}{'f(0+)':>10}{'f_inf':>10}  flags"
print(header)
print("-" * len(header))
for g in default_registry():
    flags = []
    if g.operator_convex:
        flags.append("op-convex")
    if g.g_concave:
        flags.append("g-concave")
    if g.f2_at_zero_finite:
        flags.append("f''(0)<inf")
    print(
        f"{g.label:<24}{g.pinsker_constant:>7.3g}{g.pinsker_lambda:>8.2g}"
        f"{g.f_at_zero:>10.4g}{g.fprime_at_inf:>10.4g}  {', '.join(flags)}"
    )

print()
print("Evaluating one generator at a point: (f, f', f'') for pearson at t = 3")
print("  ", generator_values(make_generator("pearson_chi2"), 3.0))

print()
print("Shift invariance: adding c(t-1) to f leaves the divergence unchanged")
kl = make_generator("kl")
shifted = shift_generator(kl, 7.0)
p = np.array([0.6, 0.1, 0.3])
q = np.array([0.3, 0.3, 0.4])
print(f"  D_kl(p||q)          = {f_divergence(kl, p, q):.12f}")
print(f"  D_(kl + 7(t-1))     = {f_divergence(shifted, p, q):.12f}")

print()
print("The piecewise example is twice but not thrice differentiable at t = 1:")
g = make_generator("piecewise_example")
for t in (0.999999, 1.000001):
    print(f"  f''({t}) = {g.f2(t):.8f}")
