"""Certifying Pinsker constants numerically.

A constant L is valid for a generator when L <= h_lambda(x, y) on the open
unit square for some lambda in [0, 1].  The certifier minimizes the surface
on an inset grid, refines by descent over shrinking local grids, and reports
whether the claim survives, whether the minimum attains the constant
(tightness), and whether the boundary ring behaves.
"""

import numpy as np

from divlab import certify_constant, check_pinsker, default_registry, h_lambda
from divlab.generators import make_generator
from divlab.pinsker import gilardoni_condition

print("=" * 78)
print("Certificates for the full registry (grid 256^2 for the demo)")
print("=" * 78)
for g in default_registry():
    cert = certify_constant(g, grid_n=256)
    mark = "tight" if cert.tight else f"min {cert.refined_min:.6f}"
    print(
        f"  {g.label:<24} L={cert.claimed_L:<7.3g} lambda={cert.lam:<4.2g} "
        f"{cert.verdict:<12} ({mark})"
    )

print()
print("A constant can fail at the wrong witness: Jeffrey needs lambda = 1/2")
for lam in (0.0, 0.5, 1.0):
    cert = certify_constant(make_generator("jeffrey"), lam, grid_n=256, claimed_L=8.0)
    print(f"  lambda={lam}: {cert.verdict} (grid min {cert.grid_min:.4f})")

print()
print("Condition surfaces at chosen points:")
kl = make_generator("kl")
print(f"  h_0(kl, 1/2, 0.3)   = {h_lambda(kl, 0.0, 0.5, 0.3):.6f}  (minimum 4)")
js = make_generator("jensen_shannon")
print(f"  h_1/2(js, 1/2, 1/2) = {h_lambda(js, 0.5, 0.5, 0.5):.6f}  (minimum 1)")

print()
print("Checking the bound D_f >= L/(2c) TV^2 on a few pairs (KL):")
rng = np.random.default_rng(0)
for _ in range(3):
    p = rng.dirichlet(np.ones(4))
    q = rng.dirichlet(np.ones(4))
    lhs, rhs, holds = check_pinsker(kl, p, q)
    print(f"  D = {lhs:.6f} >= {rhs:.6f} : {holds}")

print()
print("The third-order comparison condition (holds iff the f''(1)/2 constant")
print("is provably optimal by that method):")
for name, kwargs in (("kl", {}), ("pearson_chi2", {}), ("renyi_gain", {"alpha": 4.0})):
    g = make_generator(name, **kwargs)
    print(f"  {g.label:<22} -> {gilardoni_condition(g)}")
