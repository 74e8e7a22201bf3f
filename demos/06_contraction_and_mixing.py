"""Contraction coefficients and mixing times.

The chi-squared coefficient is exact (squared second singular value of the
normalized joint matrix) and controls the rate of every well-behaved
f-divergence: for a quadratic generator (f'' constant, e.g. pearson_chi2)
eta_f is eta_chi2 exactly, sampled estimates of any other eta_f stay
between eta_chi2 and the nonlinear/linear upper bounds, the n-step
root-rate profile flattens onto eta_chi2, and mixing times follow from the
same coefficient.
"""

import numpy as np

from divlab import (
    bsc,
    contraction_rate_profile,
    eta_chi2,
    eta_f_estimate,
    eta_f_upper_bounds,
    make_generator,
    mixing_time_bounds,
)

UNIFORM = np.array([0.5, 0.5])
SEED = 7

print("=" * 78)
print("The BSC closed form: eta_chi2(BSC(p), uniform) = (1-2p)^2")
print("=" * 78)
for p in (0.05, 0.1, 0.25, 0.3, 0.45):
    print(f"  p={p:<5} eta_chi2={eta_chi2(bsc(p), UNIFORM):.10f}  "
          f"closed form={(1 - 2 * p) ** 2:.10f}")

print()
print("Estimates and upper bounds for KL on BSC(0.25):")
kl = make_generator("kl")
est, witness = eta_f_estimate(bsc(0.25), UNIFORM, kl, SEED)
nonlinear, linear = eta_f_upper_bounds(bsc(0.25), UNIFORM, kl)
print(f"  eta_chi2         = {eta_chi2(bsc(0.25), UNIFORM):.6f}")
print(f"  eta_kl estimate  = {est:.6f}  (witness {np.round(witness, 4)})")
print(f"  nonlinear bound  = {nonlinear:.6f}")
print(f"  linear bound     = {linear:.6f}")
est, witness = eta_f_estimate(bsc(0.25), UNIFORM, make_generator("pearson_chi2"))
print(f"  eta_chi2 as the pearson_chi2 eta_f = {est:.6f}  (exact, witness {np.round(witness, 4)})")

print()
print("Hellinger family on BSC(p): with the family constant 4, the linear")
print("bound is 2(1-2p)^2 for every alpha in (1,2):")
for alpha in (1.25, 1.5, 1.75):
    g = make_generator("hellinger", alpha=alpha)
    _, linear = eta_f_upper_bounds(bsc(0.1), UNIFORM, g, pinsker_constant=4.0)
    print(f"  alpha={alpha}: linear bound = {linear:.6f}  (2(1-2p)^2 = {2 * 0.64:.6f})")

print()
print("Root-rate profile for KL on BSC(0.3): eta_f(W^n, pi)^(1/n) vs 0.16")
profile = contraction_rate_profile(bsc(0.3), kl, 8, SEED)
for pt in profile:
    print(f"  n={pt.n:<2} root={pt.eta_f_root:.8f}  envelope={pt.envelope:.6f}")

print()
print("=" * 78)
print("Mixing times for BSC(0.25) at delta = 0.01")
print("=" * 78)
report = mixing_time_bounds(bsc(0.25), 0.01, kl)
print(f"  eta_chi2 = {report.eta_chi2}, pi_min = {report.pi_min}")
print(f"  TV bound          : {report.tv_bound}")
print(f"  empirical TV time : {report.empirical_tv}")
print(f"  KL bound          : {report.f_bound}")
print(f"  empirical KL time : {report.empirical_f}")
