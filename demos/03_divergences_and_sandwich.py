"""The divergence engine and the chi-squared sandwich.

Support conventions (0 f(0/0) = 0 and 0 f(a/0) = a f'(inf)) are exact, the
second-order integral representation reproduces every divergence by
quadrature, and the curvature extremes kappa_up / kappa_down squeeze any
twice-differentiable f-divergence between multiples of chi-squared.
"""

import math

import numpy as np

from divlab import (
    chi2_sandwich,
    chi2_tv_upper,
    chi_squared,
    f_divergence,
    f_lower_by_chi2,
    integral_representation,
    kappa_bounds,
    make_generator,
    reverse_pinsker,
    total_variation,
)

kl = make_generator("kl")

print("=" * 78)
print("Support conventions")
print("=" * 78)
print(f"  KL((1,0) || (1/2,1/2)) = {f_divergence(kl, [1, 0], [0.5, 0.5]):.6f} "
      f"(= ln 2 = {math.log(2):.6f})")
print(f"  KL((1/2,1/2) || (1,0)) = {f_divergence(kl, [0.5, 0.5], [1, 0])}")
sh = make_generator("squared_hellinger")
print(f"  squared Hellinger with disjoint supports: "
      f"{f_divergence(sh, [1, 0], [0, 1]):.4f}  (finite: f(0+) and f'(inf) both 1/2)")

print()
print("Quadrature of the integral representation vs the closed form (KL):")
p = np.array([0.55, 0.25, 0.2])
q = np.array([0.4, 0.35, 0.25])
print(f"  quadrature: {integral_representation(kl, p, q):.15f}")
print(f"  closed    : {f_divergence(kl, p, q):.15f}")

print()
print("=" * 78)
print("Curvature extremes and the sandwich")
print("=" * 78)
kp = kappa_bounds(kl, [0.5, 0.5], [0.25, 0.75])
print(f"  kappa for KL, p=(1/2,1/2), q=(1/4,3/4): up={kp.kappa_up}, down={kp.kappa_down}")
lower, value, upper, holds = chi2_sandwich(kl, p, q)
print(f"  (k_down/2) chi2 = {lower:.6f} <= D = {value:.6f} <= (k_up/2) chi2 = {upper:.6f}")

pc = make_generator("pearson_chi2")
lower, value, upper, _ = chi2_sandwich(pc, p, q)
print(f"  pearson collapses to equality: {lower:.6f} = {value:.6f} = {upper:.6f}")

print()
print("Reverse Pinsker: D_f <= k_up/(2 q_min) ||p-q||_2^2 <= 2 k_up/q_min TV^2")
l2b, tvb = reverse_pinsker(kl, p, q)
print(f"  D = {f_divergence(kl, p, q):.6f} <= {l2b:.6f} <= {tvb:.6f}")

print()
print("chi-squared by TV, and the Pinsker-based lower route:")
inf_l1, prob = chi2_tv_upper(p, q)
print(f"  chi2 = {chi_squared(p, q):.6f} <= ||.||_inf ||.||_1 / q_min = {inf_l1:.6f}")
print(f"  chi2 <= ||.||_1^2 / (2 q_min) = {prob:.6f}")
bound, holds = f_lower_by_chi2(kl, p, q)
print(f"  D_kl >= (L q_min / 4) chi2 = {bound:.6f} : {holds}")
print(f"  (TV = {total_variation(p, q):.6f} throughout)")
