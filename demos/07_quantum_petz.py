"""Petz f-divergences and quantum channel ergodics.

Every Petz divergence reduces to a classical f-divergence of the two
Nussbaum-Szkola joint distributions, so the classical bound machinery lifts
wholesale: the sandwich, quantum Pinsker, mixing predicates, contraction
coefficients (exact for quadratic generators such as pearson_chi2, whose
Petz divergence is a multiple of the Petz chi-squared, sampled lower
estimates for the others) against the exact Petz chi-squared coefficient,
and mixing-time bounds.  A sampled estimate starts at the exact local floor
of its coefficient; for KL on an embedded BSC at I/2 that floor is the
coefficient itself, (1-2p)^2, and the printed KL estimates sit within 1e-7
of it.
"""

import math

import numpy as np

from divlab import (
    bsc,
    channel_structure,
    classical_embedding,
    depolarizing_channel,
    make_generator,
    ns_distributions,
    petz_bounds_report,
    petz_chi2,
    petz_eta_chi2,
    petz_f_divergence,
    quantum_eta_estimate,
    quantum_mixing_time_bounds,
)

PLUS = np.full((2, 2), 0.5, dtype=complex)
MAXMIX = np.eye(2, dtype=complex) / 2
SEED = 7
kl = make_generator("kl")
pc = make_generator("pearson_chi2")

print("=" * 78)
print("Nussbaum-Szkola distributions of (|+><+|, I/2)")
print("=" * 78)
ns = ns_distributions(PLUS, MAXMIX)
print("  p_xy =", np.round(ns.p_xy.reshape(2, 2), 4).tolist())
print("  q_xy =", np.round(ns.q_xy.reshape(2, 2), 4).tolist())
print(f"  Petz KL(|+><+| || I/2) = {petz_f_divergence(kl, PLUS, MAXMIX):.6f} "
      f"(= ln 2 = {math.log(2):.6f})")
rho = np.diag([0.6, 0.4]).astype(complex)
print(f"  Petz chi2(diag(0.6,0.4) || I/2): trace formula = {petz_chi2(rho, MAXMIX):.6f}, "
      f"NS route = {petz_f_divergence(pc, rho, MAXMIX):.6f}")

print()
print("Bound report for (kl, |+><+|, I/2):")
rep = petz_bounds_report(kl, PLUS, MAXMIX)
for c in rep.checks:
    status = "holds" if c.holds else "VIOLATED"
    if not c.applicable:
        status = f"skipped ({c.note})"
        print(f"  {c.bound_id:<24} {status}")
    else:
        print(f"  {c.bound_id:<24} {c.lhs:.6f} <= {c.rhs:.6f}  {status}")

print()
print("=" * 78)
print("Channel structure")
print("=" * 78)
for name, E in (
    ("depolarizing(0.5)", depolarizing_channel(2, 0.5)),
    ("embedded BSC(0.25)", classical_embedding(bsc(0.25))),
):
    st = channel_structure(E)
    print(f"  {name}: unique={st.unique} mixing={st.mixing} "
          f"strongly_mixing={st.strongly_mixing} positivity_index={st.positivity_index}")

print()
print("Contraction through the quantum stack reproduces the classical value;")
print("pearson_chi2 is quadratic, so its eta is the exact Petz eta_chi2; KL is")
print("sampled, a lower estimate of its eta, which is (1-2p)^2 here too:")
for p in (0.1, 0.3):
    E = classical_embedding(bsc(p))
    exact, _ = quantum_eta_estimate(E, MAXMIX, pc, SEED)
    est, _ = quantum_eta_estimate(E, MAXMIX, kl, SEED)
    print(f"  embedded BSC({p}): chi2 eta = {exact:.8f} (exact)  KL estimate = {est:.8f}  "
          f"((1-2p)^2 = {(1 - 2 * p) ** 2})")

print()
print("Quantum mixing times (exact Petz eta_chi2) for depolarizing(0.5), delta=0.01:")
report = quantum_mixing_time_bounds(depolarizing_channel(2, 0.5), 0.01, kl)
print(f"  eta_chi2          : {report.eta_chi2:.6f}")
print(f"  TD bound          : {report.td_bound}")
print(f"  empirical TD time : {report.empirical_td}")
print(f"  KL bound          : {report.f_bound}")
print(f"  empirical KL time : {report.empirical_f}")
