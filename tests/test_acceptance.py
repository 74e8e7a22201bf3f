"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as the
criteria execute.  Every tolerance is stated inline.
"""

import math
import time

import numpy as np

from divlab.bregman import (
    bregman_divergence,
    bregman_integral,
    neg_entropy_fn,
    quadratic_fn,
)
from divlab.chi2bounds import chi2_sandwich, chi2_tv_upper, f_lower_by_chi2, reverse_pinsker
from divlab.contraction import (
    contraction_rate_profile,
    eta_chi2,
    eta_f_estimate,
    eta_f_upper_bounds,
    mixing_time_bounds,
)
from divlab.divergence import chi_squared, f_divergence, integral_representation
from divlab.generators import default_registry, make_generator
from divlab.markov import bsc
from divlab.pinsker import certify_constant
from divlab.quantum import (
    classical_embedding,
    petz_bounds_report,
    petz_chi2,
    petz_f_divergence,
    quantum_eta_estimate,
)

from conftest import sample_sizes

# the seed of every sampled estimate, and the sizes of the chain estimates
SEED = 2024
SIZES = {"n_samples": 200, "refine_steps": 100}

# beyond the tightness list, every Tables-1-2 entry attains its constant; the
# piecewise generator is certified against an infimum approached at the corner
TIGHT_AT_TABLE_VALUE = (
    "kl",
    "reverse_kl",
    "renyi_gain",
    "hellinger",
    "pearson_chi2",
    "neyman_chi2",
    "symmetric_chi2",
    "ag_mean",
    "jeffrey",
    "squared_hellinger",
    "lins",
    "jensen_shannon",
    "triangular",
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}", flush=True)
    assert ok, detail


def _random_state(rng, d):
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


def test_criterion_1_pinsker_constant_reproduction():
    start = time.perf_counter()
    failures = []
    for g in default_registry():
        cert = certify_constant(g, grid_n=512)
        if cert.verdict != "certified":
            failures.append(f"{g.label}: {cert.verdict}")
        if g.name in TIGHT_AT_TABLE_VALUE and abs(
            cert.refined_min - g.pinsker_constant
        ) > 1e-6:
            failures.append(f"{g.label}: refined {cert.refined_min} vs {g.pinsker_constant}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _report(
        1,
        not failures,
        f"14 constants certified at grid 512^2 in {elapsed:.1f}s"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_2_bsc_contraction():
    start = time.perf_counter()
    uniform = np.array([0.5, 0.5])
    worst = 0.0
    for p in (0.05, 0.1, 0.25, 0.3, 0.45):
        got = eta_chi2(bsc(p), uniform)
        worst = max(worst, abs(got - (1.0 - 2.0 * p) ** 2))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    _report(2, ok, f"eta_chi2(BSC) worst error {worst:.2e} in {elapsed:.2f}s")


@sample_sizes(**SIZES)
def test_criterion_3_hellinger_linear_bound():
    uniform = np.array([0.5, 0.5])
    worst_eq = 0.0
    ok = True
    for alpha in (1.25, 1.5, 1.75):
        g = make_generator("hellinger", alpha=alpha)
        for p in (0.1, 0.3):
            W = bsc(p)
            # the worked example's bound uses the family-uniform constant 4,
            # valid for alpha in (1, 2) since the certified constant is 4 alpha
            _, linear = eta_f_upper_bounds(W, uniform, g, pinsker_constant=4.0)
            worst_eq = max(worst_eq, abs(linear - 2.0 * (1.0 - 2.0 * p) ** 2))
            est, _ = eta_f_estimate(W, uniform, g, SEED)
            ok &= est <= linear + 1e-9
            # the per-alpha certified constant gives the tighter valid bound
            _, tight_linear = eta_f_upper_bounds(W, uniform, g)
            ok &= est <= tight_linear + 1e-9
    ok &= worst_eq <= 1e-9
    _report(3, ok, f"linear bound equals 2(1-2p)^2 (worst dev {worst_eq:.2e}) and "
                   "dominates the exhaustive-grid estimate")


@sample_sizes(**SIZES)
def test_criterion_4_rate_convergence():
    start = time.perf_counter()
    failures = []
    for name in ("kl", "squared_hellinger", "jensen_shannon"):
        g = make_generator(name)
        profile = contraction_rate_profile(bsc(0.3), g, 12, SEED)
        roots = [pt.eta_f_root for pt in profile]
        final_err = abs(roots[-1] - 0.16)
        if final_err > 0.05:
            failures.append(f"{name}: |root(12) - 0.16| = {final_err:.3f}")
        # monotone approach, with slack for the 1/n-th-root amplification of
        # the simplex-grid discretization (well below the 0.05 tolerance)
        gaps = [abs(r - 0.16) for r in roots]
        if any(gaps[i + 1] > gaps[i] + 1e-4 for i in range(len(gaps) - 1)):
            failures.append(f"{name}: approach not monotone: {gaps}")
        if not all(pt.within_envelope for pt in profile):
            failures.append(f"{name}: envelope violated")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _report(
        4,
        not failures,
        f"profiles approach 0.16 monotonically (n=12) in {elapsed:.1f}s"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_5_mixing_times():
    kl = make_generator("kl")
    report = mixing_time_bounds(bsc(0.25), 0.01, kl)
    checks = {
        "tv_bound == 7": report.tv_bound == 7,
        "empirical_tv == 6": report.empirical_tv == 6,
        "empirical <= bound": report.empirical_within_bound,
        "f_bound finite": report.f_bound is not None,
        "empirical f decay <= f_bound": report.empirical_f is not None
        and report.empirical_f <= report.f_bound,
    }
    # direct iteration oracle for the f-divergence decay
    W, pi = bsc(0.25), np.array([0.5, 0.5])
    state, n = np.eye(2), 0
    while max(f_divergence(kl, state[:, x], pi) for x in range(2)) > 0.01:
        state = W @ state
        n += 1
    checks["empirical f matches iteration oracle"] = report.empirical_f == n
    failed = [k for k, v in checks.items() if not v]
    _report(
        5,
        not failed,
        f"tv_bound={report.tv_bound}, empirical_tv={report.empirical_tv}, "
        f"f_bound={report.f_bound}, empirical_f={report.empirical_f}"
        + (f"; failed: {failed}" if failed else ""),
    )


def test_criterion_6_sandwich_and_reverse_pinsker_suite():
    registry = default_registry()
    rng = np.random.default_rng(606)
    violations = 0
    for trial in range(1000):
        g = registry[trial % len(registry)]
        dim = int(rng.integers(3, 6))
        p = 0.9 * rng.dirichlet(np.ones(dim)) + 0.1 / dim
        q = 0.9 * rng.dirichlet(np.ones(dim)) + 0.1 / dim
        p, q = p / p.sum(), q / q.sum()
        lower, value, upper, holds = chi2_sandwich(g, p, q)
        if not holds:
            violations += 1
        l2b, tvb = reverse_pinsker(g, p, q)
        if not (value <= l2b + 1e-10 and value <= tvb + 1e-10):
            violations += 1
        inf_l1, prob = chi2_tv_upper(p, q)
        c2 = chi_squared(p, q)
        if not (c2 <= inf_l1 + 1e-10 and c2 <= prob + 1e-10):
            violations += 1
        _, holds = f_lower_by_chi2(g, p, q)
        if not holds:
            violations += 1
    _report(6, violations == 0, f"1000 random triples, {violations} violations at 1e-10")


def test_criterion_7_quadrature_equivalence():
    registry = default_registry()
    rng = np.random.default_rng(707)
    worst = 0.0
    for g in registry:
        for _ in range(200):
            dim = int(rng.integers(2, 5))
            p = 0.9 * rng.dirichlet(np.ones(dim)) + 0.1 / dim
            q = 0.9 * rng.dirichlet(np.ones(dim)) + 0.1 / dim
            p, q = p / p.sum(), q / q.sum()
            approx = integral_representation(g, p, q)
            worst = max(worst, abs(approx - f_divergence(g, p, q)))
    ok = worst <= 1e-8
    # Bregman integral representation for quadratic and entropy potentials
    quad = quadratic_fn(np.array([[2.0, 0.4], [0.4, 1.5]]))
    ent = neg_entropy_fn(3)
    worst_breg = 0.0
    for _ in range(50):
        x, y = rng.normal(size=(2, 2))
        worst_breg = max(
            worst_breg,
            abs(bregman_integral(quad, x, y) - bregman_divergence(quad, x, y)),
        )
        u = 0.9 * rng.dirichlet(np.ones(3)) + 0.1 / 3
        v = 0.9 * rng.dirichlet(np.ones(3)) + 0.1 / 3
        worst_breg = max(
            worst_breg,
            abs(bregman_integral(ent, u, v) - bregman_divergence(ent, u, v)),
        )
    ok &= worst_breg <= 1e-7
    _report(
        7,
        ok,
        f"128-node quadrature worst error {worst:.2e} (<=1e-8); "
        f"Bregman 64-node worst {worst_breg:.2e} (<=1e-7)",
    )


def test_criterion_8_quantum_reductions():
    registry = default_registry()
    rng = np.random.default_rng(808)
    worst_diag = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 4))
        p = np.sort(rng.dirichlet(np.ones(dim)))
        q = np.sort(rng.dirichlet(np.ones(dim)))
        rho = np.diag(p).astype(complex)
        sigma = np.diag(q).astype(complex)
        for g in registry:
            a = petz_f_divergence(g, rho, sigma)
            b = f_divergence(g, p, q)
            if math.isinf(a) and math.isinf(b):
                continue
            worst_diag = max(worst_diag, abs(a - b))
    ok = worst_diag <= 1e-10

    pc = make_generator("pearson_chi2")
    worst_dual = 0.0
    for d in (2, 3):
        for _ in range(100):
            rho = _random_state(rng, d)
            sigma = _random_state(rng, d)
            worst_dual = max(
                worst_dual, abs(petz_chi2(rho, sigma) - petz_f_divergence(pc, rho, sigma))
            )
    ok &= worst_dual <= 1e-10

    worst_embed = 0.0
    sigma = np.eye(2, dtype=complex) / 2
    for p in (0.05, 0.1, 0.25, 0.3, 0.45):
        # pearson_chi2 is quadratic: the estimate is exact and samples nothing
        est, _ = quantum_eta_estimate(classical_embedding(bsc(p)), sigma, pc, SEED)
        worst_embed = max(worst_embed, abs(est - (1.0 - 2.0 * p) ** 2))
    ok &= worst_embed <= 1e-6
    _report(
        8,
        ok,
        f"diagonal reduction worst {worst_diag:.2e} (<=1e-10); chi2 dual route "
        f"worst {worst_dual:.2e} (<=1e-10); embedded BSC worst {worst_embed:.2e} (<=1e-6)",
    )


def test_criterion_9_quantum_pinsker_and_sandwich():
    op_convex = [g for g in default_registry() if g.operator_convex]
    rng = np.random.default_rng(909)
    violations = 0
    for _ in range(300):
        rho = _random_state(rng, 2)
        sigma = _random_state(rng, 2)
        for g in op_convex:
            rep = petz_bounds_report(g, rho, sigma)
            by_id = {c.bound_id: c for c in rep.checks}
            for name in ("quantum-pinsker", "petz-sandwich-lower", "petz-sandwich-upper"):
                c = by_id[name]
                if c.applicable and not c.holds:
                    violations += 1
    _report(
        9,
        violations == 0,
        f"300 random qubit pairs x {len(op_convex)} operator-convex generators, "
        f"{violations} violations at 1e-9",
    )


def test_criterion_10_no_large_scale_experiments():
    # the source material contains no large-scale experiments: all of its
    # quantitative content (table constants, the BSC closed form, the bound
    # formulas) is covered at desk scale by criteria 1-9
    _report(10, True, "all quantitative content reproduced at desk scale; "
                      "no substitute criteria required")
