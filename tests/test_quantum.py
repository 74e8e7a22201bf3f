import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from divlab.contraction import BLEND_WEIGHTS, _ratio_scores
from divlab.contraction import eta_chi2 as classical_eta_chi2
from divlab.divergence import _divergence_rows, f_divergence, total_variation
from divlab.generators import from_spec, make_generator, registry_names
from divlab.markov import bsc, stationary_distribution
from divlab.quantum import (
    EIG_CLAMP,
    KrausChannel,
    QuantumBudget,
    apply_channel,
    channel_structure,
    check_density_matrix,
    classical_embedding,
    compose,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    ns_distributions,
    petz_bounds_report,
    petz_chi2,
    petz_eta_chi2,
    petz_f_divergence,
    quantum_eta_bounds,
    quantum_eta_estimate,
    quantum_mixing_time_bounds,
    replacer_channel,
    trace_distance,
    _EIGENBASIS_GRID,
    _candidate_states,
    _haar_pure,
    _ns_rows,
    _spectral,
)

PLUS = np.full((2, 2), 0.5, dtype=complex)
MAXMIX2 = np.eye(2, dtype=complex) / 2
FAST = QuantumBudget(n_samples=100, refine_steps=40)


def random_state(rng, d, rank=None):
    rank = rank or d
    A = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


def random_kraus(rng, d, k=3):
    A = rng.normal(size=(k * d, d)) + 1j * rng.normal(size=(k * d, d))
    Q, _ = np.linalg.qr(A)
    return KrausChannel(kraus=tuple(Q[i * d : (i + 1) * d, :] for i in range(k)))


def petz_spectral_sum(g, rho, sigma):
    """Reference Petz f-divergence: the double sum over eigenpairs
    sum mu_y f(lam_x / mu_y) |<e_x|f_y>|^2 on both supports, plus the f(0+)
    and f'(inf) corrections for the masses outside them; a mass of at most
    EIG_CLAMP counts as rounding noise."""

    def spectral(a):
        eigs, vecs = np.linalg.eigh(a)
        return np.where(np.abs(eigs) < EIG_CLAMP, 0.0, eigs), vecs

    lam, e = spectral(np.asarray(rho, dtype=complex))
    mu, f = spectral(np.asarray(sigma, dtype=complex))
    overlap = np.abs(e.conj().T @ f) ** 2
    px = lam > 0.0
    py = mu > 0.0
    total = 0.0
    if np.any(px) and np.any(py):
        sub = overlap[np.ix_(px, py)]
        ratios = lam[px][:, np.newaxis] / mu[py][np.newaxis, :]
        total += float(np.sum(mu[py][np.newaxis, :] * g.f(ratios) * sub))
    # f(0+) Tr[(I - P^0) Q]: sigma-mass outside the support of rho
    mass = float(np.sum(mu[py][np.newaxis, :] * overlap[np.ix_(~px, py)]))
    if mass > EIG_CLAMP:
        if math.isinf(g.f_at_zero):
            return math.inf
        total += mass * g.f_at_zero
    # f'(inf) Tr[P (I - Q^0)]: rho-mass outside the support of sigma
    mass = float(np.sum(lam[px][:, np.newaxis] * overlap[np.ix_(px, ~py)]))
    if mass > EIG_CLAMP:
        if math.isinf(g.fprime_at_inf):
            return math.inf
        total += mass * g.fprime_at_inf
    return total


def random_unitary(rng, d):
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return Q


def state_in_basis(U, weights):
    return (U * weights[np.newaxis, :]) @ U.conj().T


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        check_density_matrix(np.array([[1.0, 0.5], [0.2, 0.0]]))
    with pytest.raises(ValueError):
        check_density_matrix(np.array([[1.5, 0.0], [0.0, -0.5]]))
    with pytest.raises(ValueError):
        check_density_matrix(0.7 * np.eye(2))


def test_ns_distributions_commuting_case():
    # eigh sorts ascending, so build states already sorted
    p = np.array([0.3, 0.7])
    q = np.array([0.4, 0.6])
    ns = ns_distributions(np.diag(p).astype(complex), np.diag(q).astype(complex))
    P = ns.p_xy.reshape(2, 2)
    Q = ns.q_xy.reshape(2, 2)
    assert P == pytest.approx(np.diag(p), abs=1e-12)
    assert Q == pytest.approx(np.diag(q), abs=1e-12)


def test_ns_distributions_plus_state_example():
    ns = ns_distributions(PLUS, MAXMIX2)
    P = ns.p_xy.reshape(2, 2)
    Q = ns.q_xy.reshape(2, 2)
    # one eigenvalue-1 row carries (1/2, 1/2), the eigenvalue-0 row is empty
    assert sorted(P.sum(axis=1)) == pytest.approx([0.0, 1.0], abs=1e-12)
    assert np.sort(P.ravel()) == pytest.approx([0.0, 0.0, 0.5, 0.5], abs=1e-12)
    assert Q == pytest.approx(np.full((2, 2), 0.25), abs=1e-12)


def test_ns_normalization_and_domination():
    rng = np.random.default_rng(1)
    for _ in range(20):
        rho = random_state(rng, 3)
        sigma = random_state(rng, 3)
        ns = ns_distributions(rho, sigma)
        assert ns.p_xy.sum() == pytest.approx(1.0, abs=1e-9)
        assert ns.q_xy.sum() == pytest.approx(1.0, abs=1e-9)
        # full-rank sigma dominates: q zero forces p zero
        assert ns.p_xy[ns.q_xy <= 1e-14].sum() <= 1e-12


def test_petz_reduces_to_classical_on_diagonals(registry):
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = np.sort(rng.dirichlet(np.ones(3)))
        q = np.sort(rng.dirichlet(np.ones(3)))
        rho = np.diag(p).astype(complex)
        sigma = np.diag(q).astype(complex)
        for g in registry:
            assert petz_f_divergence(g, rho, sigma) == pytest.approx(
                f_divergence(g, p, q), rel=1e-10, abs=1e-12
            ), g.label


def test_petz_kl_plus_state():
    kl = make_generator("kl")
    assert petz_f_divergence(kl, PLUS, MAXMIX2) == pytest.approx(math.log(2.0))
    assert petz_f_divergence(kl, MAXMIX2, MAXMIX2) == pytest.approx(0.0, abs=1e-12)


def test_petz_boundary_terms():
    kl = make_generator("kl")
    # rho has mass outside supp(sigma) and f'(inf) = inf
    rho = np.diag([0.5, 0.5]).astype(complex)
    sigma = np.diag([1.0, 0.0]).astype(complex)
    assert petz_f_divergence(kl, rho, sigma) == math.inf
    # squared Hellinger keeps both corrections finite
    sh = make_generator("squared_hellinger")
    value = petz_f_divergence(sh, np.diag([1.0, 0.0]).astype(complex),
                              np.diag([0.0, 1.0]).astype(complex))
    assert value == pytest.approx(1.0)


def test_petz_chi2_examples():
    rho = np.diag([0.6, 0.4]).astype(complex)
    assert petz_chi2(rho, MAXMIX2) == pytest.approx(0.04)
    assert petz_chi2(MAXMIX2, MAXMIX2) == pytest.approx(0.0, abs=1e-12)
    assert petz_chi2(MAXMIX2, PLUS) == math.inf


def test_petz_chi2_dual_route():
    pc = make_generator("pearson_chi2")
    rng = np.random.default_rng(3)
    for d in (2, 3):
        for _ in range(25):
            rho = random_state(rng, d)
            sigma = random_state(rng, d)
            assert petz_chi2(rho, sigma) == pytest.approx(
                petz_f_divergence(pc, rho, sigma), rel=1e-10, abs=1e-10
            )


def test_ns_basis_independence_under_degeneracy():
    # maximally mixed rho admits any eigenbasis; the divergence must not care
    kl = make_generator("kl")
    sigma = np.diag([0.8, 0.2]).astype(complex)
    lam = np.array([0.5, 0.5])
    theta = 0.7
    U = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]],
        dtype=complex,
    )
    mu, fvecs = np.linalg.eigh(sigma)
    values = []
    for basis in (np.eye(2, dtype=complex), U):
        overlap = np.abs(basis.conj().T @ fvecs) ** 2
        p_xy = (lam[:, None] * overlap).ravel()
        q_xy = (mu[None, :] * overlap).ravel()
        values.append(f_divergence(kl, p_xy, q_xy))
    assert values[0] == pytest.approx(values[1], abs=1e-9)
    assert values[0] == pytest.approx(petz_f_divergence(kl, MAXMIX2, sigma), abs=1e-9)


def test_kraus_validation_and_application():
    with pytest.raises(ValueError):
        KrausChannel(kraus=(np.array([[0.5, 0.0], [0.0, 0.5]]),))
    ident = identity_channel(2)
    assert apply_channel(ident, PLUS) == pytest.approx(PLUS)
    dep1 = depolarizing_channel(2, 1.0)
    assert apply_channel(dep1, PLUS) == pytest.approx(MAXMIX2, abs=1e-12)
    deph = dephasing_channel(2)
    assert apply_channel(deph, PLUS) == pytest.approx(MAXMIX2, abs=1e-12)
    rng = np.random.default_rng(5)
    E = random_kraus(rng, 3)
    rho = random_state(rng, 3)
    out = apply_channel(E, rho)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-9)


def test_compose_concatenates_products():
    dep = depolarizing_channel(2, 0.3)
    deph = dephasing_channel(2)
    both = compose(deph, dep)
    rho = PLUS
    assert apply_channel(both, rho) == pytest.approx(
        apply_channel(deph, apply_channel(dep, rho)), abs=1e-12
    )
    assert len(both.kraus) == len(dep.kraus) * len(deph.kraus)


def test_replacer_channel():
    target = np.diag([0.7, 0.3]).astype(complex)
    rep = replacer_channel(target)
    rng = np.random.default_rng(7)
    rho = random_state(rng, 2)
    assert apply_channel(rep, rho) == pytest.approx(target, abs=1e-12)


def apply_channel_kraus_sum(channel, rho):
    """Oracle for ``apply_channel``: the sum of K rho K^dag over the Kraus
    operators, for one state or a stack along the leading axes."""
    rho = np.asarray(rho, dtype=complex)
    return sum(K @ rho @ K.conj().T for K in channel.kraus)


@given(
    seed=st.integers(0, 2**32 - 1),
    d_in=st.integers(1, 4),
    d_out=st.integers(1, 4),
    k=st.integers(1, 17),
    lead=st.sampled_from([(), (1,), (6,), (2, 3)]),
)
@settings(max_examples=80, deadline=None)
def test_apply_channel_matches_kraus_sum(seed, d_in, d_out, k, lead):
    # an isometry C^d_in -> C^(k d_out) needs k d_out >= d_in
    d_out = max(d_out, -(-d_in // k))
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(k * d_out, d_in)) + 1j * rng.normal(size=(k * d_out, d_in))
    V, _ = np.linalg.qr(A)
    channel = KrausChannel(kraus=tuple(V[i * d_out : (i + 1) * d_out] for i in range(k)))
    B = rng.normal(size=lead + (d_in, d_in)) + 1j * rng.normal(size=lead + (d_in, d_in))
    rho = B @ np.swapaxes(B, -1, -2).conj()
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[..., np.newaxis, np.newaxis]
    out = apply_channel(channel, rho)
    assert out.shape == lead + (d_out, d_out)
    assert np.max(np.abs(out - apply_channel_kraus_sum(channel, rho))) <= 1e-14
    with pytest.raises(ValueError, match="dimension"):
        apply_channel(channel, np.eye(d_in + 1))


def test_superoperator_is_cached_and_read_only():
    channel = depolarizing_channel(3, 0.4)
    S = channel.superoperator()
    assert channel.superoperator() is S
    assert not S.flags.writeable
    with pytest.raises(ValueError):
        S[0, 0] = 0.0
    rho = random_state(np.random.default_rng(3), 3)
    expected = 0.6 * rho + 0.4 * np.eye(3) / 3
    assert np.max(np.abs(apply_channel(channel, rho) - expected)) <= 1e-14


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_kraus_rejects_non_finite_entries(bad):
    # NaN compares false, so the completeness check alone would pass it
    K = np.eye(2, dtype=complex)
    K[1, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        KrausChannel(kraus=(K,))


def test_channel_structure_depolarizing():
    st = channel_structure(depolarizing_channel(2, 0.5))
    assert st.unique and st.mixing and st.strongly_mixing
    assert st.positivity_index == 1
    assert st.fixed_point == pytest.approx(MAXMIX2, abs=1e-9)


def test_channel_structure_mixing_is_spectral():
    # second eigenvalue 1 - lam = 0.9: 64 iterations still leave a trace
    # distance near 1e-3, yet every state converges to I/2
    st = channel_structure(depolarizing_channel(2, 0.1))
    assert st.unique and st.mixing and st.strongly_mixing
    assert st.positivity_index == 1
    # the embedded swap has the unique fixed point I/2 and the eigenvalue -1
    swap = channel_structure(classical_embedding(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert swap.unique and not swap.mixing and swap.positivity_index is None


def test_channel_structure_identity_not_unique():
    st = channel_structure(identity_channel(2))
    assert not st.unique


def test_channel_structure_embedded_constant():
    W = np.zeros((2, 2))
    W[0, :] = 1.0
    st = channel_structure(classical_embedding(W))
    assert st.mixing
    assert not st.strongly_mixing  # fixed point is pure, never full rank
    assert st.positivity_index is None


def test_petz_bounds_report_identity_pair():
    kl = make_generator("kl")
    rep = petz_bounds_report(kl, MAXMIX2, MAXMIX2)
    assert rep.divergence == pytest.approx(0.0, abs=1e-12)
    assert rep.chi2 == pytest.approx(0.0, abs=1e-12)
    assert rep.all_hold


def test_petz_bounds_report_pearson_collapse():
    pc = make_generator("pearson_chi2")
    rho = np.diag([0.6, 0.4]).astype(complex)
    rep = petz_bounds_report(pc, rho, MAXMIX2)
    checks = {c.bound_id: c for c in rep.checks}
    assert checks["petz-sandwich-lower"].lhs == pytest.approx(rep.divergence, rel=1e-9)
    assert checks["petz-sandwich-upper"].rhs == pytest.approx(rep.divergence, rel=1e-9)
    assert rep.all_hold


def test_petz_bounds_report_plus_state_pinsker():
    kl = make_generator("kl")
    rep = petz_bounds_report(kl, PLUS, MAXMIX2)
    checks = {c.bound_id: c for c in rep.checks}
    pinsker = checks["quantum-pinsker"]
    assert pinsker.lhs == pytest.approx(0.5)  # (4/2) (1/2)^2
    assert pinsker.rhs == pytest.approx(math.log(2.0))
    assert rep.all_hold


@pytest.mark.parametrize("eps", [1e-12, 1.5e-12, 3e-12])
@pytest.mark.parametrize("name", ["kl", "pearson_chi2", "triangular"])
def test_petz_bounds_report_tiny_sigma_eigenvalue(eps, name):
    # sigma is full rank, but its NS entries eps/2 fall below SUPPORT_EPSILON:
    # kappa read off clamped rows saw p escape supp q and raised, and at
    # chi2 ~ 1e11 an absolute slack turned rounding into a violation
    g = make_generator(name)
    sigma = np.diag([1.0 - eps, eps]).astype(complex)
    rep = petz_bounds_report(g, PLUS, sigma)
    assert rep.all_hold, [c for c in rep.checks if not c.holds]
    if name == "pearson_chi2":
        # f'' = 2: the sandwich collapses onto the divergence
        checks = {c.bound_id: c for c in rep.checks}
        assert checks["petz-sandwich-lower"].lhs == pytest.approx(rep.divergence, rel=1e-12)


def test_petz_bounds_random_sweep(operator_convex_registry):
    rng = np.random.default_rng(11)
    for _ in range(30):
        rho = random_state(rng, 2)
        sigma = random_state(rng, 2)
        for g in operator_convex_registry:
            rep = petz_bounds_report(g, rho, sigma)
            assert rep.all_hold, (g.label, rep)


@pytest.mark.parametrize("ranks", [(3, 3), (1, 3), (3, 2), (2, 2)])
def test_petz_bounds_report_validates_and_diagonalises_once(ranks, registry, monkeypatch):
    # the pair passes the state gate once, each state is diagonalised by
    # eigh once, and the report's chi2 and divergence keep the bits of the
    # public calls
    from divlab import quantum

    rng = np.random.default_rng(29)
    rho, sigma = (random_state(rng, 3, rank=r) for r in ranks)
    expected = [(petz_chi2(rho, sigma), petz_f_divergence(g, rho, sigma)) for g in registry]
    calls = {"_states": 0, "eigh": 0}
    check, eigh = quantum._states, np.linalg.eigh

    def counted_check(*args, **kwargs):
        calls["_states"] += 1
        return check(*args, **kwargs)

    def counted_eigh(*args):
        calls["eigh"] += 1
        return eigh(*args)

    monkeypatch.setattr(quantum, "_states", counted_check)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    for g, (chi2, value) in zip(registry, expected):
        calls.update(_states=0, eigh=0)
        rep = petz_bounds_report(g, rho, sigma)
        assert calls == {"_states": 1, "eigh": 2}, g.label
        assert (rep.chi2, rep.divergence) == (chi2, value), g.label


def test_quantum_dpi_spot_check(operator_convex_registry):
    rng = np.random.default_rng(13)
    for trial in range(300):
        rho = random_state(rng, 2)
        sigma = random_state(rng, 2)
        E = random_kraus(rng, 2)
        g = operator_convex_registry[trial % len(operator_convex_registry)]
        before = petz_f_divergence(g, rho, sigma)
        if math.isinf(before):
            continue
        after = petz_f_divergence(
            g,
            check_density_matrix(apply_channel(E, rho)),
            check_density_matrix(apply_channel(E, sigma)),
        )
        assert after <= before + 1e-9, g.label


def haar_pure_sequential(d, rng):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def candidate_states_sequential(sigma, budget):
    """Oracle for ``_candidate_states``: one Haar draw per pure state."""
    d = sigma.shape[0]
    rng = np.random.default_rng(budget.seed)
    w = np.asarray(BLEND_WEIGHTS)[:, np.newaxis, np.newaxis]
    out = []
    for _ in range(budget.n_samples):
        pure = haar_pure_sequential(d, rng)
        out += [pure[np.newaxis], (1.0 - w) * pure + w * sigma]
    v = _spectral(sigma)[1].T
    proj = v[:, :, np.newaxis] * v[:, np.newaxis, :].conj()
    a = np.linspace(0.0, 1.0, _EIGENBASIS_GRID)[:, np.newaxis, np.newaxis]
    out += [a * proj[i] + (1 - a) * proj[j] for i in range(d) for j in range(i + 1, d)]
    return np.concatenate(out)


@pytest.mark.parametrize("d", [2, 3, 4, 8])
@pytest.mark.parametrize("rank", ["full", "deficient"])
def test_candidate_states_match_sequential_draws(d, rank):
    for seed in (0, 1, 17, 2**31 - 1):
        rng = np.random.default_rng(seed)
        sigma = random_state(rng, d, rank=d if rank == "full" else d - 1)
        budget = QuantumBudget(seed=seed)
        assert np.array_equal(
            _candidate_states(sigma, budget), candidate_states_sequential(sigma, budget)
        )
        # the refine stream interleaves one share and one Haar state per step
        stream, oracle = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        for _ in range(8):
            assert stream.random() == oracle.random()
            assert np.array_equal(_haar_pure(1, d, stream)[0], haar_pure_sequential(d, oracle))


def test_quantum_eta_identity_and_replacer():
    kl = make_generator("kl")
    est, _ = quantum_eta_estimate(identity_channel(2), MAXMIX2, kl, FAST)
    assert est == pytest.approx(1.0, abs=1e-9)
    rep = replacer_channel(MAXMIX2)
    est, _ = quantum_eta_estimate(
        rep, np.diag([0.7, 0.3]).astype(complex), kl, FAST
    )
    assert est <= 1e-9


def test_quantum_eta_closed_form_channels():
    pc = make_generator("pearson_chi2")
    # depolarizing: E(rho) - I/2 = (1-lam)(rho - I/2), so every feasible state
    # achieves exactly (1-lam)^2
    for lam in (0.3, 0.6):
        est, _ = quantum_eta_estimate(depolarizing_channel(2, lam), MAXMIX2, pc, FAST)
        assert est == pytest.approx((1.0 - lam) ** 2, abs=1e-9)
    # dephasing keeps the z component of the Bloch vector: the sup is 1,
    # attained by any diagonal input
    est, _ = quantum_eta_estimate(dephasing_channel(2), MAXMIX2, pc, FAST)
    assert est == pytest.approx(1.0, abs=1e-9)


def test_quantum_eta_embedded_bsc_matches_classical():
    pc = make_generator("pearson_chi2")
    channel = classical_embedding(bsc(0.3))
    est, _ = quantum_eta_estimate(channel, MAXMIX2, pc, FAST)
    exact = classical_eta_chi2(bsc(0.3), np.array([0.5, 0.5]))
    assert est == pytest.approx(exact, abs=1e-6)


def test_quantum_eta_bounds_dominate_estimate():
    kl = make_generator("kl")
    channel = classical_embedding(bsc(0.25))
    est, _ = quantum_eta_estimate(channel, MAXMIX2, kl, FAST)
    nonlinear, linear = quantum_eta_bounds(channel, MAXMIX2, kl)
    assert math.isinf(nonlinear)  # KL has f''(0+) = inf
    assert linear is not None and est <= linear + 1e-9
    pc = make_generator("pearson_chi2")
    nonlinear, linear = quantum_eta_bounds(channel, MAXMIX2, pc)
    est_pc, _ = quantum_eta_estimate(channel, MAXMIX2, pc, FAST)
    assert math.isfinite(nonlinear) and est_pc <= nonlinear + 1e-9
    assert est_pc <= linear + 1e-9
    with pytest.raises(ValueError):
        quantum_eta_bounds(channel, MAXMIX2, make_generator("jeffrey"))


def test_quantum_submultiplicativity_embedded():
    pc = make_generator("pearson_chi2")
    W = bsc(0.2)
    E = classical_embedding(W)
    EE = classical_embedding(W @ W)
    sigma = np.diag([0.4, 0.6]).astype(complex)
    sigma_out = np.diag(W @ np.array([0.4, 0.6])).astype(complex)
    est_sq, _ = quantum_eta_estimate(EE, sigma, pc, FAST)
    est_1, _ = quantum_eta_estimate(E, sigma, pc, FAST)
    est_2, _ = quantum_eta_estimate(E, sigma_out, pc, FAST)
    assert est_sq <= est_1 * est_2 + 1e-3


def test_quantum_rate_profile_depolarizing():
    # eta for the n-fold depolarizing channel is exactly ((1-lam)^2)^n, so the
    # root profile sits at the single-step coefficient within the envelope
    kl = make_generator("kl")
    lam = 0.4
    eta_one = (1.0 - lam) ** 2
    for n in (1, 2, 3):
        effective = 1.0 - (1.0 - lam) ** n
        En = depolarizing_channel(2, effective)
        est, _ = quantum_eta_estimate(En, MAXMIX2, kl, FAST)
        root = est ** (1.0 / n)
        assert root <= eta_one + 0.05
        assert root >= eta_one - 0.05


def test_quantum_mixing_times_depolarizing():
    kl = make_generator("kl")
    report = quantum_mixing_time_bounds(depolarizing_channel(2, 0.5), 0.01, kl)
    # closed form: TD contracts by (1-lam) per step from TD0 = 1/2
    expected = math.ceil(math.log(0.5 / 0.01) / math.log(1.0 / 0.5))
    assert report.empirical_td == expected
    assert report.empirical_td <= report.td_bound
    assert report.empirical_f is not None and report.empirical_f <= report.f_bound
    assert report.eta_chi2 == pytest.approx(0.25, abs=1e-12)


def test_quantum_mixing_times_embedded_bsc_consistent_with_classical():
    from divlab.contraction import mixing_time_bounds

    kl = make_generator("kl")
    classical = mixing_time_bounds(bsc(0.25), 0.01, kl)
    quantum = quantum_mixing_time_bounds(classical_embedding(bsc(0.25)), 0.01, kl)
    assert quantum.empirical_td == classical.empirical_tv
    assert quantum.empirical_f == classical.empirical_f
    # the quantum chain is looser by at most one step on this instance
    assert classical.tv_bound <= quantum.td_bound <= classical.tv_bound + 1
    assert quantum.eta_chi2 == pytest.approx(0.25, abs=1e-12)


def test_quantum_mixing_time_tiny_delta_gets_finite_bound():
    # delta^2 underflows to zero at delta = 1e-320; the log target is a sum
    # of logs instead
    report = quantum_mixing_time_bounds(depolarizing_channel(2, 0.5), 1e-320)
    # ln(1/(lmin delta^2)) / ln(1/eta) with lmin = 1/2 and eta = 1/4
    expected = math.ceil((math.log(2.0) - 2.0 * math.log(1e-320)) / math.log(4.0))
    assert report.td_bound == expected


def test_quantum_mixing_time_preconditions():
    kl = make_generator("kl")
    with pytest.raises(ValueError):
        quantum_mixing_time_bounds(identity_channel(2), 0.01, kl)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            quantum_mixing_time_bounds(depolarizing_channel(2, 0.5), bad, kl)
    with pytest.raises(ValueError):
        # jeffrey is not flagged operator convex
        quantum_mixing_time_bounds(
            depolarizing_channel(2, 0.5), 0.01, make_generator("jeffrey")
        )


def test_dephasing_consistency_for_classical_embeddings(operator_convex_registry):
    # diagonal states through an embedded channel reproduce the classical story
    W = bsc(0.3)
    E = classical_embedding(W)
    rng = np.random.default_rng(17)
    for g in operator_convex_registry:
        p = np.sort(rng.dirichlet(np.ones(2)))
        q = np.sort(rng.dirichlet(np.ones(2)))
        rho = np.diag(p).astype(complex)
        sigma = np.diag(q).astype(complex)
        lhs = petz_f_divergence(
            g,
            check_density_matrix(apply_channel(E, rho)),
            check_density_matrix(apply_channel(E, sigma)),
        )
        rhs = f_divergence(g, W @ p, W @ q)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12), g.label
        assert trace_distance(rho, sigma) == pytest.approx(
            total_variation(p, q), abs=1e-12
        )


def spectral_pair(seed, d, kind, log_angle):
    """A seeded state pair of one kind: full-rank, rank-deficient (rho,
    sigma or both), commuting rank-deficient, or near-commuting with rho's
    eigenbasis rotated by 10^log_angle rad from sigma's."""
    rng = np.random.default_rng(seed)
    if kind == "full":
        return random_state(rng, d), random_state(rng, d)
    if kind == "rank-deficient":
        ranks = [(1, d), (d, 1), (1, d - 1), (d - 1, d - 1)][seed % 4]
        return random_state(rng, d, ranks[0]), random_state(rng, d, ranks[1])
    # spectra with zeros at random places, in one basis or two nearby ones
    spectra = rng.dirichlet(np.ones(d), size=2)
    for w in spectra:
        w[rng.random(d) < 0.3] = 0.0
        if w.sum() == 0.0:
            w[rng.integers(d)] = 1.0
        w /= w.sum()
    U = random_unitary(rng, d)
    V = U
    if kind == "near-commuting":
        H = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        H = 0.5 * (H + H.conj().T)
        eigs, vecs = np.linalg.eigh(H / np.linalg.norm(H, 2))
        rotation = (vecs * np.exp(1j * 10.0**log_angle * eigs)) @ vecs.conj().T
        V = rotation @ U
    return state_in_basis(V, spectra[0]), state_in_basis(U, spectra[1])


@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 4),
    st.sampled_from(["full", "rank-deficient", "commuting", "near-commuting"]),
    st.floats(min_value=-9.0, max_value=-4.0),
    st.sampled_from(registry_names()),
)
@settings(max_examples=400, deadline=None)
def test_petz_matches_spectral_sum(seed, d, kind, log_angle, name):
    # every registry entry at default parameters
    g = from_spec(name)
    rho, sigma = spectral_pair(seed, d, kind, log_angle)
    ref = petz_spectral_sum(g, rho, sigma)
    value = petz_f_divergence(g, rho, sigma)
    if math.isinf(ref) or math.isinf(value):
        assert value == ref
        return
    # the NS route forms p/q as (lam |<e|f>|^2) / (mu |<e|f>|^2) and sums in
    # another order; its own rounding bound covers both
    ns = _ns_rows(_spectral(rho), _spectral(sigma))
    _, err = _divergence_rows(g, *ns, rounding_error=True)
    assert abs(value - ref) <= 1e-12 * abs(ref) + d * d * err[0], (value, ref)


def test_petz_near_commuting_reverse_kl():
    # rho's eigenvalue 0.001 sits well above EIG_CLAMP while its NS products
    # lam_x |<e_x|f_y>|^2 off the diagonal fall below SUPPORT_EPSILON; clamping
    # them would read sigma-mass outside supp(rho) and give +inf
    theta = 3e-6
    c, s = math.cos(theta), math.sin(theta)
    rho = state_in_basis(np.array([[c, -s], [s, c]], dtype=complex), np.array([0.999, 0.001]))
    sigma = np.diag([0.3, 0.7]).astype(complex)
    rkl = make_generator("reverse_kl")
    value = petz_f_divergence(rkl, rho, sigma)
    closed = 0.3 * math.log(0.3 / 0.999) + 0.7 * math.log(0.7 / 0.001)
    assert value == pytest.approx(closed, rel=1e-6)
    assert value == pytest.approx(petz_spectral_sum(rkl, rho, sigma), rel=1e-12)
    jeffrey = make_generator("jeffrey")
    assert math.isfinite(petz_f_divergence(jeffrey, rho, sigma))


def test_batched_quantum_scores_match_single_rows(registry):
    rng = np.random.default_rng(23)
    d = 3
    channel = random_kraus(rng, d)
    sigma = random_state(rng, d)
    sigma_out = apply_channel(channel, sigma)
    states = np.array(
        [random_state(rng, d, rank=1 + k % d) for k in range(12)] + [sigma]
    )
    outputs = apply_channel(channel, states)
    for g in registry:
        P, Q = _ns_rows(_spectral(states), _spectral(sigma))
        values = _divergence_rows(g, P, Q)
        scores = _ratio_scores(
            g,
            _divergence_rows(g, P, Q, rounding_error=True),
            _ns_rows(_spectral(outputs), _spectral(sigma_out)),
        )
        for k, rho in enumerate(states):
            ns = _ns_rows(_spectral(rho), _spectral(sigma))
            one = _ratio_scores(
                g,
                _divergence_rows(g, *ns, rounding_error=True),
                _ns_rows(_spectral(apply_channel(channel, rho)), _spectral(sigma_out)),
            )
            assert scores[k] == pytest.approx(one[0], rel=1e-12, abs=1e-15), g.label
            assert values[k] == pytest.approx(
                petz_f_divergence(g, rho, sigma), rel=1e-12, abs=1e-15
            ), g.label


@pytest.mark.parametrize("d", [2, 3, 4])
def test_petz_chi2_estimate_not_above_exact_depolarizing(d):
    # every feasible input of depolarizing(lam) has ratio exactly (1-lam)^2;
    # rounding noise in the ratios must not lift the estimate above it
    pc = make_generator("pearson_chi2")
    for lam in (0.1, 0.3, 0.5, 0.7, 0.9):
        channel, sigma = depolarizing_channel(d, lam), np.eye(d) / d
        est, _ = quantum_eta_estimate(channel, sigma, pc, FAST)
        exact = petz_eta_chi2(channel, sigma)
        assert exact == pytest.approx((1.0 - lam) ** 2, abs=1e-12)
        assert est <= (1.0 - lam) ** 2, (lam, est)
        assert est <= exact + 1e-9, (lam, est, exact)
        assert est == pytest.approx((1.0 - lam) ** 2, rel=1e-9)


def petz_eta_chi2_oracle(channel, sigma):
    """Top generalized eigenvalue of the forms Tr[E(sigma)^+ E(X)^2] and
    Tr[sigma^+ X^2] on the r^2 - 1 traceless Hermitian X supported on
    supp(sigma), in a generalized Gell-Mann basis; 0 when r = 1."""

    def pinv_and_support(a):
        eigs, vecs = np.linalg.eigh(a)
        keep = eigs > EIG_CLAMP
        return (vecs[:, keep] / eigs[keep]) @ vecs[:, keep].conj().T, vecs[:, keep]

    pinv_in, F = pinv_and_support(sigma)
    pinv_out, _ = pinv_and_support(apply_channel_kraus_sum(channel, sigma))
    r = F.shape[1]
    unit = [[np.outer(F[:, i], F[:, j].conj()) for j in range(r)] for i in range(r)]
    basis = [unit[i][i] - unit[-1][-1] for i in range(r - 1)]
    for i in range(r):
        for j in range(i + 1, r):
            basis += [unit[i][j] + unit[j][i], 1j * (unit[i][j] - unit[j][i])]
    if not basis:
        return 0.0
    images = [apply_channel_kraus_sum(channel, X) for X in basis]

    def gram(pinv, mats):
        return np.array([[np.trace(pinv @ X @ Y).real for Y in mats] for X in mats])

    num, den = gram(pinv_out, images), gram(pinv_in, basis)
    return float(scipy.linalg.eigh(0.5 * (num + num.T), 0.5 * (den + den.T),
                                   eigvals_only=True)[-1])


@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 3),
    st.integers(1, 3),
    st.sampled_from(["full", "rank-deficient"]),
)
@settings(max_examples=30, deadline=None)
def test_petz_eta_chi2_matches_generalized_eigenproblem(seed, d, k, kind):
    rng = np.random.default_rng(seed)
    channel = random_kraus(rng, d, k)
    sigma = random_state(rng, d, rank=d if kind == "full" else int(rng.integers(1, d)))
    exact = petz_eta_chi2(channel, sigma)
    assert exact == pytest.approx(petz_eta_chi2_oracle(channel, sigma), abs=1e-10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a pure sigma has no feasible input
        est, _ = quantum_eta_estimate(channel, sigma, make_generator("pearson_chi2"), FAST)
    assert est <= exact + 1e-9
    # a classical channel embedded as Kraus operators keeps its coefficient
    W = rng.dirichlet(np.ones(d), size=d).T
    pi, _ = stationary_distribution(W)
    assert petz_eta_chi2(classical_embedding(W), np.diag(pi)) == pytest.approx(
        classical_eta_chi2(W, pi), abs=1e-10
    )
