import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from divlab import quantum
from divlab.chi2bounds import _kappa_pair
from divlab.contraction import BLEND_WEIGHTS
from divlab.contraction import eta_chi2 as classical_eta_chi2
from divlab.divergence import _divergence_rows, f_divergence, total_variation
from divlab.generators import from_spec, make_generator, registry_names
from divlab.markov import bsc, stationary_distribution
from divlab.quantum import (
    EIG_CLAMP,
    UNBOUNDED_WARNING,
    KrausChannel,
    NSPair,
    PetzBoundsReport,
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
    _SEEDED_BLEND_WEIGHTS,
    _SERIES_GAP,
    _candidate_states,
    _check,
    _chi2_weights,
    _f_weights,
    _floor_seeds,
    _min_positive,
    _ns_rows,
    _petz_form,
    _pure_states,
    _refine_draws,
    _petz_chi2,
    _skip,
    _spectral,
    _states,
    _supported,
    _trace_distance,
)

from conftest import (
    check_against_values_only_route,
    random_kraus,
    random_state,
    ratio_scores,
    sample_sizes,
    sampled_twin,
)

PLUS = np.full((2, 2), 0.5, dtype=complex)
MAXMIX2 = np.eye(2, dtype=complex) / 2
# the sampling sizes of the quick tests
FAST = {"n_haar": 100, "petz_refine_steps": 40}


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


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5), data=st.data())
@settings(max_examples=60, deadline=None)
def test_support_test_is_the_finiteness_of_petz_chi2(seed, d, data):
    # the support test is the finiteness of the Petz chi^2: _petz_chi2
    # reads rho << sigma from it, and petz_bounds_report from that finiteness
    rng = np.random.default_rng(seed)
    rho = random_state(rng, d, data.draw(st.integers(1, d)))
    sigma = random_state(rng, d, data.draw(st.integers(1, d)))
    if data.draw(st.booleans()):  # sigma inside supp rho
        e = _spectral(rho)[1][:, _spectral(rho)[0] > 0.0]
        sigma = e @ (e.conj().T @ sigma @ e) @ e.conj().T
        sigma = 0.5 * (sigma + sigma.conj().T) / np.trace(sigma).real
    ref = _spectral(rho)
    assert _supported(sigma, ref) == (_petz_chi2(sigma, rho, ref) < math.inf)


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


def _petz_bounds_oracle(g, rho, sigma) -> PetzBoundsReport:
    """The Petz bounds report before its checks became one table: the
    sandwich also asked for sigma << rho where f''(0+) is infinite, and the
    NS reverse-Pinsker checks were skipped where kappa_up is infinite."""
    rho, sigma = _states(rho, sigma)
    rho_spec, sigma_spec = _spectral(rho), _spectral(sigma)
    P, Q = _ns_rows(rho_spec, sigma_spec)
    value = float(_divergence_rows(g, P, Q)[0])
    chi2 = _petz_chi2(rho, sigma, sigma_spec)
    td = _trace_distance(rho, sigma)
    ns = NSPair(p_xy=P[0], q_xy=Q[0])
    checks = []

    dominated = math.isfinite(chi2)
    sigma_dom_rho = _supported(sigma, rho_spec)
    kp = _kappa_pair(g, ns.p_xy, ns.q_xy) if dominated else None
    if dominated and (g.f2_at_zero_finite or sigma_dom_rho):
        checks.append(_check("petz-sandwich-lower", 0.5 * kp.kappa_down * chi2, value))
        upper = 0.5 * kp.kappa_up * chi2 if math.isfinite(kp.kappa_up) else math.inf
        checks.append(_check("petz-sandwich-upper", value, upper))
    else:
        checks.append(_skip("petz-sandwich-lower", "needs rho << sigma and finite kappa"))
        checks.append(_skip("petz-sandwich-upper", "needs rho << sigma and finite kappa"))

    if g.operator_convex and g.pinsker_constant is not None:
        checks.append(_check("quantum-pinsker", 0.5 * g.pinsker_constant * td**2, value))
    else:
        checks.append(_skip("quantum-pinsker", "needs operator-convex f"))

    if dominated:
        lmin = _min_positive(np.linalg.eigvalsh(sigma))
        diff = rho - sigma
        l2 = float(np.real(np.trace(diff.conj().T @ diff)))
        checks.append(_check("petz-chi2-l2", chi2, l2 / lmin))
        checks.append(_check("petz-chi2-td", l2 / lmin, 4.0 * td**2 / lmin))
        if g.operator_convex and g.pinsker_constant is not None:
            checks.append(
                _check("petz-f-lower-chi2", g.pinsker_constant * lmin / 8.0 * chi2, value))
        else:
            checks.append(_skip("petz-f-lower-chi2", "needs operator-convex f"))
        if math.isfinite(kp.kappa_up):
            qmin = float(ns.q_xy[ns.q_xy > 0.0].min())
            dns = ns.p_xy - ns.q_xy
            l2_ns = float(np.dot(dns, dns))
            checks.append(
                _check("ns-reverse-pinsker-l2", value, kp.kappa_up / (2 * qmin) * l2_ns))
            tv_ns = 0.5 * float(np.abs(dns).sum())
            checks.append(
                _check("ns-reverse-pinsker-tv", value, 2.0 * kp.kappa_up / qmin * tv_ns**2))
        else:
            checks.append(_skip("ns-reverse-pinsker-l2", "kappa_up infinite"))
            checks.append(_skip("ns-reverse-pinsker-tv", "kappa_up infinite"))
    else:
        for name in ("petz-chi2-l2", "petz-chi2-td", "petz-f-lower-chi2",
                     "ns-reverse-pinsker-l2", "ns-reverse-pinsker-tv"):
            checks.append(_skip(name, "rho not dominated by sigma"))

    return PetzBoundsReport(checks=tuple(checks), divergence=value, chi2=chi2, td=td)


def _state_pair(rng, d, kind):
    """A full-rank pair, a rank-deficient rho inside a full-rank sigma, a
    full-rank rho outside a rank-deficient sigma, or a pure rho inside a
    sigma of rank d - 1 (at d = 2 sigma itself)."""
    low = max(1, d // 2)
    if kind == "full":
        return random_state(rng, d), random_state(rng, d)
    if kind == "rho-deficient":
        return random_state(rng, d, low), random_state(rng, d)
    if kind == "sigma-deficient":
        return random_state(rng, d), random_state(rng, d, low)
    sigma = random_state(rng, d, d - 1)
    e = _spectral(sigma)[1][:, _spectral(sigma)[0] > 0.0]
    rho = e @ (e.conj().T @ random_state(rng, d, 1) @ e) @ e.conj().T
    return 0.5 * (rho + rho.conj().T) / np.trace(rho).real, sigma


def _same(a, b) -> bool:
    return a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("kind", ["full", "rho-deficient", "sigma-deficient", "nested"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_petz_bounds_report_keeps_every_check_of_the_oracle(kind, d, registry):
    # every check the oracle applies keeps its bits; the sandwich and the NS
    # reverse-Pinsker checks it skipped for sigma !<< rho or an infinite
    # kappa_up now apply and hold, with a right side that is +inf, never NaN,
    # where kappa_up is infinite.  A left side is finite, or the divergence
    # at +inf (f(0+) = +inf on a rho without sigma's support)
    generators = registry + [make_generator("chi_alpha", alpha=2.5),
                             make_generator("one_sided_chi2")]
    rng = np.random.default_rng(100 * d + len(kind))
    newly = 0
    for _ in range(4):
        rho, sigma = _state_pair(rng, d, kind)
        for g in generators:
            old, new = _petz_bounds_oracle(g, rho, sigma), petz_bounds_report(g, rho, sigma)
            assert (new.divergence, new.chi2, new.td) == (old.divergence, old.chi2, old.td)
            assert [c.bound_id for c in new.checks] == [c.bound_id for c in old.checks]
            for was, now in zip(old.checks, new.checks):
                fields = zip(dataclasses.astuple(was), dataclasses.astuple(now))
                if was.applicable:
                    assert all(_same(a, b) for a, b in fields), (g.label, was, now)
                elif now.applicable:
                    newly += 1
                    assert now.holds and not math.isnan(now.rhs), (g.label, now)
                    assert math.isfinite(now.lhs) or now.lhs == new.divergence == math.inf
                else:
                    renamed = was.note == "needs rho << sigma and finite kappa"
                    assert now.note == ("rho not dominated by sigma" if renamed else was.note)
    # rho inside a larger supp sigma: sigma !<< rho, so kl's kappa_up is infinite
    assert (newly > 0) == (kind == "rho-deficient" or kind == "nested" and d > 2), newly


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


def candidate_states_sequential(sigma, seed, seeds):
    """Oracle for ``_candidate_states``: one Haar draw per pure state, as
    many as the module's size, then its blends toward sigma (the pure state
    itself and all of BLEND_WEIGHTS where there are no seeds)."""
    d = sigma.shape[0]
    rng = np.random.default_rng(seed)
    weights = _SEEDED_BLEND_WEIGHTS if len(seeds) else (0.0,) + BLEND_WEIGHTS
    out = []
    for _ in range(quantum._N_HAAR):
        pure = haar_pure_sequential(d, rng)
        out += [((1.0 - w) * pure + w * sigma)[np.newaxis] for w in weights]
    out.append(seeds)
    v = _spectral(sigma)[1].T
    proj = v[:, :, np.newaxis] * v[:, np.newaxis, :].conj()
    a = np.linspace(0.0, 1.0, _EIGENBASIS_GRID)[:, np.newaxis, np.newaxis]
    out += [a * proj[i] + (1 - a) * proj[j] for i in range(d) for j in range(i + 1, d)]
    return np.concatenate(out)


@pytest.mark.parametrize("d", [2, 3, 4, 8])
@pytest.mark.parametrize("rank", ["full", "deficient"])
def test_candidate_states_match_sequential_draws(d, rank):
    for seed, n_seeds in itertools.product((0, 1, 17, 2**31 - 1), (0, 3)):
        rng = np.random.default_rng(seed)
        sigma = random_state(rng, d, rank=d if rank == "full" else d - 1)
        seeds = np.array([random_state(rng, d) for _ in range(n_seeds)]).reshape(-1, d, d)
        states, lam = _candidate_states(sigma, seed, seeds)
        assert np.array_equal(states, candidate_states_sequential(sigma, seed, seeds))
        assert lam.shape == (d * (d - 1) // 2 * _EIGENBASIS_GRID, d)
        # the refine stream: every step's share, then every step's Haar state
        u, raw = _refine_draws(np.random.default_rng(seed + 1), 8, d)
        psi, oracle = _pure_states(raw), np.random.default_rng(seed + 1)
        assert np.array_equal(u, [oracle.random() for _ in range(8)])
        for k in range(8):
            assert np.array_equal(psi[k], haar_pure_sequential(d, oracle))


def _level_sums(rows, lam, levels, d):
    """NS rows (N, d^2) of states with spectra lam (N, d), summed over the
    eigenvectors x of each eigenvalue in ``levels`` (N, d): entries (N, i, y)
    that do not depend on the eigenbasis chosen in a degenerate eigenspace."""
    member = np.abs(lam[:, np.newaxis, :] - levels[:, :, np.newaxis]) < 1e-9
    return member @ rows.reshape(-1, d, d)


@pytest.mark.parametrize("d", [2, 3, 4, 8])
@pytest.mark.parametrize("kind", ["full", "deficient", "maximally-mixed"])
def test_segment_spectra_match_eigh(d, kind, registry):
    # the sigma-eigenbasis segments are scored from their closed-form
    # spectra; their NS rows (of unit mass) and divergences agree with the
    # eigh route to 1e-12 relative, absolute below 1: a segment state near
    # sigma has a divergence near 0, whose relative error is the kernel's
    # cancellation on inputs that differ by eigh's rounding
    rng = np.random.default_rng(7 * d)
    if kind == "maximally-mixed":
        sigma = np.eye(d, dtype=complex) / d
    else:
        sigma = random_state(rng, d, rank=d if kind == "full" else d - 1)
    with sample_sizes(n_haar=100):
        states, lam = _candidate_states(sigma, 0, np.empty((0, d, d)))
    segments = states[len(states) - len(lam):]
    ref = _spectral(sigma)
    closed = _ns_rows((lam, ref[1]), ref)
    spec = _spectral(segments)
    assert np.allclose(np.sort(lam, axis=1), spec[0], rtol=0.0, atol=1e-14)
    eigh = _ns_rows(spec, ref)
    for rows, eigh_rows in zip(closed, eigh):
        assert np.allclose(_level_sums(rows, lam, lam, d), _level_sums(eigh_rows, spec[0], lam, d),
                           rtol=1e-12, atol=1e-12)
    for g in registry:
        v1, v2 = _divergence_rows(g, *closed), _divergence_rows(g, *eigh)
        finite = np.isfinite(v2)
        assert np.array_equal(np.isfinite(v1), finite), g.label
        assert np.allclose(v1[finite], v2[finite], rtol=1e-12, atol=1e-12), g.label


@given(
    d=st.sampled_from([1, 2, 3, 4, 8]),
    n=st.integers(1, 300),
    stacked=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_ns_overlaps_match_the_stacked_product(d, n, stacked, seed):
    # one (N d, d) @ (d, d) product gives the bits of the per-state products
    rng = np.random.default_rng(seed)
    states = np.array([random_state(rng, d) for _ in range(n if stacked else 1)])
    lam, e = _spectral(states if stacked else states[0])
    mu, f = _spectral(random_state(rng, d))
    overlap = np.abs(np.swapaxes(e, -1, -2).conj() @ f) ** 2
    overlap = np.where(overlap < 1e-20, 0.0, overlap).reshape(-1, d, d)
    P, Q = _ns_rows((lam, e), (mu, f))
    assert np.array_equal(P, (lam.reshape(-1, d)[:, :, np.newaxis] * overlap).reshape(-1, d * d))
    assert np.array_equal(Q, (mu[np.newaxis, :] * overlap).reshape(-1, d * d))


@sample_sizes(**FAST)
def test_quantum_eta_identity_and_replacer():
    kl = make_generator("kl")
    est, _ = quantum_eta_estimate(identity_channel(2), MAXMIX2, kl)
    assert est == pytest.approx(1.0, abs=1e-9)
    rep = replacer_channel(MAXMIX2)
    est, _ = quantum_eta_estimate(rep, np.diag([0.7, 0.3]).astype(complex), kl)
    assert est <= 1e-9


def test_quantum_eta_closed_form_channels():
    pc = make_generator("pearson_chi2")
    # depolarizing: E(rho) - I/2 = (1-lam)(rho - I/2), so every feasible state
    # achieves exactly (1-lam)^2
    for lam in (0.3, 0.6):
        est, _ = quantum_eta_estimate(depolarizing_channel(2, lam), MAXMIX2, pc)
        assert est == pytest.approx((1.0 - lam) ** 2, abs=1e-9)
    # dephasing keeps the z component of the Bloch vector: the sup is 1,
    # attained by any diagonal input
    est, _ = quantum_eta_estimate(dephasing_channel(2), MAXMIX2, pc)
    assert est == pytest.approx(1.0, abs=1e-9)


def test_quantum_eta_embedded_bsc_matches_classical():
    pc = make_generator("pearson_chi2")
    channel = classical_embedding(bsc(0.3))
    est, _ = quantum_eta_estimate(channel, MAXMIX2, pc)
    exact = classical_eta_chi2(bsc(0.3), np.array([0.5, 0.5]))
    assert est == pytest.approx(exact, abs=1e-6)


@sample_sizes(**FAST)
def test_quantum_eta_bounds_dominate_estimate():
    kl = make_generator("kl")
    channel = classical_embedding(bsc(0.25))
    est, _ = quantum_eta_estimate(channel, MAXMIX2, kl)
    nonlinear, linear = quantum_eta_bounds(channel, MAXMIX2, kl)
    assert math.isinf(nonlinear)  # KL has f''(0+) = inf
    assert linear is not None and est <= linear + 1e-9
    pc = make_generator("pearson_chi2")
    nonlinear, linear = quantum_eta_bounds(channel, MAXMIX2, pc)
    est_pc, _ = quantum_eta_estimate(channel, MAXMIX2, pc)
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
    est_sq, _ = quantum_eta_estimate(EE, sigma, pc)
    est_1, _ = quantum_eta_estimate(E, sigma, pc)
    est_2, _ = quantum_eta_estimate(E, sigma_out, pc)
    assert est_sq <= est_1 * est_2 + 1e-3


@sample_sizes(**FAST)
def test_quantum_rate_profile_depolarizing():
    # eta for the n-fold depolarizing channel is exactly ((1-lam)^2)^n, so the
    # root profile sits at the single-step coefficient within the envelope
    kl = make_generator("kl")
    lam = 0.4
    eta_one = (1.0 - lam) ** 2
    for n in (1, 2, 3):
        effective = 1.0 - (1.0 - lam) ** n
        En = depolarizing_channel(2, effective)
        est, _ = quantum_eta_estimate(En, MAXMIX2, kl)
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


def amplitude_damping(gamma):
    """Qubit amplitude damping: decay toward the pure fixed point |0><0|."""
    a, b = math.sqrt(1.0 - gamma), math.sqrt(gamma)
    return KrausChannel(kraus=(np.array([[1.0, 0.0], [0.0, a]]), np.array([[0.0, b], [0.0, 0.0]])))


@pytest.mark.parametrize("delta", [0.25, 0.01])
@pytest.mark.parametrize("kind", ["amplitude-damping", "pure-replacer"])
def test_quantum_mixing_times_refuse_a_rank_deficient_fixed_point(kind, delta):
    # every start off supp pi has an infinite Petz chi^2, so eta_chi2 at a
    # pure pi bounds nothing: amplitude damping at gamma = 0.3 has eta_chi2
    # = 0 there, yet |1><1| is still 0.7^n away after n steps
    channel = amplitude_damping(0.3) if kind == "amplitude-damping" else replacer_channel(PLUS)
    assert channel_structure(channel).mixing
    with pytest.raises(ValueError, match="full-support"):
        quantum_mixing_time_bounds(channel, delta, make_generator("kl"))
    with pytest.raises(ValueError, match="full-support"):
        quantum_mixing_time_bounds(channel, delta)
    if kind == "amplitude-damping":
        assert petz_eta_chi2(channel, np.diag([1.0, 0.0])) == 0.0
        rho = np.diag([0.0, 1.0]).astype(complex)
        for _ in range(4):
            rho = apply_channel(channel, rho)
        assert trace_distance(rho, np.diag([1.0, 0.0])) == pytest.approx(0.7**4)


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
        scores = ratio_scores(
            g,
            _divergence_rows(g, P, Q, rounding_error=True),
            _ns_rows(_spectral(outputs), _spectral(sigma_out)),
        )
        for k, rho in enumerate(states):
            ns = _ns_rows(_spectral(rho), _spectral(sigma))
            one = ratio_scores(
                g,
                _divergence_rows(g, *ns, rounding_error=True),
                _ns_rows(_spectral(apply_channel(channel, rho)), _spectral(sigma_out)),
            )
            assert scores[k] == pytest.approx(one[0], rel=1e-12, abs=1e-15), g.label
            assert values[k] == pytest.approx(
                petz_f_divergence(g, rho, sigma), rel=1e-12, abs=1e-15
            ), g.label


@pytest.mark.parametrize("d", [2, 3, 4])
@sample_sizes(**FAST)
def test_petz_chi2_estimate_not_above_exact_depolarizing(d):
    # every feasible input of depolarizing(lam) has ratio exactly (1-lam)^2;
    # rounding noise in the sampled ratios must not lift the estimate above
    # it.  pearson_chi2 itself is exact, so its sampled twin runs the sampler
    pc = make_generator("pearson_chi2")
    for lam in (0.1, 0.3, 0.5, 0.7, 0.9):
        channel, sigma = depolarizing_channel(d, lam), np.eye(d) / d
        est, _ = quantum_eta_estimate(channel, sigma, sampled_twin(pc))
        exact = petz_eta_chi2(channel, sigma)
        assert exact == pytest.approx((1.0 - lam) ** 2, abs=1e-12)
        assert est <= (1.0 - lam) ** 2, (lam, est)
        assert est <= exact + 1e-9, (lam, est, exact)
        assert est == pytest.approx((1.0 - lam) ** 2, rel=1e-9)
        assert quantum_eta_estimate(channel, sigma, pc)[0] == exact


def test_petz_estimate_warns_where_eta_f_can_be_infinite():
    # chi_alpha at alpha = 2.5 has f''(1) = 0: along sigma + t (P0 - P1),
    # P_k sigma's eigenprojectors, the input divergence is O(t^2.5) and the
    # output's O(t^2), so the ratio grows without bound as t -> 0 and any
    # finite estimate is set by how near sigma the cloud reaches.  kl and
    # lins at theta = 0 (f'' = 0 flagged constant: D_f = 0) do not warn
    channel = random_kraus(np.random.default_rng(4), 2)
    sigma = channel_structure(channel).fixed_point
    chi = make_generator("chi_alpha", alpha=2.5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est, _ = quantum_eta_estimate(channel, sigma, chi)
    assert [str(w.message) for w in caught] == [UNBOUNDED_WARNING]
    _, f = np.linalg.eigh(sigma)
    direction = np.outer(f[:, 0], f[:, 0].conj()) - np.outer(f[:, 1], f[:, 1].conj())
    ratios = []
    for t in (1e-2, 1e-3, 1e-4, 1e-5):
        rho = sigma + t * direction
        out = petz_f_divergence(chi, apply_channel(channel, rho), apply_channel(channel, sigma))
        ratios.append(out / petz_f_divergence(chi, rho, sigma))
    assert np.all(np.diff(ratios) > 0.0) and ratios[-1] > 2.0 * est > 0.0
    lins0 = make_generator("lins", theta=0.0)
    for g, expected in ((make_generator("kl"), []),
                        (lins0, ["no feasible input found; estimate 0"])):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            quantum_eta_estimate(channel, sigma, g)
        assert [str(w.message) for w in caught] == expected, g.label


@pytest.mark.parametrize("name, warned", [
    ("chi_alpha:alpha=2.5", True), ("chi_alpha:alpha=3", True), ("one_sided_chi2", False),
])
def test_petz_estimate_warns_only_where_f2_is_not_monotone(name, warned):
    # f''(1) = 0 in all three; a monotone f'' that is 0 at 1 vanishes on
    # one side of 1 only, and one_sided_chi2's is 2 below 1, where the
    # input divergence stays second order: its ratio along
    # sigma +- t (P0 - P1) stays bounded as t -> 0, and it does not warn
    channel = random_kraus(np.random.default_rng(4), 2)
    sigma = channel_structure(channel).fixed_point
    g = from_spec(name)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est, _ = quantum_eta_estimate(channel, sigma, g)
    assert est > 0.0
    assert [str(w.message) for w in caught] == ([UNBOUNDED_WARNING] if warned else [])
    if not warned:
        _, f = np.linalg.eigh(sigma)
        direction = np.outer(f[:, 0], f[:, 0].conj()) - np.outer(f[:, 1], f[:, 1].conj())
        ratios = [petz_f_divergence(g, apply_channel(channel, rho), apply_channel(channel, sigma))
                  / petz_f_divergence(g, rho, sigma)
                  for t in (1e-2, 1e-3, 1e-4, 1e-5) for rho in (sigma + t * direction,
                                                                sigma - t * direction)]
        assert max(ratios) < 0.25


@pytest.mark.parametrize("name", ["kl", "reverse_kl"])
def test_petz_estimate_keeps_no_cloud_ns_rows_through_the_climb(name, monkeypatch):
    # the cloud's NS rows, inputs and outputs, are 4 d^2 floats per state
    # against the state's d^2 complex entries: at the climb's start only the
    # cloud, its denominators and the refine draws may still be traced,
    # under twice the cloud (1.45 times it here; all rows kept read 4.5).
    # The build values a block of half the kernel's rows at a time, its
    # inputs before its outputs, whose rows go into one array, so its traced
    # peak, one block's temporaries over the cloud and that array, is no
    # higher than the engine's (0.99 times it here; 1.085 with blocks of
    # the kernel's rows, 1.133 with both sides of a block alive at once)
    import tracemalloc

    from divlab import contraction

    rng = np.random.default_rng(201)
    channel = random_kraus(rng, 4)
    sigma = channel_structure(channel).fixed_point
    g = make_generator(name)
    seen, peaks, climbs, sampled = [], [], contraction._climbs, quantum._sampled

    def traced(cloud, *rest):
        seen.append((tracemalloc.get_traced_memory()[0], cloud.nbytes))
        return climbs(cloud, *rest)

    def engine(*args):
        # the peak so far, then the peak of the engine's own run
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        out = sampled(*args)
        peaks.append(tracemalloc.get_traced_memory()[1])
        return out

    monkeypatch.setattr(contraction, "_climbs", traced)
    monkeypatch.setattr(quantum, "_sampled", engine)
    quantum_eta_estimate(channel, sigma, g)  # builds the channel's caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        quantum_eta_estimate(channel, sigma, g)
    finally:
        tracemalloc.stop()
    (alive, cloud_bytes), = seen[1:]
    assert alive - base < 2 * cloud_bytes, (alive - base, cloud_bytes)
    before, inside = (peak - base for peak in peaks[2:])
    assert before <= inside, (before, inside)


# every registry generator whose f'' is a positive constant
_QUADRATIC = ("pearson_chi2", "hellinger:alpha=2", "renyi_gain:alpha=2")


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 3, 4]),
    st.sampled_from(["full", "rank-deficient"]),
    st.sampled_from(_QUADRATIC),
)
@settings(max_examples=40, deadline=None)
def test_quadratic_petz_estimate_is_exact(seed, d, kind, spec):
    # the value is petz_eta_chi2 bit for bit; the witness is a state << sigma
    # whose ratio is that value, or None for a pure sigma
    rng = np.random.default_rng(seed)
    channel = random_kraus(rng, d, int(rng.integers(1, 4)))
    rank = d if kind == "full" else int(rng.integers(1, d))
    sigma = random_state(rng, d, rank=rank)
    g = from_spec(spec)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value, rho = quantum_eta_estimate(channel, sigma, g)
    assert value == petz_eta_chi2(channel, sigma)
    if rank == 1:
        assert value == 0.0 and rho is None
        assert [str(w.message) for w in caught] == ["no feasible input found; estimate 0"]
        return
    assert not caught
    rho = check_density_matrix(rho)
    assert petz_chi2(rho, sigma) < math.inf
    ratio = petz_f_divergence(g, apply_channel(channel, rho), apply_channel(channel, sigma)) / (
        petz_f_divergence(g, rho, sigma))
    assert ratio == pytest.approx(value, rel=1e-6, abs=1e-12)


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
    pc = make_generator("pearson_chi2")
    with warnings.catch_warnings(), sample_sizes(**FAST):
        warnings.simplefilter("ignore")  # a pure sigma has no feasible input
        est, _ = quantum_eta_estimate(channel, sigma, sampled_twin(pc))
        assert quantum_eta_estimate(channel, sigma, pc)[0] == exact
    assert est <= exact + 1e-9
    # a classical channel embedded as Kraus operators keeps its coefficient
    W = rng.dirichlet(np.ones(d), size=d).T
    pi, _ = stationary_distribution(W)
    assert petz_eta_chi2(classical_embedding(W), np.diag(pi)) == pytest.approx(
        classical_eta_chi2(W, pi), abs=1e-10
    )


# ---------------------------------------------------------------------------
# the exact local floor under the sampled Petz estimates

# generators with f''(1) finite and positive; the first four are operator
# convex with a certified Pinsker constant, so they have upper bounds too
_FLOOR_GENERATORS = ("kl", "reverse_kl", "squared_hellinger", "jensen_shannon",
                     "hellinger:alpha=0.5", "neyman_chi2", "jeffrey", "triangular")


def floor_sigma(rng, d, kind):
    """A state of dimension d: full rank, rank d - 1 ("deficient"), or full
    rank with two eigenvalues within a relative 1e-9 to 1e-2 ("near")."""
    U = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    mu = rng.dirichlet(np.ones(d))
    if kind == "deficient":
        mu[rng.integers(d)] = 0.0
    elif kind == "near":
        i, j = rng.choice(d, 2, replace=False)
        mu[j] = mu[i] * (1.0 + 10.0 ** rng.uniform(-9.0, -2.0))
    sigma = (U * (mu / mu.sum())) @ U.conj().T
    return 0.5 * (sigma + sigma.conj().T)


def floor_refs(channel, sigma):
    return _spectral(sigma), _spectral(apply_channel(channel, sigma))


def petz_chi2_form_oracle(channel, sigma):
    """The Petz chi^2 form (T, e_in, l_in) as built before the weight rule
    was a parameter: ``petz_eta_chi2``'s matrix, bit for bit."""

    def support(rho):
        eigs, vecs = _spectral(rho)
        keep = eigs > 0.0
        form = 0.5 / eigs[keep]
        return vecs[:, keep], np.add.outer(form, form).ravel()

    e_in, l_in = support(sigma)
    e_out, l_out = support(apply_channel(channel, sigma))
    left, right = np.kron(e_out.conj().T, e_out.T), np.kron(e_in, e_in.conj())
    S = left @ channel.superoperator() @ right
    return np.sqrt(l_out)[:, np.newaxis] * S / np.sqrt(l_in), e_in, l_in


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([1, 2, 3, 4]),
    rank=st.sampled_from(["full", "deficient"]),
)
@settings(max_examples=40, deadline=None)
def test_floor_chi2_weights_give_the_chi2_form_bit_for_bit(seed, d, rank):
    rng = np.random.default_rng(seed)
    channel = random_kraus(rng, d, int(rng.integers(1, 4)))
    sigma = random_state(rng, d, rank=d if rank == "full" or d == 1 else d - 1)
    got = _petz_form(channel, floor_refs(channel, sigma), _chi2_weights)
    for a, b in zip(got, petz_chi2_form_oracle(channel, sigma)):
        assert np.array_equal(a, b)


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([2, 3, 4]),
    kind=st.sampled_from(["full", "near"]),
    name=st.sampled_from(_FLOOR_GENERATORS),
)
@settings(max_examples=40, deadline=None)
def test_floor_weights_match_finite_differences(seed, d, kind, name):
    # D_f(sigma + e X || sigma) / e^2 -> sum_ij w_ij |X_ij|^2 in sigma's
    # eigenbasis, with an O(e) error: at 1e-3 of the positivity limit it was
    # at most 1e-3 over 4,000 draws (closer steps meet the divergences'
    # rounding: up to 1.7e-3 at 1e-4 of the limit when mu_min ~ 4e-5)
    rng = np.random.default_rng(seed)
    sigma = floor_sigma(rng, d, kind)
    g = from_spec(name)
    mu, f = _spectral(sigma)
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    X = A + A.conj().T
    X -= np.trace(X).real / d * np.eye(d)
    # the step: a thousandth of the limit that keeps sigma + e X positive
    root = 1.0 / np.sqrt(mu)
    Xe = f.conj().T @ X @ f
    e = 1e-3 / max(abs(np.linalg.eigvalsh(root[:, np.newaxis] * Xe * root)))
    form = float(np.sum(_f_weights(g, mu) * np.abs(Xe) ** 2))
    assert petz_f_divergence(g, sigma + e * X, sigma) / e**2 == pytest.approx(form, rel=3e-3)


@pytest.mark.parametrize("name", _FLOOR_GENERATORS)
def test_floor_series_branch_is_continuous_across_its_threshold(name):
    # mu_1 = m (1 + delta) against mu_2 = m: the series limit
    # f''(1) (1/mu_1 + 1/mu_2) / 4 just inside the relative gap _SERIES_GAP
    # (|mu_1 - mu_2| <= gap mu_1) and the quotient just outside it agree to
    # O(gap^2) and the quotient's cancellation, far below 1e-6
    g = from_spec(name)
    f2 = float(g.f2(1.0))

    def series(a, b):
        return 0.25 * f2 * (1.0 / a + 1.0 / b)

    def quotient(a, b):
        return (b * g.f(a / b) + a * g.f(b / a)) / (2.0 * (a - b) ** 2)

    edge = _SERIES_GAP / (1.0 - _SERIES_GAP)  # delta = gap (1 + delta)
    for m in (1e-9, 1e-3, 0.3):
        a_in, a_out = m * (1.0 + edge * (1 - 1e-6)), m * (1.0 + edge * (1 + 1e-6))
        w_in, w_out = _f_weights(g, np.array([a_in, m])), _f_weights(g, np.array([a_out, m]))
        assert w_in[0, 1] == w_in[1, 0] == series(a_in, m)
        assert w_out[0, 1] == w_out[1, 0] == quotient(a_out, m)
        assert w_out[0, 1] == pytest.approx(series(a_out, m), rel=1e-6), m
        assert w_in[0, 1] == pytest.approx(w_out[0, 1], rel=1e-6), m


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([2, 3, 4]),
    kind=st.sampled_from(["full", "deficient", "near"]),
    name=st.sampled_from(_FLOOR_GENERATORS),
)
@settings(max_examples=40, deadline=None)
def test_floor_ratio_along_the_seed_direction_tends_to_the_floor(seed, d, kind, name):
    # the first seed sits at 1e-3 of the positivity limit along the floor
    # direction; at a fraction e of that limit the Petz ratio is the floor
    # up to O(e), so its relative error shrinks about tenfold per decade of
    # e, down to the divergences' rounding.  Over 3,000 draws the error was
    # at most 100 e (neyman_chi2 at a near-degenerate sigma) and the
    # rounding at most 1e-5 at e = 1e-3 and 1.2e-3 at e = 1e-4
    rng = np.random.default_rng(seed)
    channel = random_kraus(rng, d, int(rng.integers(1, 4)))
    sigma = floor_sigma(rng, d, "full" if kind == "deficient" and d == 2 else kind)
    g = from_spec(name)
    floor, seeds = _floor_seeds(sigma, channel, floor_refs(channel, sigma), g)
    X = (seeds[0] - sigma) / 1e-3
    out = apply_channel(channel, sigma)
    errors = []
    for e in (1e-2, 1e-3, 1e-4):
        rho = sigma + e * X
        ratio = petz_f_divergence(g, apply_channel(channel, rho), out) / (
            petz_f_divergence(g, rho, sigma))
        errors.append(abs(ratio / floor - 1.0))
    assert errors[1] <= 0.2 * errors[0] + 1e-4, errors
    assert errors[2] <= min(0.2 * errors[0] + 2e-3, 2e-2), errors


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 5),
    name=st.sampled_from(_FLOOR_GENERATORS),
)
@settings(max_examples=40, deadline=None)
def test_floor_of_a_classical_embedding_is_eta_chi2(seed, n, name):
    # classically every f has the metric f''(1) chi^2 / 2, and a diagonal
    # sigma keeps the embedded channel's floor at eta_chi2(W, pi) (measured
    # to 1.1e-15 over 600 channels)
    rng = np.random.default_rng(seed)
    W = rng.dirichlet(np.full(n, 0.6), size=n).T
    pi, _ = stationary_distribution(W)
    channel, sigma = classical_embedding(W), np.diag(pi).astype(complex)
    floor, _ = _floor_seeds(sigma, channel, floor_refs(channel, sigma), from_spec(name))
    assert floor == pytest.approx(classical_eta_chi2(W, pi), rel=0.0, abs=1e-14)


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([1, 2, 3, 4]),
    kind=st.sampled_from(["full", "deficient", "near"]),
)
@settings(max_examples=60, deadline=None)
def test_metric_petz_eta_chi2_matches_the_values_only_route(seed, d, kind):
    # petz_eta_chi2 off sigma's vector by deflation against the second
    # singular value of the chi^2 form, at full-rank, rank-deficient (pure
    # at d = 2) and nearly degenerate sigma
    rng = np.random.default_rng(seed)
    channel = random_kraus(rng, d, int(rng.integers(1, 4)))
    sigma = floor_sigma(rng, d, "full" if d == 1 else kind)
    T = _petz_form(channel, floor_refs(channel, sigma), _chi2_weights)[0]
    check_against_values_only_route(petz_eta_chi2(channel, sigma), T)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_metric_zero_petz_eta_chi2_has_a_valid_witness(d):
    # a replacer to a full-rank state at a full-rank sigma: eta = 0, and
    # every direction off sigma attains it, so the witness is one of them
    rng = np.random.default_rng(d)
    channel, sigma = replacer_channel(random_state(rng, d)), random_state(rng, d)
    g = make_generator("pearson_chi2")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, rho = quantum_eta_estimate(channel, sigma, g)
    assert value == petz_eta_chi2(channel, sigma) == 0.0
    rho = check_density_matrix(rho)
    assert petz_chi2(rho, sigma) < math.inf and not np.allclose(rho, sigma)
    ratio = petz_f_divergence(g, apply_channel(channel, rho), apply_channel(channel, sigma)) / (
        petz_f_divergence(g, rho, sigma))
    assert ratio <= 1e-12


@pytest.mark.parametrize("name", ["kl", "one_sided_chi2", "lins:theta=0", "chi_alpha:alpha=1.5"])
@pytest.mark.parametrize("d", [2, 3])
def test_floor_no_seeds_for_a_pure_sigma_or_f2_at_one_zero_or_infinite(name, d):
    # kl on a pure sigma (supp sigma of dimension 1); f''(1) = 0
    # (one_sided_chi2, lins at theta = 0) and f''(1) = inf (chi_alpha at
    # alpha = 1.5) on a full-rank one: no seeds, and not a single warning
    rng = np.random.default_rng(d)
    channel = random_kraus(rng, d, 2)
    sigma = random_state(rng, d, rank=1 if name == "kl" else d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        floor, seeds = _floor_seeds(sigma, channel, floor_refs(channel, sigma), from_spec(name))
    assert floor is None and seeds.shape == (0, d, d)


@pytest.mark.parametrize("kind", ["trace", "pure-replacer", "full-damping"])
@pytest.mark.parametrize("name", ["kl", "reverse_kl", "jensen_shannon"])
@sample_sizes(**FAST)
def test_floor_no_seeds_for_a_one_dimensional_output_support(kind, name):
    # supp E(sigma) of dimension 1: T is a single row along sigma's own
    # vector, so its value off that vector is rounding (below 1e-30 here),
    # no seeds are built, and the estimate of a channel with constant
    # output is 0
    rng = np.random.default_rng(7)
    d = 2 if kind == "full-damping" else 3
    channel = {
        "trace": lambda: KrausChannel(kraus=tuple(np.eye(d)[i : i + 1] for i in range(d))),
        "pure-replacer": lambda: replacer_channel(random_state(rng, d, rank=1)),
        # amplitude damping at gamma = 1: every state to |0><0|
        "full-damping": lambda: KrausChannel(
            kraus=(np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [0.0, 0.0]]))),
    }[kind]()
    sigma = random_state(rng, d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        floor, seeds = _floor_seeds(sigma, channel, floor_refs(channel, sigma), from_spec(name))
        est, _ = quantum_eta_estimate(channel, sigma, from_spec(name))
    assert 0.0 <= floor < 1e-30 and seeds.shape == (0, d, d)
    assert est == 0.0


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([2, 3, 4]),
    kind=st.sampled_from(["full", "deficient", "near"]),
    name=st.sampled_from(_FLOOR_GENERATORS),
)
@settings(max_examples=40, deadline=None)
def test_floor_under_the_sampled_estimate_and_upper_bounds_over_it(seed, d, kind, name):
    # (1 - 1e-4) floor <= estimate <= every upper bound + 1e-9
    rng = np.random.default_rng(seed)
    channel = random_kraus(rng, d, int(rng.integers(1, 4)))
    sigma = floor_sigma(rng, d, "full" if kind == "deficient" and d == 2 else kind)
    g = from_spec(name)
    floor, _ = _floor_seeds(sigma, channel, floor_refs(channel, sigma), g)
    with sample_sizes(**FAST):
        est, witness = quantum_eta_estimate(channel, sigma, g)
    assert est >= (1.0 - 1e-4) * floor
    check_density_matrix(witness)
    if g.operator_convex and g.pinsker_constant is not None:
        for bound in quantum_eta_bounds(channel, sigma, g):
            assert bound is None or est <= bound + 1e-9
