import dataclasses
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from divlab import chi2bounds, contraction, quantum
from divlab.chi2bounds import kappa_bounds
from divlab.contraction import (
    _candidate_inputs,
    _kappa_up_sup,
    contraction_rate_profile,
    convergence_bound,
    eta_chi2,
    eta_f_estimate,
    eta_f_upper_bounds,
    mixing_time_bounds,
)
from divlab.divergence import _clamp, _divergence_rows, as_prob_vec, chi_squared, f_divergence
from divlab.generators import default_registry, make_generator
from divlab.markov import _channel, as_channel, bsc, stationary_distribution

from conftest import (
    bump_generator,
    check_against_values_only_route,
    random_kraus,
    random_state,
    ratio_scores,
    sample_sizes,
    sampled_twin,
    singular_bump_generator,
)

UNIFORM2 = np.array([0.5, 0.5])
# the sampling sizes of the quick tests
FAST = {"n_samples": 100, "refine_steps": 40}


def _ratios(g, W, q, P):
    """Scores of D_f(Wp || Wq) / D_f(p || q) for every row p of P; the rows
    of a rectangular W's inputs and outputs are padded to one width."""
    width = max(W.shape)

    def pad(A):
        return np.pad(A, [(0, 0)] * (A.ndim - 1) + [(0, width - A.shape[-1])])

    m = len(P)
    refs = np.repeat(np.stack([pad(_clamp(q)), pad(_clamp(W @ q))]), m, axis=0)
    rows = _clamp(np.concatenate([pad(P), pad(P @ W.T)]))
    value, error = _divergence_rows(g, rows, refs, rounding_error=True)
    return contraction._scores((value[m:], error[m:]), (value[:m], error[:m]))


def constant_channel(n, target=0):
    W = np.zeros((n, n))
    W[target, :] = 1.0
    return W


def test_eta_chi2_bsc_closed_form():
    for p in (0.05, 0.1, 0.25, 0.3, 0.45):
        assert eta_chi2(bsc(p), UNIFORM2) == pytest.approx(
            (1.0 - 2.0 * p) ** 2, abs=1e-10
        )


def test_eta_chi2_edge_channels():
    assert eta_chi2(constant_channel(3), np.ones(3) / 3) == 0.0
    rng = np.random.default_rng(3)
    q = rng.dirichlet(4.0 * np.ones(4))
    q = 0.9 * q + 0.025
    assert eta_chi2(np.eye(4), q) == pytest.approx(1.0, abs=1e-10)


def test_eta_chi2_skewed_chain_frozen_oracle_value():
    # frozen from a 236k-sample brute-force ratio-sup oracle with local
    # refinement, which agrees with the singular-value route to 2e-16
    W = np.array([[0.6, 0.1, 0.3], [0.3, 0.8, 0.2], [0.1, 0.1, 0.5]])
    from divlab.markov import stationary_distribution

    pi, _ = stationary_distribution(W)
    assert eta_chi2(W, pi) == pytest.approx(0.29688562855494777, abs=1e-12)


def test_eta_chi2_degenerate_reference():
    with pytest.warns(UserWarning):
        value = eta_chi2(bsc(0.3), np.array([1.0, 0.0]))
    assert value == 0.0


def test_eta_chi2_bounded_by_one():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        W = rng.dirichlet(np.ones(n), size=n).T
        q = rng.dirichlet(np.ones(n))
        value = eta_chi2(W, q)
        assert -1e-12 <= value <= 1.0 + 1e-9


def test_eta_chi2_below_one_for_scrambling_instances():
    from divlab.markov import structure

    uniform_off_diag = (np.ones((4, 4)) - np.eye(4)) / 3.0
    rng = np.random.default_rng(7)
    dense = rng.dirichlet(np.ones(3), size=3).T + 0.05
    dense /= dense.sum(axis=0)
    for W in (bsc(0.1), bsc(0.45), uniform_off_diag, dense):
        assert structure(W).scrambling
        q = np.ones(W.shape[0]) / W.shape[0]
        assert eta_chi2(W, q) < 1.0 - 1e-6


@sample_sizes(**FAST)
def test_eta_f_estimate_identity_and_constant():
    kl = make_generator("kl")
    est, _ = eta_f_estimate(np.eye(2), UNIFORM2, kl)
    assert est == pytest.approx(1.0, abs=1e-9)
    with pytest.warns(UserWarning):
        est, _ = eta_f_estimate(constant_channel(2), np.array([1.0, 0.0]), kl)
    assert est == 0.0
    # constant channel with interior reference: ratio is zero everywhere
    est, _ = eta_f_estimate(constant_channel(2), UNIFORM2, kl)
    assert est == pytest.approx(0.0, abs=1e-12)


def test_eta_f_estimate_pearson_matches_exact():
    pc = make_generator("pearson_chi2")
    est, witness = eta_f_estimate(bsc(0.3), UNIFORM2, pc)
    assert est == pytest.approx(0.16, abs=1e-6)
    assert witness is not None


@sample_sizes(**FAST)
def test_eta_f_at_least_eta_chi2_on_binary_grid(registry):
    # exhaustive grid on the binary simplex makes the estimate essentially
    # exact; generators with f''(1) > 0 dominate the chi-squared coefficient
    W = bsc(0.2)
    exact = eta_chi2(W, UNIFORM2)
    for g in registry:
        if float(g.f2(1.0)) <= 0.0:
            continue
        est, _ = eta_f_estimate(W, UNIFORM2, g)
        assert est >= exact - 1e-6, g.label


@sample_sizes(**FAST)
def test_eta_f_upper_bounds_dominate_estimate():
    kl = make_generator("kl")
    W = bsc(0.25)
    est, _ = eta_f_estimate(W, UNIFORM2, kl)
    nonlinear, linear = eta_f_upper_bounds(W, UNIFORM2, kl)
    assert est <= nonlinear + 1e-9
    assert linear is not None and est <= linear + 1e-9


def test_hellinger_linear_bound_closed_form():
    # the worked example: with the family-uniform constant L = 4, the linear
    # bound evaluates to 2 (1-2p)^2 for every alpha in (1, 2)
    for alpha in (1.25, 1.5, 1.75):
        g = make_generator("hellinger", alpha=alpha)
        for p in (0.1, 0.3):
            _, linear = eta_f_upper_bounds(bsc(p), UNIFORM2, g, pinsker_constant=4.0)
            assert linear == pytest.approx(2.0 * (1.0 - 2.0 * p) ** 2, abs=1e-9)


def test_linear_bound_requires_conditions():
    rkl = make_generator("reverse_kl")  # f(0+) infinite
    _, linear = eta_f_upper_bounds(bsc(0.2), UNIFORM2, rkl)
    assert linear is None
    with pytest.raises(ValueError):
        eta_f_upper_bounds(bsc(0.2), UNIFORM2, make_generator("lins", theta=0.0))


def test_nonlinear_bound_dominates_exact_chi2():
    pc = make_generator("pearson_chi2")
    rng = np.random.default_rng(11)
    for _ in range(10):
        W = rng.dirichlet(np.ones(3), size=3).T
        q = rng.dirichlet(5.0 * np.ones(3))
        q = 0.9 * q + 0.1 / 3
        nonlinear, _ = eta_f_upper_bounds(W, q, pc)
        assert nonlinear >= eta_chi2(W, q) - 1e-9


@sample_sizes(**FAST)
def test_submultiplicativity_binary():
    kl = make_generator("kl")
    W = bsc(0.2)
    q = np.array([0.35, 0.65])
    est_sq, _ = eta_f_estimate(W @ W, q, kl)
    est_1, _ = eta_f_estimate(W, q, kl)
    est_2, _ = eta_f_estimate(W, W @ q, kl)
    assert est_sq <= est_2 * est_1 + 1e-3


def test_rate_profile_reversible_pearson_is_flat():
    pc = make_generator("pearson_chi2")
    profile = contraction_rate_profile(bsc(0.3), pc, 6)
    for pt in profile:
        assert pt.eta_f_root == pytest.approx(0.16, abs=1e-4)
        assert pt.within_envelope


@sample_sizes(**FAST)
def test_rate_profile_constant_channel_is_zero():
    kl = make_generator("kl")
    with pytest.warns(UserWarning):
        profile = contraction_rate_profile(constant_channel(3), kl, 3)
    for pt in profile:
        assert pt.eta_f_root == 0.0


def test_rate_profile_preconditions():
    kl = make_generator("kl")
    with pytest.raises(ValueError):
        contraction_rate_profile(bsc(0.3), kl, 1)
    two_cycle = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        contraction_rate_profile(two_cycle, kl, 4)
    with pytest.raises(ValueError):
        contraction_rate_profile(np.eye(3), kl, 4)


def test_convergence_bound_bsc_example():
    tv, general, full = convergence_bound(bsc(0.3), UNIFORM2, np.array([1.0, 0.0]), 5)
    assert tv == pytest.approx(0.5 * 0.4**5, abs=1e-12)
    assert tv <= general + 1e-9
    assert tv <= full + 1e-9
    # chi2(e0 || uniform) = 1, so the general bound is exactly eta^(n/2)/2
    assert general == pytest.approx(0.5 * 0.16 ** (5 / 2), rel=1e-10)


def test_convergence_bound_trivial_and_vacuous():
    tv, general, full = convergence_bound(bsc(0.3), UNIFORM2, UNIFORM2, 3)
    assert tv == 0.0 and general == 0.0 and math.isfinite(full)
    absorbing = np.array([[1.0, 1.0], [0.0, 0.0]])
    with pytest.warns(UserWarning):  # stationary e0 is a degenerate reference
        tv, general, full = convergence_bound(
            absorbing, np.array([1.0, 0.0]), np.array([0.0, 1.0]), 2
        )
    assert math.isinf(general) and math.isinf(full)
    with pytest.raises(ValueError):
        convergence_bound(bsc(0.3), np.array([0.7, 0.3]), UNIFORM2, 2)


def test_convergence_bound_transient_state_has_no_full_support_bound():
    # state 2 is transient: pi puts no mass on it, and a mass below
    # SUPPORT_EPSILON counts as none, so only the general bound is finite
    W = np.array([[0.7, 0.3, 0.5], [0.3, 0.7, 0.5], [0.0, 0.0, 0.0]])
    p = np.array([0.8, 0.2, 0.0])
    for pi in ([0.5, 0.5, 0.0], [0.5, 0.5 - 1e-13, 1e-13]):
        tv, general, full = convergence_bound(W, np.array(pi), p, 3)
        assert math.isinf(full)
        assert math.isfinite(general) and tv <= general + 1e-12


def test_mixing_time_bsc_quarter():
    kl = make_generator("kl")
    report = mixing_time_bounds(bsc(0.25), 0.01, kl)
    assert report.tv_bound == 7
    assert report.empirical_tv == 6
    assert report.empirical_within_bound
    assert report.f_bound == 5
    assert report.empirical_f is not None and report.empirical_f <= report.f_bound


def test_mixing_time_empirical_f_decay_verified():
    # empirical KL decay on BSC(0.25): first n with worst-case KL <= 0.01
    kl = make_generator("kl")
    pi = UNIFORM2
    n = 0
    W = bsc(0.25)
    state = np.eye(2)
    while True:
        worst = max(f_divergence(kl, state[:, x], pi) for x in range(2))
        if worst <= 0.01:
            break
        state = W @ state
        n += 1
    report = mixing_time_bounds(W, 0.01, kl)
    assert report.empirical_f == n
    assert n <= report.f_bound


def test_mixing_time_large_delta_floors_at_zero():
    report = mixing_time_bounds(bsc(0.25), 1.5)
    assert report.tv_bound == 0
    assert report.empirical_tv == 0


@pytest.mark.parametrize("delta, f_bound", [(5.0, 0), (3.0, 1)])
def test_mixing_f_bound_at_eta_zero_reads_its_target(delta, f_bound):
    # a rank-one chain (pi = (1/2, 1/2)) and the replacer channel of I/2 have
    # eta_chi2 = 0: a bound is 1, or 0 where its log target is not positive,
    # as with eta = 1e-12.  KL's f target is ln(4 / delta) for the chain and
    # ln(8 / delta) for the channel, the TV and td targets negative at both
    # deltas
    kl = make_generator("kl")
    chain = mixing_time_bounds(np.outer([0.5, 0.5], [1.0, 1.0]), delta, kl)
    channel = quantum.quantum_mixing_time_bounds(
        quantum.replacer_channel(np.eye(2) / 2), 9.0 if f_bound == 0 else 5.0, kl)
    for report in (chain, channel):
        assert report.eta_chi2 == 0.0
        bound, f_bound_read, _, empirical_f = dataclasses.astuple(report)[:4]
        assert (bound, f_bound_read, empirical_f) == (0, f_bound, 0)
    W = np.array([[0.5 + 1e-6, 0.5 - 1e-6], [0.5 - 1e-6, 0.5 + 1e-6]])  # eta = 4e-12
    assert mixing_time_bounds(W, delta, kl).f_bound == f_bound


def test_mixing_time_tiny_delta_gets_finite_bounds():
    # 1/x and 2/(delta pi_min) overflow at delta = 1e-320; the log targets
    # are sums of logs instead
    report = mixing_time_bounds(bsc(0.25), 1e-320, make_generator("kl"))
    # tv: 2 ln(1/delta) / ln(1/eta) with pi_min = 1/2, eta = 1/4
    assert report.tv_bound == math.ceil(-math.log(1e-320) / math.log(2.0))
    assert report.f_bound is not None and 0 < report.f_bound < report.tv_bound


def test_mixing_time_preconditions():
    with pytest.raises(ValueError):
        mixing_time_bounds(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.01)  # eta = 1
    with pytest.raises(ValueError):
        mixing_time_bounds(np.eye(2), 0.01)  # not unique
    for bad in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            mixing_time_bounds(bsc(0.25), bad)
    with pytest.raises(ValueError):
        mixing_time_bounds(constant_channel(2), 0.01)  # pi not full support
    with pytest.raises(ValueError):
        # f-divergence bound demands finite f(0+)
        mixing_time_bounds(bsc(0.25), 0.01, make_generator("reverse_kl"))


@st.composite
def full_support_chains(draw):
    """Dense chains with Dirichlet columns, or sparse ones with a self-loop,
    a cycle edge and one more entry per column: irreducible and aperiodic,
    so pi has full support."""
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.dirichlet(np.full(n, draw(st.sampled_from([0.5, 1.0, 3.0]))), size=n).T
    W = np.zeros((n, n))
    for x in range(n):
        rows = np.unique([x, (x + 1) % n, rng.integers(n)])
        W[rows, x] = rng.dirichlet(np.ones(rows.size))
    return W


def _random_channel(rng, d: int, rank: int) -> quantum.KrausChannel:
    """A channel whose outputs live on the first ``rank`` basis states: Kraus
    operators from a random isometry into them, padded with zero rows."""
    k = max(2, -(-d // rank)) + int(rng.integers(2))
    A = rng.normal(size=(k * rank, d)) + 1j * rng.normal(size=(k * rank, d))
    V = np.linalg.qr(A)[0]
    return quantum.KrausChannel(kraus=tuple(
        np.pad(V[i * rank : (i + 1) * rank], [(0, d - rank), (0, 0)]) for i in range(k)
    ))


@st.composite
def channels_and_fixed_point_rank(draw):
    """A channel on d in {2, 3} and the rank of its fixed point: a random
    channel onto all of C^d or onto a block of it, whose complement decays,
    or generalized amplitude damping (rank 2 for p < 1, rank 1 at p = 1)."""
    d = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if d == 2 and draw(st.booleans()):
        gamma, p = draw(st.floats(0.05, 0.95)), draw(st.sampled_from([0.2, 0.5, 0.8, 1.0]))
        a, b = math.sqrt(1.0 - gamma), math.sqrt(gamma)
        ops = [math.sqrt(p) * np.array([[1.0, 0.0], [0.0, a]]),
               math.sqrt(p) * np.array([[0.0, b], [0.0, 0.0]]),
               math.sqrt(1.0 - p) * np.array([[a, 0.0], [0.0, 1.0]]),
               math.sqrt(1.0 - p) * np.array([[0.0, 0.0], [b, 0.0]])]
        return quantum.KrausChannel(kraus=tuple(ops)), 1 if p == 1.0 else 2
    rank = draw(st.integers(1, d))
    return _random_channel(rng, d, rank), rank


@given(
    chain=full_support_chains(),
    channel=channels_and_fixed_point_rank(),
    delta=st.sampled_from([0.01, 0.05, 0.25]),
    spec=st.sampled_from([None, "kl", "pearson_chi2", "squared_hellinger", "jensen_shannon"]),
)
@settings(max_examples=150, deadline=None)
def test_mixing_engine_bounds_hold_for_chains_and_channels(chain, channel, delta, spec):
    # both adapters of the one mixing-time engine: wherever a scan runs, the
    # probes' empirical times are within their bounds, and the report's
    # within flag says exactly that of the distance scan; a channel whose
    # fixed point lacks full rank gets no bound
    g = make_generator(spec) if spec else None
    channel, rank = channel
    assume(quantum.channel_structure(channel).mixing)
    if rank < channel.dim_in:
        with pytest.raises(ValueError, match="full-support"):
            quantum.quantum_mixing_time_bounds(channel, delta, g)
        reports = [mixing_time_bounds(chain, delta, g)]
    else:
        reports = [mixing_time_bounds(chain, delta, g),
                   quantum.quantum_mixing_time_bounds(channel, delta, g)]
    for report in reports:
        bound, f_bound, empirical, empirical_f = dataclasses.astuple(report)[:4]
        assert empirical is not None and empirical <= bound
        assert (f_bound is None) == (g is None)
        if g is not None:
            assert empirical_f is not None and empirical_f <= f_bound
        assert report.empirical_within_bound == (empirical is not None and empirical <= bound)


@pytest.mark.parametrize("seed, match", [
    (-1, "seed must be at least 0"),
    (2.5, "seed must be an integer"),
    # a budget object, which the estimates once took in place of a seed
    (types.SimpleNamespace(n_samples=400, seed=0, refine_steps=200), "seed must be an integer"),
])
def test_seed_validation(seed, match):
    # every sampled estimate gates its seed at the boundary, on the exact
    # route of a quadratic generator too
    channel, sigma = quantum.depolarizing_channel(2, 0.5), np.eye(2) / 2
    for g in (make_generator("kl"), make_generator("pearson_chi2")):
        for call in (lambda: eta_f_estimate(bsc(0.3), UNIFORM2, g, seed),
                     lambda: contraction_rate_profile(bsc(0.3), g, 2, seed),
                     lambda: quantum.quantum_eta_estimate(channel, sigma, g, seed)):
            with pytest.raises(ValueError, match=match):
                call()


@sample_sizes(n_samples=150, refine_steps=30)
def test_determinism_same_seed():
    kl = make_generator("kl")
    W = np.array(
        [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.2, 0.2, 0.6]]
    )
    q = np.array([0.3, 0.4, 0.3])
    a = eta_f_estimate(W, q, kl, 42)
    b = eta_f_estimate(W, q, kl, 42)
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])


# ---------------------------------------------------------------------------
# batched kappa sup against the per-candidate kappa_bounds loop


def _loop_kappa_sup(g, outputs, Wq):
    sup = -math.inf
    for row in outputs:
        sup = max(sup, kappa_bounds(g, row, Wq).kappa_up)
        if math.isinf(sup):
            break
    return sup


def _kappa_generators(registry):
    return registry + [make_generator("chi_alpha", alpha=2.5), bump_generator()]


def _check_kappa_parity(g, W, q):
    # the vertex maximum against the loop over the sampled candidate cloud,
    # restricted to the inputs p << q that the bounds range over
    cloud = _candidate_inputs(q.shape[0], q, 0)
    cloud = cloud[cloud[:, q <= 0.0].sum(axis=1) == 0.0]
    assert _kappa_up_sup(g, W, q) == _loop_kappa_sup(g, cloud @ W.T, W @ q), g.label


@sample_sizes(**FAST)
def test_kappa_sup_matches_kappa_bounds_loop(registry):
    rng = np.random.default_rng(31)
    for n in (2, 3, 5):
        W = rng.dirichlet(np.ones(n), size=n).T
        q = rng.dirichlet(2.0 * np.ones(n))
        q_zero = q.copy()
        q_zero[-1] = 0.0
        q_zero /= q_zero.sum()
        for g in _kappa_generators(registry):
            _check_kappa_parity(g, W, q)
            # W maps the last input only to the last output, which Wq misses;
            # that input is outside supp q, so it does not count
            _check_kappa_parity(g, np.eye(n), q_zero)


@sample_sizes(**FAST)
def test_kappa_sup_chunked_non_monotone(monkeypatch):
    # one candidate row per block of the 1025-point t-grid
    monkeypatch.setattr(chi2bounds, "_CHUNK_ENTRIES", 4000)
    rng = np.random.default_rng(37)
    W = rng.dirichlet(np.ones(3), size=3).T
    q = np.array([0.2, 0.3, 0.5])
    for g in (make_generator("chi_alpha", alpha=2.5), bump_generator()):
        _check_kappa_parity(g, W, q)
    # f''(0+) = inf with a zero output ratio gives +inf, as in kappa_bounds
    sing = singular_bump_generator()
    _check_kappa_parity(sing, np.eye(3), q)
    assert _kappa_up_sup(sing, np.eye(3), q) == math.inf


def test_kappa_sup_vacuous_when_clamped_output_escapes():
    # (Wq)_2 = 0.6 * 1.5e-12 is clamped to zero while the vertex output
    # W[2, 1] = 0.6 is not: the row reads as escaping supp Wq, and the sup
    # is +inf, a vacuous bound, not a "requires p << q" error
    W = np.array([[1.0, 0.4, 0.0], [0.0, 0.0, 1.0], [0.0, 0.6, 0.0]])
    q = np.array([0.5, 1.5e-12, 0.5 - 1.5e-12])
    triangular = make_generator("triangular")
    assert _kappa_up_sup(triangular, W, q) == math.inf
    nonlinear, _ = eta_f_upper_bounds(W, q, triangular)
    assert nonlinear == math.inf


# ---------------------------------------------------------------------------
# rounding-corrected ratio scores


def test_estimate_not_above_exact_on_chain_powers():
    # near the reference, plain ratios carry rounding noise of up to ~1e-6
    # above the exact coefficient; the scores are net of their rounding
    # bound.  pearson_chi2 itself is exact, so its sampled twin is scored
    kl = make_generator("kl")
    pc = sampled_twin(make_generator("pearson_chi2"))
    rng = np.random.default_rng(41)
    for _ in range(3):
        p = float(rng.uniform(0.05, 0.45))
        W = bsc(p)
        for n in range(1, 7):
            est, _ = eta_f_estimate(np.linalg.matrix_power(W, n), UNIFORM2, kl)
            assert est <= (1.0 - 2.0 * p) ** (2 * n) + 1e-9, (p, n)
        a, b = rng.uniform(0.05, 0.6, size=2)
        W = np.array([[1.0 - a, b], [a, 1.0 - b]])
        pi, _ = stationary_distribution(W)
        for n in range(1, 7):
            Wn = np.linalg.matrix_power(W, n)
            est, _ = eta_f_estimate(Wn, pi, pc)
            assert est <= eta_chi2(Wn, pi) + 1e-9, (a, b, n)


# generator formulas evaluated in extended precision
_LONGDOUBLE_F = {
    "kl": lambda t: t * np.log(t),
    "reverse_kl": lambda t: -np.log(t),
    "pearson_chi2": lambda t: t * t - 1,
    "neyman_chi2": lambda t: 1 / t - 1,
    "jeffrey": lambda t: (t - 1) * np.log(t),
    "squared_hellinger": lambda t: (np.sqrt(t) - 1) ** 2 / 2,
    "jensen_shannon": lambda t: (t * np.log(t) - (t + 1) * np.log((t + 1) / 2)) / 2,
    "triangular": lambda t: (t - 1) ** 2 / (t + 1),
}


def _longdouble_divergence(g, f, P, q):
    """Rows of D_f(P[k] || q) in longdouble, for q of full support."""
    P = np.where(P < 1e-12, 0, P)
    inner = P > 0
    t = np.where(inner, P / q, 1)
    value = np.where(inner, q * f(t), 0).sum(axis=1)
    mass = np.where(inner, 0, q + 0 * P).sum(axis=1)
    hit = mass > 0
    value[hit] += mass[hit] * np.longdouble(g.f_at_zero)
    return value


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps == np.finfo(float).eps,
    reason="longdouble is no wider than float64 on this platform",
)
@sample_sizes(**FAST)
def test_ratio_scores_below_longdouble_oracle():
    rng = np.random.default_rng(43)
    for n in (2, 3, 8):
        W = rng.dirichlet(np.ones(n), size=n).T
        q = 0.9 * rng.dirichlet(3.0 * np.ones(n)) + 0.1 / n
        near = [q + d * (np.eye(n)[i] - q) for d in 10.0 ** -np.arange(2, 8) for i in range(n)]
        P = np.vstack([_candidate_inputs(n, q, 0)] + near)
        Wl, ql, Pl = (x.astype(np.longdouble) for x in (W, q, P))
        for name, f in _LONGDOUBLE_F.items():
            g = make_generator(name)
            scores = _ratios(g, W, q, P)
            feasible = np.isfinite(scores)
            assert feasible.sum() > len(near), (name, n)
            num = _longdouble_divergence(g, f, Pl[feasible] @ Wl.T, Wl @ ql)
            den = _longdouble_divergence(g, f, Pl[feasible], ql)
            assert np.all(scores[feasible] <= num / den), (name, n)


# ---------------------------------------------------------------------------
# the batched refine against the step-by-step climb


def hill_climb_sequential(scores, cloud, propose, seed, steps, scale, all_scores=None):
    """Oracle for ``_climbs``: the climb that scores one proposal per
    call, ``steps`` times from a generator seeded ``seed + 1``.
    ``propose(current, rng, scale)`` moves the best input so far or
    returns None, and the scale shrinks by 0.98 per move.  The cloud is
    scored block by block unless its scores are given."""
    if all_scores is None:
        block = max(1, (1 << 12) // cloud[0].size)
        all_scores = np.concatenate(
            [scores(cloud[s : s + block]) for s in range(0, len(cloud), block)]
        )
    k = int(np.argmax(all_scores))
    best = float(all_scores[k])
    if best == -math.inf:
        warnings.warn("no feasible input found; estimate 0")
        return 0.0, None
    rng = np.random.default_rng(seed + 1)
    current = cloud[k].copy()
    for _ in range(steps):
        prop = propose(current, rng, scale)
        if prop is None:
            continue
        r = float(scores(prop[np.newaxis])[0])
        if r > best:
            best, current = r, prop
        scale *= 0.98
    return max(best, 0.0), current


def eta_f_estimate_sequential(W, q, g, seed, accepted=None):
    """``eta_f_estimate`` through the step-by-step climb, at the sizes of
    the module constants; ``accepted`` collects the refine scores that beat
    the best so far."""
    W, q = as_channel(W), as_prob_vec(q)
    n, stream, steps = q.shape[0], None, contraction._REFINE_STEPS

    def propose(current, rng, scale):
        # step k reads row k of the pairs and share k, drawn as two blocks
        nonlocal stream
        if stream is None:
            stream = zip(rng.integers(0, n, size=(steps, 2)), rng.random(steps))
        (i, j), u = next(stream)
        if i == j:
            return None
        move = scale * u * min(1.0, current[i])
        prop = current.copy()
        prop[i] -= move
        prop[j] += move
        prop = np.maximum(prop, 0.0)
        return prop / prop.sum()

    def scores(P):
        out = _ratios(g, W, q, P)
        if accepted is not None and len(P) == 1 and out[0] > max(accepted, default=-math.inf):
            accepted.append(float(out[0]))
        return out

    cloud = _candidate_inputs(n, q, seed)
    if accepted is not None:
        accepted.append(float(np.max(_ratios(g, W, q, cloud))))
    return hill_climb_sequential(scores, cloud, propose, seed, steps, 0.25)


def _petz_cloud_scores(channel, sigma, g, seed):
    """The scorer of the Petz estimate's ratios, one stack of states at a
    time, and the candidate cloud with the scores of all its rows.  NS rows
    of inputs and outputs are padded to one width."""
    sigma = quantum.check_density_matrix(sigma)
    sigma_out = quantum.apply_channel(channel, sigma)
    d = sigma.shape[0]
    spectral = quantum._spectral
    width = max(channel.dim_in, channel.dim_out) ** 2

    def padded(rows):
        return [np.pad(A, [(0, 0), (0, width - A.shape[1])]) for A in rows]

    def scores(states, spec=None):
        outputs = quantum.apply_channel(channel, states)
        # the references diagonalised on every call: the estimate's single
        # eigh of each must give the same bits
        den = _divergence_rows(
            g, *padded(quantum._ns_rows(spec or spectral(states), spectral(sigma))),
            rounding_error=True,
        )
        return ratio_scores(
            g, den, padded(quantum._ns_rows(spectral(outputs), spectral(sigma_out))))

    refs = spectral(sigma), spectral(sigma_out)
    cloud, _ = quantum._candidate_states(
        sigma, seed, quantum._floor_seeds(sigma, channel, refs, g)[1])
    # each segment a |f_i><f_i| + (1 - a) |f_j><f_j| between sigma's
    # eigenvectors f is scored from its spectrum a e_i + (1 - a) e_j; the
    # states before them through eigh
    a = np.linspace(0.0, 1.0, quantum._EIGENBASIS_GRID)
    lam = []
    for i in range(d):
        for j in range(i + 1, d):
            for t in a:
                row = np.zeros(d)
                row[i], row[j] = t, 1 - t
                lam.append(row)
    haar = len(cloud) - len(lam)
    all_scores = np.concatenate([
        scores(cloud[:haar]),
        scores(cloud[haar:], (np.array(lam).reshape(-1, d), spectral(sigma)[1])),
    ])
    return scores, cloud, all_scores


def quantum_eta_estimate_sequential(channel, sigma, g, seed):
    d, stream, steps = channel.dim_in, None, quantum._REFINE_STEPS

    def propose(current, rng, weight):
        # step k reads share k and Haar state k, drawn as two blocks
        nonlocal stream
        if stream is None:
            stream = zip(rng.random(steps), rng.normal(size=(steps, 1, 2, d)))
        u, raw = next(stream)
        prop = (1.0 - weight * u) * current
        psi = quantum._pure_states(raw)[0]
        return prop + (1.0 - np.trace(prop).real) * psi

    scores, cloud, all_scores = _petz_cloud_scores(channel, sigma, g, seed)
    return hill_climb_sequential(scores, cloud, propose, seed, steps, 0.3, all_scores)


def assert_same_climb(batched, sequential):
    """Bit-equal (best, witness) and the same warnings from both calls."""
    results = []
    for call in (batched, sequential):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results.append((call(), [str(w.message) for w in caught]))
    ((best, witness), msgs), ((best_s, witness_s), msgs_s) = results
    assert msgs == msgs_s
    assert best == best_s
    if witness_s is None:
        assert witness is None
    else:
        assert witness.shape == witness_s.shape
        assert np.array_equal(witness, witness_s)


def _random_chain(rng, n, sparse):
    if not sparse:
        return rng.dirichlet(np.ones(n), size=n).T
    # a self-loop, the next state and up to four more per column
    W = np.zeros((n, n))
    for x in range(n):
        rows = np.unique(np.r_[x, (x + 1) % n, rng.integers(0, n, size=4)])
        W[rows, x] = rng.dirichlet(np.ones(rows.size))
    return W


# generators whose estimates climb: a quadratic one (f'' constant) is exact
# and takes no climb
_CLIMB_GENERATORS = {
    "kl": make_generator("kl"),
    "hellinger": make_generator("hellinger", alpha=2.5),
    "chi_alpha": make_generator("chi_alpha", alpha=1.5),
}


@given(
    n=st.sampled_from([2, 3, 8, 64]),
    name=st.sampled_from(sorted(_CLIMB_GENERATORS)),
    reference=st.sampled_from(["full", "zero-entry", "point-mass"]),
    sparse=st.booleans(),
    refine_steps=st.sampled_from([0, 1, 200]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_batched_climb_matches_sequential(n, name, reference, sparse, refine_steps, seed):
    rng = np.random.default_rng(seed)
    W = _random_chain(rng, n, sparse)
    q = 0.8 * rng.dirichlet(np.ones(n)) + 0.2 / n
    if reference == "zero-entry":
        q[rng.integers(n)] = 0.0
        q /= q.sum()
    elif reference == "point-mass":
        q = np.eye(n)[rng.integers(n)]
    seed = int(rng.integers(1 << 31))
    g = _CLIMB_GENERATORS[name]
    with sample_sizes(n_samples=100, refine_steps=refine_steps):
        assert_same_climb(
            lambda: eta_f_estimate(W, q, g, seed),
            lambda: eta_f_estimate_sequential(W, q, g, seed),
        )


@pytest.mark.parametrize(
    "n, sparse, name, seed",
    [(2, False, "chi_alpha", 35), (8, True, "kl", 8), (64, True, "hellinger", 0)],
)
def test_batched_climb_matches_sequential_across_windows(n, sparse, name, seed):
    # cases with several acceptances, so windows end at an accepted
    # proposal and restart from it
    rng = np.random.default_rng(seed)
    W = _random_chain(rng, n, sparse)
    pi, _ = stationary_distribution(W)
    g = _CLIMB_GENERATORS[name]
    accepted = []
    assert_same_climb(
        lambda: eta_f_estimate(W, pi, g, 5),
        lambda: eta_f_estimate_sequential(W, pi, g, 5, accepted),
    )
    assert len(accepted) >= 3  # the cloud's best and at least two moves


def test_climb_window_width_adapts(monkeypatch):
    # a 64-state chain whose climb accepts often: the first window holds the
    # 64-row block, a window shrinks to max(8, 2 (t + 1)) after an acceptance
    # at offset t and doubles after one without, and the climb stays the
    # step-by-step one
    rng = np.random.default_rng(65)
    W = _random_chain(rng, 64, True)
    pi, _ = stationary_distribution(W)
    g = _CLIMB_GENERATORS["hellinger"]
    widths = []
    build = contraction._build_moves

    def recording(current, draws, scales):
        # one climb: each round builds one window
        widths.append(len(scales))
        return build(current, draws, scales)

    monkeypatch.setattr(contraction, "_build_moves", recording)
    assert_same_climb(
        lambda: eta_f_estimate(W, pi, g, 5),
        lambda: eta_f_estimate_sequential(W, pi, g, 5),
    )
    assert widths[0] == 64
    # only windows cut short by the end of the stream hold fewer than 8
    steps = np.diff([w for w in widths if w >= 8])
    assert (steps > 0).sum() >= 2 and (steps < 0).sum() >= 2


@given(
    d=st.sampled_from([2, 3]),
    d_out=st.sampled_from(["square", "wider", "narrower"]),
    rank=st.sampled_from(["full", "deficient", "pure"]),
    name=st.sampled_from(["kl", "hellinger"]),
    refine_steps=st.sampled_from([0, 1, 120]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_batched_quantum_climb_matches_sequential(d, d_out, rank, name, refine_steps, seed):
    # rectangular channels pad the NS rows of inputs and outputs to one width
    rng = np.random.default_rng(seed)
    sigma = random_state(rng, d, {"full": d, "deficient": d - 1, "pure": 1}[rank])
    d_out = d + {"square": 0, "wider": 1, "narrower": -1}[d_out]
    channel = random_kraus(rng, d, k=2, d_out=d_out)
    seed = int(rng.integers(1 << 31))
    g = _CLIMB_GENERATORS[name]
    with sample_sizes(n_haar=100, petz_refine_steps=refine_steps):
        assert_same_climb(
            lambda: quantum.quantum_eta_estimate(channel, sigma, g, seed),
            lambda: quantum_eta_estimate_sequential(channel, sigma, g, seed),
        )


@given(seed=st.integers(0, 2**32 - 1), refine_steps=st.integers(0, 60))
@settings(max_examples=50, deadline=None)
def test_climbs_narrow_windows(seed, refine_steps):
    # inputs of 1024 entries make windows of 4 proposals, narrower than
    # _MIN_WINDOW, so every width rule meets the block-size cap
    rng = np.random.default_rng(seed)
    direction = np.zeros(1024)
    direction[:2] = (1.0, -1.0)
    target = rng.uniform(0.0, 1.0, size=2)
    cloud = np.zeros((8, 1024))
    cloud[:, :2] = rng.uniform(0.0, 0.9, size=(8, 2))

    def scores(P):
        return -((P[:, :2] - target) ** 2).sum(axis=1)

    def propose(current, rng, scale):
        return current + scale * (rng.random() - 0.5) * direction

    def build(current, draws, scales):
        return current + (scales * (draws[0] - 0.5))[:, np.newaxis] * direction

    stream = np.random.default_rng(seed + 1)
    draws = (np.array([stream.random() for _ in range(refine_steps)]),)
    top = int(np.argmax(scores(cloud)))
    assert_same_climb(
        lambda: contraction._climbs(
            cloud, [(float(scores(cloud)[top]), top)], draws, build, lambda P, _: scores(P), 0.5
        )[0],
        lambda: hill_climb_sequential(scores, cloud, propose, seed, refine_steps, 0.5),
    )


# numerators and denominators of the scorer's edge cases: zero, below and at
# NUMERATOR_NOISE_FLOOR, at and just above the 1e-12 denominator window,
# repeated values for ties, and infinities
_EDGE_NUMS = [0.0, 5e-14, 1e-13, 0.25, 0.5, 1.0, math.inf]
_EDGE_DENS = [0.0, 1e-12, 2e-12, 0.5, 1.0, math.inf]
_EDGE_ERRORS = [0.0, 1e-16, 1e-3]


@given(st.lists(
    st.tuples(
        st.one_of(st.sampled_from(_EDGE_NUMS), st.floats(0.0, 2.0)),
        st.one_of(st.sampled_from(_EDGE_ERRORS), st.floats(0.0, 1e-2)),
        st.one_of(st.sampled_from(_EDGE_DENS), st.floats(0.0, 2.0)),
        st.one_of(st.sampled_from(_EDGE_ERRORS), st.floats(0.0, 1e-2)),
    ),
    min_size=1, max_size=40,
))
@settings(max_examples=300, deadline=None)
def test_lazy_start_is_the_first_maximum_of_the_scores(rows):
    # ties, rows of -inf, numerators below the noise floor and denominators
    # at most 1e-12: the lazy start is np.max and np.argmax of the scores.
    # The row of largest ratio is scored alone first; a second call scores
    # the other rows whose ratio reaches its score, and no row twice
    num, e_num, den, e_den = map(np.array, zip(*rows))
    scores = contraction._scores((num, e_num), (den, e_den))
    feasible, r, _ = contraction._raw_ratios(num, den)
    ratios = np.where(feasible, r, -math.inf)
    calls = []

    def exact(k):
        calls.append(k.tolist())
        return contraction._scores((num[k], e_num[k]), (den[k], e_den[k]))

    start = contraction._lazy_start(ratios, exact)
    top = int(np.argmax(scores))
    assert start == (float(scores[top]), top)
    first = int(np.argmax(ratios))
    others = [i for i in np.flatnonzero(~(ratios < scores[first])) if i != first]
    assert calls == [[first]] + ([others] if others else [])


@given(
    n=st.sampled_from([2, 3, 8, 64]),
    name=st.sampled_from(sorted(_CLIMB_GENERATORS)),
    reference=st.sampled_from(["full", "zero-entry", "point-mass"]),
    channel=st.sampled_from(["dense", "sparse", "identity", "constant"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_cloud_start_is_the_first_maximum_of_ratio_scores(n, name, reference, channel, seed):
    # the chain cloud in one block (3 and 8 states) and many (2 states: 2
    # blocks, 64 states: 17); the identity ties every ratio at 1, a
    # constant channel leaves every numerator at zero
    rng = np.random.default_rng(seed)
    W = {"identity": np.eye(n), "constant": constant_channel(n)}.get(channel)
    if W is None:
        W = _random_chain(rng, n, channel == "sparse")
    q = 0.8 * rng.dirichlet(np.ones(n)) + 0.2 / n
    if reference == "zero-entry":
        q[rng.integers(n)] = 0.0
        q /= q.sum()
    elif reference == "point-mass":
        q = np.eye(n)[rng.integers(n)]
    g = _CLIMB_GENERATORS[name]
    seed = int(rng.integers(1 << 31))
    with sample_sizes(refine_steps=0):
        (cloud, starts), = _engine_starts(lambda: eta_f_estimate(W, q, g, seed))
    # the block products of the cloud, which a product over all rows at
    # once may round differently from
    block = contraction._block_rows(cloud)
    WP = np.concatenate([cloud[s : s + block] @ W.T for s in range(0, len(cloud), block)])
    den = _divergence_rows(g, _clamp(cloud), _clamp(q), rounding_error=True)
    scores = ratio_scores(g, den, (_clamp(WP), _clamp(W @ q)))
    assert np.array_equal(cloud, _candidate_inputs(n, q, seed))
    assert starts == [(float(np.max(scores)), int(np.argmax(scores)))]


@given(
    d=st.sampled_from([2, 3, 4]),
    d_out=st.sampled_from(["square", "wider"]),
    rank=st.sampled_from(["full", "deficient", "pure"]),
    name=st.sampled_from(sorted(_CLIMB_GENERATORS)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_petz_cloud_start_is_the_first_maximum_of_ratio_scores(d, d_out, rank, name, seed):
    # the Petz cloud, floor seeds and sigma-eigenbasis segments included,
    # at full-rank, rank-deficient and pure sigma
    rng = np.random.default_rng(seed)
    sigma = random_state(rng, d, {"full": d, "deficient": d - 1, "pure": 1}[rank])
    channel = random_kraus(rng, d, k=2, d_out=d + (d_out == "wider"))
    seed = int(rng.integers(1 << 31))
    g = _CLIMB_GENERATORS[name]
    with sample_sizes(n_haar=100, petz_refine_steps=0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            (cloud, starts), = _engine_starts(
                lambda: quantum.quantum_eta_estimate(channel, sigma, g, seed))
        _, expected, scores = _petz_cloud_scores(channel, sigma, g, seed)
    assert np.array_equal(cloud, expected)
    assert starts == [(float(np.max(scores)), int(np.argmax(scores)))]


def _engine_starts(call):
    """The (cloud, starts) that the sampling engine hands each ``_climbs``
    call in ``call()``."""
    seen, climbs = [], contraction._climbs

    def recording(cloud, starts, *rest):
        seen.append((cloud, starts))
        return climbs(cloud, starts, *rest)

    contraction._climbs = recording
    try:
        call()
    finally:
        contraction._climbs = climbs
    return seen


def test_scores_of_certified_generators_cannot_be_nan():
    # a score r - (e_num + |r| e_den) / den is NaN only where a rounding
    # bound is NaN or infinite or r overflows.  Scored rows are clamped, so
    # every ratio t = p / q of their entries lies in [1e-12, 1e12]; there
    # every certified generator has f and t f'(t) finite and far below
    # overflow, so the bounds and r are finite and no score is NaN
    t = np.logspace(-12.0, 12.0, 4801)
    for g in default_registry():
        ft, tf1 = g.f(t), t * g.f1(t)
        assert np.all(np.abs(ft) < 1e100) and np.all(np.abs(tf1) < 1e100), g.label


def _draw_moves_filtered(rng, n, steps):
    """The refine stream's two block draws with the steps i == j filtered
    out one step at a time: the reference for ``_draw_moves``."""
    pairs, shares = rng.integers(0, n, size=(steps, 2)), rng.random(steps)
    i, j, u = [], [], []
    for (a, b), share in zip(pairs.tolist(), shares.tolist()):
        if a != b:
            i.append(a)
            j.append(b)
            u.append(share)
    return np.array(i, dtype=np.intp), np.array(j, dtype=np.intp), np.array(u, dtype=np.float64)


# 2^31 + 1 rejects a bounded draw with chance about 1/2
@pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 512, 3000, 2**31 + 1])
@given(steps=st.integers(0, 300), seed=st.integers(0, 2**64 - 1))
@settings(max_examples=40, deadline=None)
def test_draw_moves_matches_block_draws(n, steps, seed):
    # the same moves of the same dtypes as a twin generator's, each pair
    # i != j, and the generator left where the twin's two draws leave it
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got, expected = contraction._draw_moves(rng, n, steps), _draw_moves_filtered(ref, n, steps)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert np.all(got[0] != got[1])
    assert rng.bit_generator.state == ref.bit_generator.state


# ---------------------------------------------------------------------------
# one cloud and one refine stream per chain report


@given(
    n=st.sampled_from([2, 3, 8, 64]),
    name=st.sampled_from(sorted(_CLIMB_GENERATORS)),
    reference=st.sampled_from(["full", "zero-entry"]),
    refine_steps=st.sampled_from([0, 1, 200]),
    profile_n=st.sampled_from([1, 3]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_chain_context_matches_independent_estimates(
    n, name, reference, refine_steps, profile_n, seed
):
    # with profile_n = 3 the estimates on W, W^2 and W^3 climb side by side;
    # with 1, the one on W climbs alone
    rng = np.random.default_rng(seed)
    W = _random_chain(rng, n, sparse=False)
    if reference == "zero-entry":
        # no state moves into state 0, so pi_0 = 0
        W[0] = 0.0
        W /= W.sum(axis=0)
    g = _CLIMB_GENERATORS[name]
    seed = int(rng.integers(1 << 31))
    with sample_sizes(n_samples=100, refine_steps=refine_steps):
        chain = contraction._ChainContext(as_channel(W), g, seed, profile_n)
        pi = chain.info.stationary
        n_max = 3
        powers = [chain.W, chain.W @ chain.W, chain.W @ chain.W @ chain.W]
        # the report's estimates, on W alone or on W, W^2, W^3 side by side,
        # against independent ones, warnings included
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ests = chain._estimates
        with warnings.catch_warnings(record=True) as caught_alone:
            warnings.simplefilter("always")
            alone = [eta_f_estimate(Wn, pi, g, seed) for Wn in powers[: len(ests)]]
        assert [str(w.message) for w in caught] == [str(w.message) for w in caught_alone]
        for est, one in zip(ests, alone):
            assert_same_climb(lambda: est, lambda: one)
        assert chain.estimate is ests[0]

        roots, Wn = [], chain.W
        for k in range(1, n_max + 1):
            if k > 1:
                Wn = Wn @ chain.W
            assert_same_climb(
                lambda: contraction._chain_estimates(g, pi, [Wn], seed)[0],
                lambda: eta_f_estimate(Wn, pi, g, seed),
            )
            est, _ = eta_f_estimate(Wn, pi, g, seed)
            roots.append(est ** (1.0 / k) if est > 0.0 else 0.0)
        if profile_n != n_max:
            chain = contraction._ChainContext(as_channel(W), g, seed, n_max)
        try:
            points = chain.profile()
        except ValueError:  # chi_alpha has no certified constant
            assert name == "chi_alpha"
            return
        assert [pt.eta_f_root for pt in points] == roots
        assert points[0].eta_f_root == chain.estimate[0]


# ---------------------------------------------------------------------------
# the exact route of quadratic generators

# every registry generator whose f'' is a positive constant
_QUADRATIC = {
    "pearson_chi2": make_generator("pearson_chi2"),
    "hellinger": make_generator("hellinger", alpha=2.0),
    "renyi_gain": make_generator("renyi_gain", alpha=2.0),
}


def test_exact_route_follows_the_generator_fact():
    # f'' constant and positive, by flag and value, never by name
    assert all(contraction._quadratic(g) for g in _QUADRATIC.values())
    others = [make_generator("lins", theta=0.0),  # f'' = 0
              make_generator("chi_alpha", alpha=2.0),  # f'' = 2, flagged unknown
              sampled_twin(_QUADRATIC["pearson_chi2"])]
    assert not any(contraction._quadratic(g) for g in others)
    registry = [make_generator(name) for name in ("kl", "neyman_chi2", "jensen_shannon")]
    assert not any(contraction._quadratic(g) for g in registry)


def _ratio_with_rounding(g, W, q, p):
    """D_f(Wp || Wq) / D_f(p || q) from the kernel, and the bound
    (e_num + ratio e_den) / den on its rounding error."""
    (num,), (e_num,) = _divergence_rows(g, _clamp(W @ p)[np.newaxis], _clamp(W @ q),
                                        rounding_error=True)
    (den,), (e_den,) = _divergence_rows(g, _clamp(p)[np.newaxis], _clamp(q),
                                        rounding_error=True)
    ratio = num / den
    return ratio, (e_num + ratio * e_den) / den


@given(
    n=st.sampled_from([2, 3, 8, 64]),
    name=st.sampled_from(sorted(_QUADRATIC)),
    reference=st.sampled_from(["full", "zero-entry", "point-mass"]),
    outputs=st.sampled_from([0, -1, 1]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_quadratic_estimate_is_exact_eta_chi2(n, name, reference, outputs, seed):
    # the value is eta_chi2 bit for bit on square (outputs = 0) and
    # rectangular channels; the witness is a probability vector << q whose
    # ratio is that value, and the sampled climb never exceeds it
    rng = np.random.default_rng(seed)
    W = rng.dirichlet(np.ones(n + outputs), size=n).T
    q = 0.8 * rng.dirichlet(np.ones(n)) + 0.2 / n
    if reference == "zero-entry":
        q[rng.integers(n)] = 0.0
        q /= q.sum()
    elif reference == "point-mass":
        q = np.eye(n)[rng.integers(n)]
    g = _QUADRATIC[name]
    seed = int(rng.integers(1 << 31))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value, witness = eta_f_estimate(W, q, g, seed)
        exact = eta_chi2(W, q)
    assert value == exact
    if np.count_nonzero(q) < 2:  # a point mass, or a zero entry at n = 2
        assert value == 0.0 and witness is None
        assert [str(w.message) for w in caught] == [
            "degenerate reference (all mass on one symbol); eta = 0"] * 2
        return
    assert not caught
    assert witness.shape == q.shape and np.all(witness >= 0.0)
    assert abs(witness.sum() - 1.0) <= 1e-12 and np.all(witness[q == 0.0] == 0.0)
    ratio, rounding = _ratio_with_rounding(g, W, q, witness)
    assert abs(ratio - value) <= 1e-9 * value + rounding, (ratio, value)
    with sample_sizes(**FAST):
        sampled, _ = eta_f_estimate_sequential(W, q, g, seed)
    assert sampled <= value + 1e-9


def test_quadratic_witness_sign_is_fixed():
    # the witness does not depend on the sign LAPACK gives the singular
    # vector: p - q has its largest entry in modulus positive along v2
    W = np.array([[0.7, 0.4], [0.3, 0.6]])
    pi = np.array([4.0, 3.0]) / 7.0
    _, witness = eta_f_estimate(W, pi, _QUADRATIC["pearson_chi2"])
    # v2 is proportional to (-sqrt(pi_1), sqrt(pi_0)), whose larger entry is
    # the second; the step halves pi_0
    assert witness == pytest.approx([2.0 / 7.0, 5.0 / 7.0], abs=1e-15)


# chains whose top singular value at q is repeated, s_2 = s_1 = 1: LAPACK
# may return a second right vector that is not orthogonal to sqrt(q)
_REPEATED_TOP = {
    "swap": (np.array([[0.0, 1.0], [1.0, 0.0]]), UNIFORM2),
    "identity": (np.eye(3), np.array([0.2, 0.3, 0.5])),
    "block-diagonal": (np.kron(np.eye(2), np.full((2, 2), 0.5)), np.full(4, 0.25)),
}


@pytest.mark.parametrize("name", sorted(_QUADRATIC))
@pytest.mark.parametrize("chain", sorted(_REPEATED_TOP))
def test_quadratic_witness_when_the_top_singular_value_repeats(chain, name):
    # the estimate is eta_chi2, and the witness a distribution other than q
    # whose chi^2 ratio is that value
    W, q = _REPEATED_TOP[chain]
    value, witness = eta_f_estimate(W, q, _QUADRATIC[name])
    assert value == eta_chi2(W, q) == 1.0
    assert np.all(witness >= 0.0) and abs(witness.sum() - 1.0) <= 1e-12
    assert not np.allclose(witness, q)
    ratio = chi_squared(W @ witness, W @ q) / chi_squared(witness, q)
    assert abs(ratio - value) <= 1e-12


@given(
    n=st.sampled_from([2, 3, 8, 64]),
    kind=st.sampled_from(["square", "rectangular", "zero-entry", "rank-one-power", "reducible"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_metric_eta_chi2_matches_the_values_only_route(n, kind, seed):
    # eta_chi2 off sqrt(q) by deflation against the second singular value
    # of the normalized joint, on square and rectangular channels, a
    # reference with a zero entry, powers that are rank one to rounding and
    # reducible chains, whose top value 1 repeats
    rng = np.random.default_rng(seed)
    outputs = n + int(rng.choice([-1, 1])) if kind == "rectangular" else n
    W = rng.dirichlet(np.ones(outputs), size=n).T
    q = rng.dirichlet(np.ones(n))
    if kind == "zero-entry":
        q[rng.integers(n)] = 0.0
        q /= q.sum()
        assume(np.count_nonzero(q) > 1)
    elif kind == "rank-one-power":
        W = np.linalg.matrix_power(W, int(rng.integers(20, 60)))
    elif kind == "reducible":
        k = int(rng.integers(1, n))
        W = np.zeros((n, n))
        W[:k, :k] = rng.dirichlet(np.ones(k), size=k).T
        W[k:, k:] = rng.dirichlet(np.ones(n - k), size=n - k).T
    M = contraction._normalized_joint(*_channel(W, q))[0]
    check_against_values_only_route(eta_chi2(W, q), M)


# eta_chi2 = 0 at a reference of two or more symbols: every direction off
# sqrt(q) attains it, so the witness is one of them
_ETA_ZERO = {
    "rank-one": (np.outer([0.2, 0.5, 0.3], np.ones(4)), np.array([0.4, 0.0, 0.35, 0.25])),
    "one-output": (np.ones((1, 3)), np.array([0.5, 0.3, 0.2])),
}


@pytest.mark.parametrize("chain", sorted(_ETA_ZERO))
def test_metric_zero_eta_chi2_has_a_valid_witness(chain):
    W, q = _ETA_ZERO[chain]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, witness = eta_f_estimate(W, q, _QUADRATIC["pearson_chi2"])
    assert value == eta_chi2(W, q) == 0.0
    assert np.all(witness >= 0.0) and abs(witness.sum() - 1.0) <= 1e-12
    assert np.all(witness[q == 0.0] == 0.0) and not np.allclose(witness, q)
    assert chi_squared(W @ witness, W @ q) / chi_squared(witness, q) <= 1e-12


@pytest.mark.parametrize("name", sorted(_QUADRATIC))
def test_quadratic_profile_reads_eta_chi2_of_the_powers(name):
    # every root is eta_chi2(W^n, pi)^(1/n), the n = 1 one being the
    # report's eta_chi2, inside its envelope; no estimate context is built
    rng = np.random.default_rng(7)
    W = _random_chain(rng, 8, sparse=True)
    g = _QUADRATIC[name]
    chain = contraction._ChainContext(as_channel(W), g, 0, 4)
    points = chain.profile()
    pi = chain.info.stationary
    assert chain.estimate[0] == chain.eta2 == eta_chi2(W, pi)
    Wn = chain.W
    for k, pt in enumerate(points, start=1):
        if k > 1:
            Wn = Wn @ chain.W
        assert pt.eta_f_root == eta_chi2(Wn, pi) ** (1.0 / k)
        assert pt.within_envelope
    assert "context" not in vars(chain)
    assert [w is None for _, w in chain._estimates] == [False, True, True, True]


def test_quadratic_profile_ignores_svd_noise_of_rank_one_powers():
    # lambda_2 = 1 - a - b = -9.7e-4, so W^6 is rank one to rounding: the
    # SVD gives it a second singular value of ~1e-17, noise whose root
    # (2.2e-6) would leave the envelope (1.1e-6); below numpy's rank
    # tolerance it counts as zero
    a, b = 0.5817566353559837, 0.4192141322738293
    W = np.array([[1.0 - a, b], [a, 1.0 - b]])
    pi, _ = stationary_distribution(W)
    assert eta_chi2(np.linalg.matrix_power(W, 6), pi) == 0.0
    profile = contraction_rate_profile(W, _QUADRATIC["pearson_chi2"], 6)
    assert all(pt.within_envelope for pt in profile)
    # s_2(W^5) = |lambda_2|^5 = 8.6e-16 sits a few eps above zero: the SVD's
    # absolute error of order eps s_1 (s_1 = 1) moves eta_f_root = s_2^(2/5)
    # by up to 1 - (1 - eps / s_2)^(2/5), about 11 %
    s2 = abs(a + b - 1.0) ** 5
    rel = 1.0 - (1.0 - np.finfo(float).eps / s2) ** 0.4
    assert profile[4].eta_f_root == pytest.approx((a + b - 1.0) ** 2, rel=rel)
    assert profile[5].eta_f_root == 0.0


@pytest.mark.parametrize("L", [math.inf, math.nan, 0.0, -1.0])
def test_unusable_pinsker_constant_gives_no_bounds(L):
    # every site that scales a bound by L reads one rule, 0 < L < inf: an
    # infinite or NaN constant made rate envelopes and chain upper bounds
    # of 0.0 or NaN, which the estimates then exceeded or never met
    g = dataclasses.replace(make_generator("kl"), pinsker_constant=L)
    with pytest.raises(ValueError, match="positive certified Pinsker constant"):
        eta_f_upper_bounds(bsc(0.2), UNIFORM2, g)
    with pytest.raises(ValueError, match="positive certified Pinsker constant"):
        quantum.quantum_eta_bounds(quantum.depolarizing_channel(2, 0.5), np.eye(2) / 2, g)
    with pytest.raises(ValueError, match="profile requires a positive certified constant"):
        contraction_rate_profile(bsc(0.2), g, 2)
    assert contraction._ChainContext(as_channel(bsc(0.2)), g, 0).upper_bounds() is None


def test_profile_rejects_drifting_power_but_keeps_the_estimate():
    # W passes the 1e-10 column-sum check while W^2 drifts past it: the
    # profile reports that input error, and the report's main estimate on W
    # is still made, alone
    W = np.array([[0.7, 0.4], [0.3, 0.6 + 7e-11]])
    kl = make_generator("kl")
    with pytest.raises(ValueError, match="columns must sum to one"):
        contraction_rate_profile(W, kl, 3)
    chain = contraction._ChainContext(as_channel(W), kl, 0, 3)
    assert len(chain._estimates) == 1
    assert chain.estimate[0] == 0.09066680103164763
    with pytest.raises(ValueError, match="columns must sum to one"):
        chain.profile()
