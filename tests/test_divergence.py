import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divlab import divergence
from divlab.divergence import (
    _divergence_rows,
    _gauss_legendre,
    as_prob_vec,
    as_weight_vec,
    chi_squared,
    f_divergence,
    f_divergence_rows,
    integral_representation,
    total_variation,
)
from divlab.generators import from_spec, make_generator, registry_names

from conftest import random_prob_pairs


def test_validation():
    with pytest.raises(ValueError):
        as_weight_vec([-0.5, 1.5])
    with pytest.raises(ValueError):
        as_prob_vec([0.5, 0.4])
    with pytest.raises(ValueError):
        f_divergence(make_generator("kl"), [0.5, 0.5], [0.2, 0.3, 0.5])
    # sub-epsilon entries become exact zeros
    v = as_weight_vec([1e-13, 1.0])
    assert v[0] == 0.0


def test_identity_is_zero(registry):
    p = np.array([0.2, 0.5, 0.3])
    for g in registry:
        assert f_divergence(g, p, p) == pytest.approx(0.0, abs=1e-12), g.label


def test_kl_examples():
    kl = make_generator("kl")
    assert f_divergence(kl, [1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2.0))
    assert f_divergence(kl, [0.5, 0.5], [1.0, 0.0]) == math.inf


def test_support_conventions_with_finite_limits():
    # squared Hellinger has f'(inf) = 1/2 and f(0+) = 1/2: both contribute
    sh = make_generator("squared_hellinger")
    value = f_divergence(sh, [1.0, 0.0], [0.0, 1.0])
    assert value == pytest.approx(0.5 + 0.5)


def test_total_variation_examples():
    assert total_variation([0.7, 0.3], [0.7, 0.3]) == 0.0
    assert total_variation([0.7, 0.3], [0.4, 0.6]) == pytest.approx(0.3)


def test_binary_equal_sum_tv_identity():
    # TV of (p, c-p) vs (q, c-q) is |p - q|
    rng = np.random.default_rng(5)
    for _ in range(50):
        c = rng.uniform(0.5, 3.0)
        a, b = rng.uniform(0.0, c, size=2)
        tv = total_variation([a, c - a], [b, c - b])
        assert tv == pytest.approx(abs(a - b), abs=1e-12)


def test_chi_squared_examples():
    assert chi_squared([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert chi_squared([0.7, 0.3], [0.5, 0.5]) == pytest.approx(0.16)
    assert chi_squared([0.5, 0.5], [1.0, 0.0]) == math.inf


def test_chi_squared_cross_evaluation():
    pc = make_generator("pearson_chi2")
    rng = np.random.default_rng(7)
    ps, qs = random_prob_pairs(rng, 200, 4)
    for p, q in zip(ps, qs):
        assert chi_squared(p, q) == pytest.approx(
            f_divergence(pc, p, q), rel=1e-11, abs=1e-13
        )


def test_data_processing_inequality(registry):
    rng = np.random.default_rng(13)
    for trial in range(500):
        n, m = rng.integers(2, 5, size=2)
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        W = rng.dirichlet(np.ones(m), size=n).T  # column-stochastic m x n
        g = registry[trial % len(registry)]
        before = f_divergence(g, p, q)
        after = f_divergence(g, W @ p, W @ q)
        if math.isinf(before):
            continue
        assert after <= before + 1e-10, g.label


def test_nonnegativity(registry):
    rng = np.random.default_rng(17)
    ps, qs = random_prob_pairs(rng, 100, 3)
    for g in registry:
        for p, q in zip(ps, qs):
            assert f_divergence(g, p, q) >= -1e-12, g.label


# absolute rounding slack on D: near t = 1 each term q f(p/q) carries an
# error of a few ulps of 1 (at most 4.2e-16 was seen on a 400 x 92 grid of
# eps and center), so 1e-14 leaves a wide margin
_DEFINITENESS_SLACK = 1e-14


@given(
    st.floats(min_value=1e-9, max_value=0.49),
    st.floats(min_value=0.05, max_value=0.95),
    st.sampled_from(["kl", "pearson_chi2", "jensen_shannon", "triangular"]),
)
@example(eps=6.103515625e-05, center=0.828125, name="jensen_shannon")
@settings(max_examples=300, deadline=None)
def test_definiteness_small_divergence_means_small_tv(eps, center, name):
    # strictly convex generators: a small D forces a small TV through the
    # certified Pinsker inequality D >= L/2 TV^2 (check_pinsker at unit mass)
    g = make_generator(name)
    p = np.array([center, 1.0 - center])
    q = np.array([center + eps * (1.0 - center), (1.0 - center) * (1.0 - eps)])
    q = q / q.sum()
    d = f_divergence(g, p, q)
    if d <= 1e-10:
        bound = math.sqrt(2.0 * (d + _DEFINITENESS_SLACK) / g.pinsker_constant)
        assert total_variation(p, q) <= bound


# zeros, entries below SUPPORT_EPSILON (1e-12) that count as zeros, entries
# just above it, and ordinary weights
_ENTRY = st.one_of(
    st.just(0.0),
    st.sampled_from([1e-13, 5e-13, 1e-12, 2e-12]),
    st.floats(min_value=1e-6, max_value=1.0),
)


@st.composite
def _weight_rows(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 4))
    row = st.lists(_ENTRY, min_size=n, max_size=n)
    P = np.array(draw(st.lists(row, min_size=m, max_size=m)))
    if draw(st.booleans()):
        return P, np.array(draw(row))
    return P, np.array(draw(st.lists(row, min_size=m, max_size=m)))


def _f_divergence_oracle(g, p, q) -> float:
    """The single-pair f_divergence before it became one row of the kernel:
    explicit escaped-mass and f(0+) terms, interior terms summed by np.dot."""
    p = as_weight_vec(p)
    q = as_weight_vec(q)
    pos = q > 0.0
    total = 0.0
    escaped = float(p[~pos].sum())
    if escaped > 0.0:
        if math.isinf(g.fprime_at_inf):
            return math.inf
        total += escaped * g.fprime_at_inf
    qs = q[pos]
    ps = p[pos]
    inner = ps > 0.0
    if np.any(~inner):
        mass = float(qs[~inner].sum())
        if mass > 0.0:
            if math.isinf(g.f_at_zero):
                return math.inf
            total += mass * g.f_at_zero
    if np.any(inner):
        total += float(np.dot(qs[inner], g.f(ps[inner] / qs[inner])))
    return total


@given(_weight_rows(), st.sampled_from(registry_names()))
@settings(max_examples=600, deadline=None)
def test_f_divergence_rows_matches_single_pairs(PQ, name):
    # every registry entry (piecewise_example included) at default parameters
    g = from_spec(name)
    P, Q = PQ
    got = f_divergence_rows(g, P, Q)
    for p, q, value in zip(P, np.broadcast_to(Q, P.shape), got):
        ref = _f_divergence_oracle(g, p, q)
        # the single-pair call is one row of the same kernel
        assert f_divergence(g, p, q) == value
        if math.isinf(ref):
            assert value == ref
            continue
        # the oracle sums the interior terms with np.dot, the kernel with a
        # row sum; the two orders differ by at most n eps sum |terms|
        p, q = np.where(p < 1e-12, 0.0, p), np.where(q < 1e-12, 0.0, q)
        inner = (p > 0.0) & (q > 0.0)
        terms = np.abs(q[inner] * g.f(p[inner] / q[inner])).sum()
        tol = 1e-12 * abs(ref) + 4.0 * p.size * np.finfo(float).eps * terms
        assert abs(value - ref) <= tol, (p, q, value, ref)


def test_f_divergence_rows_rounding_error_scale():
    kl = make_generator("kl")
    P = np.array([[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]])
    values, err = _divergence_rows(kl, P, np.array([0.5, 0.5]), rounding_error=True)
    assert values[0] == 0.0 and values[1] == pytest.approx(math.log(2.0))
    np.testing.assert_array_equal(f_divergence_rows(kl, P, [0.5, 0.5]), values)
    # t = 1 on both entries: 4 eps sum q (|f(1)| + |1 f'(1)| + 1) = 8 eps
    assert err[0] == pytest.approx(8.0 * np.finfo(float).eps)
    assert err[1] == err[2] > 0.0
    with pytest.raises(ValueError):
        f_divergence_rows(kl, [0.5, 0.5], [0.5, 0.5])


def test_gauss_legendre_nodes_cached_read_only():
    t, w = _gauss_legendre(16)
    assert _gauss_legendre(16)[0] is t
    assert not t.flags.writeable and not w.flags.writeable
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all((t > 0.0) & (t < 1.0))


def test_support_restriction_padding(registry):
    rng = np.random.default_rng(19)
    ps, qs = random_prob_pairs(rng, 10, 3)
    for g in registry:
        for p, q in zip(ps, qs):
            padded_p = np.concatenate([p, [0.0, 0.0]])
            padded_q = np.concatenate([q, [0.0, 0.0]])
            assert f_divergence(g, padded_p, padded_q) == pytest.approx(
                f_divergence(g, p, q), rel=1e-12, abs=1e-14
            ), g.label
            assert chi_squared(padded_p, padded_q) == pytest.approx(
                chi_squared(p, q), rel=1e-12, abs=1e-14
            )


def test_integral_representation_zero_displacement(monkeypatch):
    kl = make_generator("kl")
    p = np.array([0.3, 0.7])
    for nodes in (2, 16, 64, 128):
        monkeypatch.setattr(divergence, "_QUAD_NODES", nodes)
        assert integral_representation(kl, p, p) == pytest.approx(0.0, abs=1e-15)


def test_integral_representation_kl_example():
    kl = make_generator("kl")
    value = integral_representation(kl, [0.6, 0.4], [0.5, 0.5])
    assert value == pytest.approx(f_divergence(kl, [0.6, 0.4], [0.5, 0.5]), abs=1e-10)


def test_integral_representation_pearson_two_nodes_exact(monkeypatch):
    # the integrand is linear in t for pearson, so two nodes are exact
    monkeypatch.setattr(divergence, "_QUAD_NODES", 2)
    pc = make_generator("pearson_chi2")
    rng = np.random.default_rng(23)
    ps, qs = random_prob_pairs(rng, 20, 3)
    for p, q in zip(ps, qs):
        assert integral_representation(pc, p, q) == pytest.approx(
            chi_squared(p, q), rel=1e-12
        )


def test_integral_representation_all_generators(registry):
    rng = np.random.default_rng(29)
    ps, qs = random_prob_pairs(rng, 10, 4)
    for g in registry:
        for p, q in zip(ps, qs):
            approx = integral_representation(g, p, q)
            exact = f_divergence(g, p, q)
            assert approx == pytest.approx(exact, abs=1e-8), g.label


def test_integral_representation_preconditions():
    kl = make_generator("kl")
    # unequal sums with f'(1) != 0
    with pytest.raises(ValueError):
        integral_representation(kl, [0.5, 0.5], [0.4, 0.4])
    # unequal sums are fine when f'(1) = 0
    js = make_generator("jensen_shannon")
    integral_representation(js, [0.5, 0.5], [0.4, 0.4])
    # p not dominated by q
    with pytest.raises(ValueError):
        integral_representation(kl, [0.5, 0.5], [1.0, 0.0])
    # p touching zero with f'' singular at zero
    with pytest.raises(ValueError):
        integral_representation(kl, [1.0, 0.0], [0.5, 0.5])
    # but fine when f''(0+) is finite
    tri = make_generator("triangular")
    value = integral_representation(tri, [1.0, 0.0], [0.5, 0.5])
    assert value == pytest.approx(
        f_divergence(tri, [1.0, 0.0], [0.5, 0.5]), abs=1e-8
    )
