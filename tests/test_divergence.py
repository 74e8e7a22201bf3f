import contextlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divlab import divergence
from divlab.divergence import (
    _ROUNDING,
    SUPPORT_EPSILON,
    _divergence_rows,
    _gauss_legendre,
    _row_sums,
    as_prob_vec,
    as_weight_vec,
    chi_squared,
    f_divergence,
    f_divergence_rows,
    integral_representation,
    total_variation,
)
from divlab.generators import default_registry, from_spec, make_generator, registry_names

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


def _divergence_rows_oracle(g, P, Q, rounding_error=False):
    """The reference whose bits the kernel keeps: its body with every row
    sum a numpy ``sum(axis=1)`` and a one-row Q broadcast as it is."""
    # one row shared by all rows of P broadcasts as it is
    if Q.shape != P.shape and Q.shape != P.shape[1:]:
        Q = np.broadcast_to(Q, P.shape)
    pos = Q > 0.0
    inner = pos & (P > 0.0)
    t = np.divide(P, Q, out=np.ones_like(P), where=inner)
    ft = g.f(t)
    total = np.zeros(P.shape[0])
    # mass of p escaping supp(q) contributes p(x) * f'(inf), and q(x) > 0
    # with p(x) = 0 contributes q(x) * f(0+); an infinite limit gives +inf.
    # Where every entry is interior no entry carries such mass.
    if not inner.all():
        for mass, limit in (
            (np.where(pos, 0.0, P).sum(axis=1), g.fprime_at_inf),
            (np.where(pos & ~inner, Q, 0.0).sum(axis=1), g.f_at_zero),
        ):
            hit = mass >= SUPPORT_EPSILON
            total[hit] += mass[hit] * limit
    total += np.where(inner, Q * ft, 0.0).sum(axis=1)
    if not rounding_error:
        return total
    scale = np.abs(ft) + np.abs(t * g.f1(t)) + 1.0
    return total, _ROUNDING * np.where(inner, Q * scale, 0.0).sum(axis=1)


def _same_bits(a, b) -> bool:
    """Equal arrays, NaN matching NaN, with equal sign bits (so -0.0 is not 0.0)."""
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


@st.composite
def _kernel_blocks(draw):
    """Unclamped (P, Q, edges) blocks for the kernel body: n in 1..10 or 64,
    1..300 rows (some short blocks long enough to be summed by columns), a
    one-row or per-row Q.  Each of P and Q is clean or has zeros, -0.0 and
    sub-epsilon entries at drawn rates, so that a block may be all
    interior, have a Q of full support where P vanishes, or zeros in Q.
    With ``edges``, NaN and +-inf entries are mixed in too."""
    n = draw(st.sampled_from([*range(1, 11), 64]))
    rows = draw(st.one_of(st.integers(1, 300), st.integers(32 * n, 32 * n + 20)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = draw(st.sampled_from([0.0, 0.0, 0.0, 0.02, 0.2]))

    def block(m):
        zero, negzero, tiny = (
            (0.0, 0.0, 0.0) if draw(st.booleans())
            else (draw(st.sampled_from([0.0, 0.05, 0.3])) for _ in range(3))
        )
        X = rng.dirichlet(np.ones(n), size=m) * rng.uniform(0.5, 2.0, size=(m, 1))
        u = rng.random(X.shape)
        X[u < zero + negzero + tiny] = 1e-13
        X[u < zero + negzero] = -0.0
        X[u < zero] = 0.0
        edge = rng.random(X.shape) < edges
        X[edge] = rng.choice([math.nan, math.inf, -math.inf], size=int(edge.sum()))
        return X

    P = block(rows)
    Q = block(1)[0] if draw(st.booleans()) else block(rows)
    return P, Q, edges > 0.0


@given(_kernel_blocks(), st.sampled_from(registry_names()), st.booleans())
@settings(max_examples=400, deadline=None)
def test_divergence_rows_bits_match_numpy_row_sums(PQ, name, rounding_error):
    # the one-pass kernel (no masks on an all-interior block, no f'(inf)
    # mass against a Q of full support, the rounding scale built in place)
    # against the masked body, sign bits included; NaN and infinities warn
    g = from_spec(name)
    P, Q, edges = PQ
    with np.errstate(all="ignore") if edges else contextlib.nullcontext():
        got = _divergence_rows(g, P, Q, rounding_error=rounding_error)
        want = _divergence_rows_oracle(g, P, Q, rounding_error=rounding_error)
    for a, b in zip(got, want) if rounding_error else [(got, want)]:
        assert _same_bits(a, b), (P, Q, a, b)


_EDGE_VALUES = np.array([0.0, -0.0, 1.0, -1.0, 0.1, 3.5, 1e-300, 1e308, -1e308,
                         math.inf, -math.inf, math.nan])


@given(st.integers(1, 16), st.integers(1, 600), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_row_sums_match_numpy_bit_for_bit(n, rows, seed):
    rng = np.random.default_rng(seed)
    X = np.where(rng.random((rows, n)) < 0.5, rng.choice(_EDGE_VALUES, (rows, n)),
                 rng.normal(size=(rows, n)))
    # overflow to inf, and inf - inf, warn; the sums must agree all the same
    with np.errstate(all="ignore"):
        assert _same_bits(_row_sums(X), X.sum(axis=1))


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


def _integral_unchunked(g, p, q):
    """The body of ``integral_representation`` as one product over every
    node at once: the oracle of its node chunks."""
    pos = q > 0.0
    ps, qs = p[pos], q[pos]
    t, w = _gauss_legendre(divergence._QUAD_NODES)
    args = np.maximum(1.0 + np.outer(t, ps / qs - 1.0), 1e-300)
    return float(np.dot(w * (1.0 - t), g.f2(args) @ ((ps - qs) ** 2 / qs)))


_CERTIFIED = default_registry()


@given(
    n=st.integers(2, 3000),
    chunk=st.integers(1, 1 << 17),
    index=st.integers(0, len(_CERTIFIED) - 1),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_integral_representation_node_chunks_are_bit_exact(n, chunk, index, seed):
    # every chunk size, from 8 nodes to all 128, gives the bits of the one
    # product over all nodes
    g = _CERTIFIED[index]
    ps, qs = random_prob_pairs(np.random.default_rng(seed), 1, n)
    with mock.patch.object(divergence, "_CHUNK_ENTRIES", chunk):
        assert integral_representation(g, ps[0], qs[0]) == _integral_unchunked(g, ps[0], qs[0])


def test_integral_representation_memory_is_bounded():
    # one product over all 128 nodes held 128 x |X| arrays, a 401 MiB peak
    # at |X| = 200,000; node chunks hold 8 x |X|
    n = 200_000
    ps, qs = random_prob_pairs(np.random.default_rng(5), 1, n)
    tracemalloc.start()
    try:
        integral_representation(make_generator("kl"), ps[0], qs[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


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
