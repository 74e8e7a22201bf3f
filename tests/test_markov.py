from dataclasses import fields
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.csgraph
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divlab.divergence import SUPPORT_EPSILON, total_variation
from divlab.markov import (
    ChainStructure,
    _closed_classes,
    _components,
    _positivity_index,
    as_channel,
    bsc,
    iterate,
    noisy_typewriter,
    stationary_distribution,
    structure,
)


def constant_channel(n, target=0):
    W = np.zeros((n, n))
    W[target, :] = 1.0
    return W


def uniform_off_diagonal(n):
    W = (np.ones((n, n)) - np.eye(n)) / (n - 1)
    return W


def two_cycle():
    return np.array([[0.0, 1.0], [1.0, 0.0]])


def test_channel_validation():
    with pytest.raises(ValueError):
        as_channel([[0.5, 0.2], [0.4, 0.8]])  # first column sums to 0.9
    with pytest.raises(ValueError):
        as_channel([[1.1, 0.0], [-0.1, 1.0]])
    W = as_channel([[1.0, 0.0], [0.0, 1.0]])
    assert W.shape == (2, 2)


def test_stationary_bsc():
    pi, unique = stationary_distribution(bsc(0.3))
    assert unique
    assert pi == pytest.approx([0.5, 0.5], abs=1e-12)


def test_stationary_identity_not_unique():
    # three closed classes of one state each: the uniform mixture
    pi, unique = stationary_distribution(np.eye(3))
    assert not unique
    assert pi == pytest.approx([1.0 / 3.0] * 3, abs=1e-15)


def test_stationary_two_closed_classes_mix_uniformly():
    # closed classes {0, 1} and {2, 3} with stationary a and b; the
    # transient state 4 leaks into both
    W = np.array([
        [0.7, 0.4, 0.0, 0.0, 0.1],
        [0.3, 0.6, 0.0, 0.0, 0.2],
        [0.0, 0.0, 0.2, 0.5, 0.3],
        [0.0, 0.0, 0.8, 0.5, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.4],
    ])
    a = np.array([4.0, 3.0, 0.0, 0.0, 0.0]) / 7.0
    b = np.array([0.0, 0.0, 5.0, 8.0, 0.0]) / 13.0
    pi, unique = stationary_distribution(W)
    assert not unique
    assert pi == pytest.approx(0.5 * a + 0.5 * b, abs=1e-15)
    assert pi[4] == 0.0
    st_ = structure(W)
    assert not st_.stationary_unique and np.array_equal(st_.stationary, pi)


def test_stationary_closed_class_with_transient_states_is_exact():
    # one closed class {0, 1} fed by two transient states: pi is the class's
    # (4/7, 3/7) to 1e-15 and exactly zero on the transient states
    W = np.array([
        [0.7, 0.4, 0.2, 0.0],
        [0.3, 0.6, 0.0, 0.5],
        [0.0, 0.0, 0.5, 0.0],
        [0.0, 0.0, 0.3, 0.5],
    ])
    pi, unique = stationary_distribution(W)
    assert unique
    assert pi == pytest.approx([4.0 / 7.0, 3.0 / 7.0, 0.0, 0.0], abs=1e-15)
    assert pi[2] == 0.0 and pi[3] == 0.0


def _reducible_chain(rng, n):
    """(W, t): states [0, t) transient, [t, n) holding the closed classes;
    every transient column leaks some mass into [t, n)."""
    t = int(rng.integers(1, n))
    W = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
    W[:t, t:] = 0.0
    W[t:, :t] += 0.5 * rng.random((n - t, t)) + 0.01
    W[np.arange(n), np.arange(n)] += 0.01
    return W / W.sum(axis=0), t


def test_stationary_reducible_zero_on_transient_states():
    # the solve leaves rounding mass of ~1e-16 on transient states; pi must
    # read it as zero, not as support
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(3, 7))
        W, t = _reducible_chain(rng, n)
        pi, _ = stationary_distribution(W)
        assert not np.any((pi > 0.0) & (pi < SUPPORT_EPSILON)), (W, pi)
        assert not np.any(pi[:t]), (W, pi)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(W @ pi - pi).sum() <= 1e-9


def stationary_by_eig(W, classes):
    """pi as it was computed before the class solve became the one route:
    with one closed class, the eigenvalue-1 eigenvector of a dense
    ``np.linalg.eig``, kept where it normalises to a distribution; else,
    and with several classes, the class solves; then the clamp and the
    renormalisation.  The oracle of ``markov._stationary``."""
    v = None
    if len(classes) == 1:
        eigvals, eigvecs = np.linalg.eig(W)
        v = np.real(eigvecs[:, int(np.argmin(np.abs(eigvals - 1.0)))])
        s = v.sum()
        v = v / s if abs(s) > 1e-12 and not np.any(v / s < -1e-9) else None
    if v is None:
        v = np.zeros(W.shape[0])
        for C in classes:
            A = W[np.ix_(C, C)] - np.eye(C.size)
            A[-1, :] = 1.0
            b = np.zeros(C.size)
            b[-1] = 1.0
            v[C] = np.linalg.solve(A, b)
    v = np.where(v < SUPPORT_EPSILON, 0.0, v)
    return v / v.sum()


def _closed_block(rng, n, kind):
    """An irreducible n-state block: dense Dirichlet columns, a sparse
    chain (self-loop, cycle edge and up to four more entries per column),
    a cycle of period n, or a block-cyclic chain of period 2."""
    if kind == "dense":
        return rng.dirichlet(np.ones(n), size=n).T
    if kind == "sparse":
        W = np.zeros((n, n))
        for x in range(n):
            rows = sorted({x, (x + 1) % n} | set(rng.integers(0, n, size=4).tolist()))
            W[rows, x] = rng.dirichlet(np.ones(len(rows)))
        return W
    if kind == "cycle" or n % 2:
        return np.roll(np.eye(n), 1, axis=0)
    half = np.arange(n).reshape(2, n // 2)
    W = np.zeros((n, n))
    for k in range(2):
        W[np.ix_(half[1 - k], half[k])] = rng.dirichlet(np.ones(n // 2), size=n // 2).T
    return W


@st.composite
def stationary_cases(draw):
    """Chains of at most 64 states: one irreducible block (dense, sparse,
    a cycle or period 2), or closed blocks (one or several) under
    transient states that lead into them, states shuffled."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ["dense", "sparse", "cycle", "cyclic"]
    family = draw(st.sampled_from(kinds + ["transient", "several"]))
    if family in kinds:
        return _closed_block(rng, draw(st.integers(1, 64)), family)
    k = 1 if family == "transient" else draw(st.integers(2, 4))
    sizes = [draw(st.integers(1, 48 // k)) for _ in range(k)]
    s, n = sum(sizes), sum(sizes) + draw(st.integers(1, 16))
    W, a = np.zeros((n, n)), 0
    for c in sizes:
        W[a : a + c, a : a + c] = _closed_block(rng, c, draw(st.sampled_from(kinds)))
        a += c
    for x in range(s, n):
        rows = sorted(set(rng.integers(0, n, size=3).tolist()) | {int(rng.integers(0, s))})
        W[rows, x] = rng.dirichlet(np.ones(len(rows)))
    perm = rng.permutation(n)
    return W[np.ix_(perm, perm)]


@given(stationary_cases())
@settings(max_examples=300, deadline=None)
def test_stationary_class_solve_matches_eig(W):
    # the one route leaves a residual of at most 1e-12 and agrees with the
    # eig route to 1e-10 wherever that is well-conditioned: the bordered
    # class matrix has a condition number of at most 1e6
    W = as_channel(W)
    pos = W > SUPPORT_EPSILON
    classes = _closed_classes(pos, _components(pos)[0])
    pi, unique = stationary_distribution(W)
    assert unique == (len(classes) == 1)
    assert np.abs(W @ pi - pi).sum() <= 1e-12
    assert np.all(pi >= 0.0) and abs(pi.sum() - 1.0) <= 1e-12
    transient = np.setdiff1d(np.arange(len(W)), np.concatenate(classes))
    assert not np.any(pi[transient])
    for C in classes:
        A = W[np.ix_(C, C)] - np.eye(C.size)
        A[-1, :] = 1.0
        if np.linalg.cond(A) > 1e6:
            return
    assert np.max(np.abs(pi - stationary_by_eig(W, classes))) <= 1e-10


def _leaky_blocks(rng, eps, bits=50):
    """An 8-state chain of two Dirichlet 4-blocks, each column leaking
    about eps to the other block, with entries on a grid of 2^-bits whose
    columns sum to one exactly; and its entries as integers over 2^bits."""
    W = np.zeros((8, 8))
    for a, b in ((0, 4), (4, 0)):
        W[a : a + 4, a : a + 4] = (1.0 - eps) * rng.dirichlet(np.ones(4), size=4).T
        W[b : b + 4, a : a + 4] = eps * rng.dirichlet(np.ones(4), size=4).T
    ints = np.floor(W * 2.0**bits).astype(np.int64)
    top = np.argmax(ints, axis=0)
    ints[top, np.arange(8)] += (1 << bits) - ints.sum(axis=0)
    return ints / 2.0**bits, ints


def _exact_stationary(ints, bits=50):
    """The stationary distribution of the rational chain ints / 2^bits,
    by Gauss-Jordan elimination in fractions."""
    n = len(ints)
    A = [[Fraction(int(ints[i, j]), 1 << bits) - (i == j) for j in range(n)] for i in range(n)]
    A[-1] = [Fraction(1)] * n
    b = [Fraction(0)] * (n - 1) + [Fraction(1)]
    for c in range(n):
        r = next(r for r in range(c, n) if A[r][c] != 0)
        A[c], A[r], b[c], b[r] = A[r], A[c], b[r], b[c]
        for r in range(n):
            if r != c and A[r][c] != 0:
                f = A[r][c] / A[c][c]
                A[r] = [x - f * y for x, y in zip(A[r], A[c])]
                b[r] -= f * b[c]
    return np.array([float(b[i] / A[i][i]) for i in range(n)])


@pytest.mark.parametrize("eps, bound", [(1e-8, 1e-7), (1e-10, 1e-5), (1e-11, 1e-4)])
def test_stationary_nearly_decomposable_beats_eig(eps, bound):
    # two blocks that leak eps: pi is ill-conditioned, about 1e-16 / eps;
    # against the exact pi of 20 such chains the class solve's largest
    # relative error stays below ``bound`` and below the eig route's
    solve, eig = [], []
    for seed in range(20):
        W, ints = _leaky_blocks(np.random.default_rng(seed), eps)
        exact = _exact_stationary(ints)
        pi, _ = stationary_distribution(W)
        by_eig = stationary_by_eig(W, [np.arange(8)])
        solve.append(np.max(np.abs(pi - exact) / exact))
        eig.append(np.max(np.abs(by_eig - exact) / exact))
    assert max(solve) <= bound
    assert max(solve) < max(eig)


def test_no_eig_behind_pi(monkeypatch, tmp_path):
    # stationary_distribution, structure and analyze-chain solve for pi on
    # the closed classes; no dense eig of W is taken
    from divlab.cli import run

    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda M: calls.append(M) or eig(M))
    rng = np.random.default_rng(3)
    W = _closed_block(rng, 16, "sparse")
    stationary_distribution(W)
    structure(W)
    path = tmp_path / "chain.csv"
    path.write_text("".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in W))
    for g in ("kl", "pearson_chi2"):
        assert run(["analyze-chain", "--matrix", str(path), "--generator", g,
                    "--profile-n", "2"]) == 0
    assert calls == []


def test_stationary_typewriter_uniform():
    pi, unique = stationary_distribution(noisy_typewriter())
    assert unique
    assert pi == pytest.approx([0.25] * 4, abs=1e-10)


def test_structure_constant_channel():
    st = structure(constant_channel(3))
    assert st.scrambling
    assert not st.irreducible
    assert st.stationary_unique
    assert st.positivity_index is None


def test_structure_uniform_off_diagonal():
    st = structure(uniform_off_diagonal(4))
    assert st.irreducible and st.aperiodic and st.scrambling


def test_structure_noisy_typewriter():
    st = structure(noisy_typewriter())
    assert st.irreducible and st.aperiodic and st.indecomposable
    assert not st.scrambling
    # cube of the chain is strictly positive
    assert st.positivity_index == 3


def test_structure_two_cycle_periodic():
    st = structure(two_cycle())
    assert st.irreducible
    assert not st.aperiodic
    assert st.stationary_unique
    assert st.stationary == pytest.approx([0.5, 0.5])
    assert not st.scrambling
    assert not st.indecomposable  # swap chain decomposes the joint support
    assert st.positivity_index is None


def test_structure_bsc_positivity():
    st = structure(bsc(0.3))
    assert st.positivity_index == 1
    assert st.scrambling and st.irreducible and st.aperiodic and st.indecomposable


def test_structure_all_positive_256_states():
    # 256 overlapping outputs per column pair: a uint8 count wraps to 0 here
    W = np.full((256, 256), 1.0 / 256)
    st_ = structure(W)
    assert st_.scrambling and st_.irreducible and st_.aperiodic
    assert st_.positivity_index == 1


def _boolean_powers(adj, n_cap):
    """adj^1 .. adj^n_cap over the boolean semiring."""
    powers = [adj.copy()]
    current = adj.copy()
    for _ in range(n_cap - 1):
        current = (current.astype(np.uint8) @ adj.astype(np.uint8)) > 0
        powers.append(current)
    return powers


def structure_by_powers(W) -> ChainStructure:
    """Brute-force oracle for ``structure``: every boolean power of the
    support up to max(n^2, 64), O(n^5) time and O(n^4) memory; n <= 12."""
    W = as_channel(W)
    n = W.shape[0]
    n_cap = max(n * n, 64)

    pos = W > SUPPORT_EPSILON
    overlap = pos.astype(np.int64).T @ pos.astype(np.int64)
    scrambling = bool(np.all(overlap > 0))

    powers = _boolean_powers(pos, n_cap)
    reach = np.zeros_like(pos)
    for Bk in powers:
        reach |= Bk
    irreducible = bool(np.all(reach))

    periods = []
    for x in range(n):
        returns = [t + 1 for t, Bk in enumerate(powers) if Bk[x, x]]
        if not returns:
            periods.append(0)
            continue
        d = 0
        for t in returns:
            d = gcd(d, t)
        periods.append(d)
    aperiodic = all(d == 1 for d in periods)

    positivity_index = None
    for t, Bk in enumerate(powers):
        if np.all(Bk):
            positivity_index = t + 1
            break

    try:
        pi, unique = stationary_distribution(W)
    except ValueError:
        pi, unique = None, False

    indecomposable = False
    if pi is not None:
        joint = W * pi[np.newaxis, :]  # joint[y, x] = W(y|x) pi(x)
        x_keep = np.flatnonzero(pi > SUPPORT_EPSILON)
        y_keep = np.flatnonzero(joint.sum(axis=1) > SUPPORT_EPSILON)
        edges = joint[np.ix_(y_keep, x_keep)] > SUPPORT_EPSILON
        ny, nx = edges.shape
        bip = np.zeros((nx + ny, nx + ny), dtype=bool)
        bip[:nx, nx:] = edges.T
        bip[nx:, :nx] = edges
        n_comp, _ = scipy.sparse.csgraph.connected_components(
            scipy.sparse.csr_matrix(bip), directed=False
        )
        indecomposable = n_comp == 1

    return ChainStructure(
        scrambling=scrambling,
        irreducible=irreducible,
        aperiodic=aperiodic,
        indecomposable=indecomposable,
        stationary=pi,
        stationary_unique=unique,
        positivity_index=positivity_index,
    )


def wielandt_support(n):
    """n-cycle 0 -> 1 -> ... -> n-1 -> 0 plus the chord n-1 -> 1: the
    primitive support with the largest exponent, (n - 1)^2 + 1."""
    mask = np.zeros((n, n), dtype=bool)  # mask[y, x]: edge x -> y
    mask[(np.arange(n) + 1) % n, np.arange(n)] = True
    mask[1, n - 1] = True
    return mask


def chain_on(mask, rng):
    """A column-stochastic chain with support ``mask`` and random weights."""
    W = np.where(mask, rng.uniform(0.05, 1.0, mask.shape), 0.0)
    return W / W.sum(axis=0)


@st.composite
def supports(draw):
    """Supports of chains with n <= 12; column x holds the edges out of x.

    random: independent edges at a drawn density.
    cyclic: states dealt into d classes, edges only from each class to the
        next, so every cycle has a length divisible by d (periodic cycles).
    reducible: blocks in a random order, edges only within a block or to an
        earlier block, so later blocks are transient; blocks of one state
        with and without a self-loop, and absorbing states, arise here.
    wielandt: the n-cycle plus one chord for n = 5 .. 12.
    Empty columns get a self-loop, which makes that state absorbing.
    """
    kind = draw(st.sampled_from(["random", "cyclic", "reducible", "wielandt"]))
    if kind == "wielandt":
        return wielandt_support(draw(st.integers(5, 12)))
    n = draw(st.sampled_from(range(1, 13)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((n, n)) < rng.uniform(0.05, 1.0)
    if kind == "cyclic":
        d = draw(st.integers(1, n))
        cls = rng.permutation(np.arange(n) % d)
        allowed = cls[:, None] == (cls[None, :] + 1) % d
        mask &= allowed
        for x in np.flatnonzero(~mask.any(axis=0)):
            mask[rng.choice(np.flatnonzero(allowed[:, x])), x] = True
    elif kind == "reducible":
        block = rng.permutation(np.sort(rng.integers(0, n, n)))
        mask &= block[:, None] <= block[None, :]
    empty = ~mask.any(axis=0)
    mask[empty, empty] = True
    return mask


def assert_same_structure(got, want):
    for field in (f.name for f in fields(ChainStructure)):
        a, b = getattr(got, field), getattr(want, field)
        if field == "stationary":
            assert (a is None) == (b is None)
            assert a is None or np.array_equal(a, b)
        else:
            assert a == b and type(a) is type(b), field


@given(supports(), st.integers(0, 2**32 - 1))
@example(np.ones((1, 1), dtype=bool), 0)
@settings(max_examples=400, deadline=None)
def test_structure_matches_boolean_powers(mask, seed):
    W = chain_on(mask, np.random.default_rng(seed))
    assert_same_structure(structure(W), structure_by_powers(W))


@pytest.mark.parametrize("n", range(5, 13))
def test_structure_wielandt_exponent(n):
    W = chain_on(wielandt_support(n), np.random.default_rng(n))
    st_ = structure(W)
    assert st_.positivity_index == (n - 1) ** 2 + 1
    assert_same_structure(st_, structure_by_powers(W))


def test_wielandt_384_exponent_by_squaring():
    # (n - 1)^2 + 1 = 146,690: a step-by-step walk takes that many products,
    # squaring and lifting about 35
    assert _positivity_index(wielandt_support(384)) == 146_690


def test_positivity_index_refuses_periodic_support():
    # the squares of a periodic support never fill up
    with pytest.raises(ValueError, match="not primitive"):
        _positivity_index(two_cycle() > 0.0)


def _same_partition(a, b):
    pairs = set(zip(a.tolist(), b.tolist()))
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


@given(supports())
@settings(max_examples=300, deadline=None)
def test_components_match_csgraph(mask):
    labels, _ = _components(mask)
    _, want = scipy.sparse.csgraph.connected_components(
        scipy.sparse.csr_matrix(mask), directed=True, connection="strong"
    )
    assert _same_partition(labels, want)


def test_iterate_basics():
    W = bsc(0.3)
    p = np.array([0.9, 0.1])
    assert iterate(W, p, 0) == pytest.approx(p)
    assert iterate(bsc(0.5), p, 1) == pytest.approx([0.5, 0.5])
    with pytest.raises(ValueError):
        iterate(W, [0.5, 0.3, 0.2], 1)
    with pytest.raises(ValueError):
        iterate(W, p, -1)


def test_iterate_matches_matrix_power():
    W = bsc(0.3)
    e0 = np.array([1.0, 0.0])
    expected = np.linalg.matrix_power(W, 2) @ e0
    assert iterate(W, e0, 2) == pytest.approx(expected, abs=1e-14)


def test_iterate_composition_property():
    W = noisy_typewriter()
    rng = np.random.default_rng(9)
    p = rng.dirichlet(np.ones(4))
    for m, n in ((1, 2), (3, 4), (0, 5)):
        once = iterate(W, p, m + n)
        twice = iterate(W, iterate(W, p, m), n)
        assert np.abs(once - twice).sum() <= 1e-9


def test_convergence_envelope_monotone():
    # irreducible + aperiodic: worst-vertex TV to pi decays monotonically
    for W in (bsc(0.3), noisy_typewriter(), uniform_off_diagonal(4)):
        pi, unique = stationary_distribution(W)
        assert unique
        n_sym = W.shape[0]
        seq = []
        for n in range(12):
            worst = max(
                total_variation(iterate(W, np.eye(n_sym)[x], n), pi)
                for x in range(n_sym)
            )
            seq.append(worst)
        diffs = np.diff(seq)
        assert np.all(diffs <= 1e-12)
