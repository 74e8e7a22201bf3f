import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divlab import chi2bounds
from divlab.chi2bounds import (
    chi2_sandwich,
    chi2_tv_upper,
    f_lower_by_chi2,
    kappa_bounds,
    reverse_pinsker,
)
from divlab.divergence import (
    _clamp,
    _vectors,
    as_weight_vec,
    chi_squared,
    f_divergence,
    total_variation,
)
from divlab.generators import (
    CONSTANT,
    NONDECREASING,
    NONINCREASING,
    default_registry,
    make_generator,
)

from conftest import bump_generator, random_prob_pairs, singular_bump_generator


def test_kappa_pearson_constant():
    pc = make_generator("pearson_chi2")
    kp = kappa_bounds(pc, [0.2, 0.8], [0.6, 0.4])
    assert kp.kappa_up == 2.0 and kp.kappa_down == 2.0


def test_kappa_kl_example():
    kl = make_generator("kl")
    kp = kappa_bounds(kl, [0.5, 0.5], [0.25, 0.75])
    assert kp.kappa_up == pytest.approx(1.5, abs=1e-12)
    assert kp.kappa_down == pytest.approx(0.5, abs=1e-12)
    # witnesses: max at the ratio-2/3 endpoint, min at the ratio-2 endpoint
    assert kp.argmax == (1, 1.0)
    assert kp.argmin == (0, 1.0)


def test_kappa_identity_pair():
    kl = make_generator("kl")
    p = np.array([0.3, 0.7])
    kp = kappa_bounds(kl, p, p)
    assert kp.kappa_up == pytest.approx(1.0) and kp.kappa_down == pytest.approx(1.0)


def test_kappa_limit_toward_reference(registry):
    # along p_k = (1-1/k) q + (1/k) p both extremes approach f''(1) at rate 1/k
    rng = np.random.default_rng(41)
    p = rng.dirichlet(np.ones(3))
    q = rng.dirichlet(np.ones(3))
    for g in registry:
        f2_1 = float(g.f2(1.0))
        base = None
        for k in (8, 16, 32, 64):
            pk = (1.0 - 1.0 / k) * q + (1.0 / k) * p
            kp = kappa_bounds(g, pk, q)
            err = max(abs(kp.kappa_up - f2_1), abs(kp.kappa_down - f2_1))
            if base is None:
                base = max(err * k, 1e-12)
            else:
                assert err <= 2.0 * base / k, g.label


def test_kappa_monotone_endpoint_matches_dense_grid(registry, monkeypatch):
    # the blind generators run the t-grid, here at 4097 points
    monkeypatch.setattr(chi2bounds, "_T_GRID_N", 4097)
    rng = np.random.default_rng(43)
    ps, qs = random_prob_pairs(rng, 10, 3)
    for g in registry:
        if g.f2_monotonicity == "unknown":
            continue
        blind = dataclasses.replace(g, f2_monotonicity="unknown")
        for p, q in zip(ps, qs):
            fast = kappa_bounds(g, p, q)
            dense = kappa_bounds(blind, p, q)
            assert fast.kappa_up == pytest.approx(dense.kappa_up, abs=1e-9)
            assert fast.kappa_down == pytest.approx(dense.kappa_down, abs=1e-9)


def _loop_kappa_bounds(g, p, q):
    """Oracle: the per-coordinate loop over the segments from q toward p.
    Returns its KappaPair and the value of every candidate it considered."""
    p, q = as_weight_vec(p), as_weight_vec(q)
    support = np.flatnonzero(q > 0.0)
    best_up, best_down = -math.inf, math.inf
    arg_up = arg_down = (int(support[0]), 0.0)
    finite, candidates = True, []

    def consider(value, idx, t):
        nonlocal best_up, best_down, arg_up, arg_down
        candidates.append(value)
        if value > best_up:
            best_up, arg_up = value, (idx, t)
        if value < best_down:
            best_down, arg_down = value, (idx, t)

    monotone = g.f2_monotonicity in (NONINCREASING, NONDECREASING, CONSTANT)
    f2_at_one = float(g.f2(1.0))
    for idx, r in zip(support, p[support] / q[support]):
        idx = int(idx)
        if r == 0.0 and not g.f2_at_zero_finite:
            finite, best_up, arg_up = False, math.inf, (idx, 1.0)
            consider(f2_at_one, idx, 0.0)
            continue
        if monotone:
            consider(f2_at_one, idx, 0.0)
            consider(float(g.f2(max(r, 1e-300))), idx, 1.0)
        else:
            ts = np.linspace(0.0, 1.0, 1025)
            vals = np.asarray(g.f2(np.maximum(1.0 + ts * (r - 1.0), 1e-300)), dtype=float)
            for k in (int(np.argmax(vals)), int(np.argmin(vals))):
                consider(float(vals[k]), idx, float(ts[k]))
    pair = chi2bounds.KappaPair(
        kappa_up=best_up,
        kappa_down=max(best_down, 0.0),
        argmax=arg_up,
        argmin=arg_down,
        finite=finite and math.isfinite(best_up),
    )
    return pair, candidates


def _ulps_apart(a, b, ulps=4):
    if a == b:
        return True
    return abs(a - b) <= ulps * np.spacing(max(abs(a), abs(b)))


def _near_tie(values, largest):
    """Whether the two largest (else smallest) of ``values`` lie within 4 ulp
    of each other."""
    ordered = sorted(values, reverse=largest)
    return len(ordered) > 1 and _ulps_apart(ordered[0], ordered[1])


KAPPA_GENERATORS = default_registry() + [
    make_generator("chi_alpha", alpha=2.5),
    bump_generator(),
    singular_bump_generator(),
]


@settings(max_examples=400, deadline=None)
@given(
    k=st.integers(0, len(KAPPA_GENERATORS) - 1),
    n=st.sampled_from([1, 2, 3, 8, 64]),
    zeros=st.sampled_from(["none", "p", "q", "both"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_kappa_bounds_matches_per_coordinate_loop(k, n, zeros, seed):
    g = KAPPA_GENERATORS[k]
    rng = np.random.default_rng(seed)
    p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
    m = int(rng.integers(1, n)) if n > 1 else 0
    if zeros in ("q", "both"):
        off = rng.choice(n, size=m, replace=False)
        q[off] = p[off] = 0.0  # p << q
    if zeros in ("p", "both"):
        p[rng.choice(n, size=max(m, 1), replace=False)] = 0.0
    expected, candidates = _loop_kappa_bounds(g, p, q)
    got = kappa_bounds(g, p, q)
    assert _ulps_apart(got.kappa_up, expected.kappa_up), (got, expected)
    assert _ulps_apart(got.kappa_down, expected.kappa_down), (got, expected)
    assert got.finite == expected.finite
    if not expected.finite or not _near_tie(candidates, largest=True):
        assert got.argmax == expected.argmax, (got, expected)
    if not _near_tie(candidates, largest=False):
        assert got.argmin == expected.argmin, (got, expected)


def _kappa_up_rows_by_stack(g, P, Q):
    """``_kappa_up_rows`` by the row maxima of the ``_segment_f2`` stack,
    its body for every f'' before the direct maximum of a monotone one."""
    P, Q = _clamp(P), _clamp(Q)
    kup = np.concatenate([V.max(axis=(1, 2)) for _, V in chi2bounds._segment_f2(g, P, Q)])
    kup[np.where(Q > 0.0, 0.0, P).sum(axis=1) > 0.0] = math.nan
    return kup


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(0, len(KAPPA_GENERATORS) - 1),
    n=st.sampled_from([1, 2, 3, 8, 64]),
    rows=st.integers(1, 40),
    zeros=st.sampled_from(["none", "p", "q", "off"]),
    one_q=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_kappa_up_rows_match_the_segment_stack(k, n, rows, zeros, one_q, seed):
    # zeros in P run into f''(0+) (+inf where it is infinite); zeros in Q
    # leave P dominated ("q") or not ("off", NaN rows)
    g = KAPPA_GENERATORS[k]
    rng = np.random.default_rng(seed)
    P = rng.dirichlet(np.ones(n), size=rows)
    Q = rng.dirichlet(np.ones(n), size=1 if one_q else rows)
    u = rng.random(P.shape)
    if zeros == "p":
        P[u < 0.3] = 0.0
    elif zeros in ("q", "off"):
        Q[rng.random(Q.shape) < 0.3] = 0.0
        if zeros == "q":
            P = np.where(Q > 0.0, P, 0.0)
    if one_q:
        Q = Q[0]
    got, want = chi2bounds._kappa_up_rows(g, P, Q), _kappa_up_rows_by_stack(g, P, Q)
    assert np.array_equal(got, want, equal_nan=True), (g, P, Q, got, want)


def test_kappa_up_rows_kl_infinite_and_off_support_rows():
    kl = make_generator("kl")
    P = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [0.25, 0.25, 0.5]])
    Q = np.array([[0.2, 0.3, 0.5], [0.5, 0.5, 0.0], [0.25, 0.25, 0.5]])
    got = chi2bounds._kappa_up_rows(kl, P, Q)
    # a zero ratio: f''(0+) = +inf; mass off supp Q: NaN; the identity: f''(1)
    assert got[0] == math.inf and math.isnan(got[1]) and got[2] == 1.0
    assert np.array_equal(got, _kappa_up_rows_by_stack(kl, P, Q), equal_nan=True)


def test_kappa_vacuous_when_p_touches_zero():
    kl = make_generator("kl")
    kp = kappa_bounds(kl, [1.0, 0.0], [0.5, 0.5])
    assert math.isinf(kp.kappa_up)
    assert not kp.finite
    # finite f''(0+): no vacuity
    tri = make_generator("triangular")
    kp = kappa_bounds(tri, [1.0, 0.0], [0.5, 0.5])
    assert kp.kappa_up == pytest.approx(8.0)  # f''(0) = 8
    assert kp.finite


def test_sandwich_pearson_collapses():
    pc = make_generator("pearson_chi2")
    lower, value, upper, holds = chi2_sandwich(pc, [0.7, 0.3], [0.5, 0.5])
    assert lower == pytest.approx(value, rel=1e-12)
    assert upper == pytest.approx(value, rel=1e-12)
    assert holds


@pytest.mark.parametrize("eps", [10.0**-k for k in range(3, 10)])
def test_sandwich_pearson_holds_against_tiny_reference_mass(eps):
    # kappa is constant for pearson_chi2, so both bounds and the value are
    # one chi^2, computed in different orders; at chi^2 ~ 1/eps they differ
    # by more than an absolute 1e-10
    pc = make_generator("pearson_chi2")
    q = [1.0 - eps, eps]
    for p in ([0.5, 0.5], [0.9, 0.1], [0.01, 0.99], [0.3, 0.7]):
        lower, value, upper, holds = chi2_sandwich(pc, p, q)
        assert lower == pytest.approx(value, rel=1e-12)
        assert upper == pytest.approx(value, rel=1e-12)
        assert holds, (eps, p, lower, value, upper)


def test_sandwich_identity_pair():
    kl = make_generator("kl")
    p = np.array([0.4, 0.6])
    assert chi2_sandwich(kl, p, p) == (0.0, 0.0, 0.0, True)


def test_sandwich_random_sweep(registry):
    rng = np.random.default_rng(47)
    ps, qs = random_prob_pairs(rng, 100, 4)
    for g in registry:
        for p, q in zip(ps, qs):
            lower, value, upper, holds = chi2_sandwich(g, p, q)
            assert holds, (g.label, lower, value, upper)


def test_reverse_pinsker_identity_and_domination():
    kl = make_generator("kl")
    p = np.array([0.25, 0.75])
    assert reverse_pinsker(kl, p, p) == (0.0, 0.0)
    rng = np.random.default_rng(53)
    ps, qs = random_prob_pairs(rng, 200, 3)
    for p, q in zip(ps, qs):
        l2b, tvb = reverse_pinsker(kl, p, q)
        value = f_divergence(kl, p, q)
        assert value <= l2b + 1e-10
        assert value <= tvb + 1e-10
        assert l2b <= tvb + 1e-12  # l2 refinement dominates the TV form


def test_chi2_reverse_pinsker_specialization():
    # chi^2 <= 4/q_min TV^2 is the pearson instance of the TV bound
    pc = make_generator("pearson_chi2")
    rng = np.random.default_rng(59)
    ps, qs = random_prob_pairs(rng, 200, 4)
    for p, q in zip(ps, qs):
        _, tvb = reverse_pinsker(pc, p, q)
        qmin = q[q > 0].min()
        assert tvb == pytest.approx(4.0 / qmin * total_variation(p, q) ** 2, rel=1e-12)
        assert chi_squared(p, q) <= tvb + 1e-10


def test_kl_reverse_pinsker_ratio_constant():
    # for KL the kappa_up extreme is r = max(1, max q_i/p_i)
    kl = make_generator("kl")
    rng = np.random.default_rng(61)
    ps, qs = random_prob_pairs(rng, 100, 3)
    for p, q in zip(ps, qs):
        _, tvb = reverse_pinsker(kl, p, q)
        r = max(1.0, float(np.max(q / p)))
        qmin = float(q.min())
        expected = 2.0 * r / qmin * total_variation(p, q) ** 2
        assert tvb == pytest.approx(expected, rel=1e-10)
        assert f_divergence(kl, p, q) <= expected + 1e-10


def test_chi2_tv_upper_examples():
    p = np.array([0.4, 0.6])
    assert chi2_tv_upper(p, p) == (0.0, 0.0)
    inf_l1, prob = chi2_tv_upper([0.7, 0.3], [0.5, 0.5])
    # binary uniform reference: both bounds collapse onto chi^2 itself
    assert prob == pytest.approx(0.16)
    assert inf_l1 == pytest.approx(0.16)
    # non-probability weights only produce the norm bound
    inf_l1, prob = chi2_tv_upper([1.4, 0.6], [1.0, 1.0])
    assert prob is None
    assert chi_squared([1.4, 0.6], [1.0, 1.0]) <= inf_l1 + 1e-12


def test_chi2_tv_upper_random_sweep():
    rng = np.random.default_rng(67)
    ps, qs = random_prob_pairs(rng, 1000, 4, interior=False)
    for p, q in zip(ps, qs):
        inf_l1, prob = chi2_tv_upper(p, q)
        c2 = chi_squared(p, q)
        assert c2 <= inf_l1 + 1e-10
        assert c2 <= prob + 1e-10


def test_f_lower_by_chi2():
    kl = make_generator("kl")
    p = np.array([0.3, 0.7])
    bound, holds = f_lower_by_chi2(kl, p, p)
    assert bound == 0.0 and holds
    # degenerate constant: lins(0) has L = 0, vacuous bound
    zero = make_generator("lins", theta=0.0)
    bound, holds = f_lower_by_chi2(zero, [0.3, 0.7], [0.5, 0.5])
    assert bound == 0.0 and holds
    rng = np.random.default_rng(71)
    ps, qs = random_prob_pairs(rng, 1000, 3, interior=False)
    for p, q in zip(ps, qs):
        _, holds = f_lower_by_chi2(kl, p, q)
        assert holds


# The checked calls as the gate followed by compositions of the public
# calls, each of which validates its own inputs again: the oracle for calls
# that validate once
def _equal_sums_or_flat(g, p, q):
    # the rule integral_representation states for the second-order forms
    if abs(p.sum() - q.sum()) > 1e-9 and abs(float(g.f1(1.0))) > 1e-12:
        raise ValueError("requires equal sums or f'(1) = 0")


def _composed_sandwich(g, p, q):
    _equal_sums_or_flat(g, *_vectors(p, q, dominated=True, q_support=True))
    kp = kappa_bounds(g, p, q)
    chi2, value = chi_squared(p, q), f_divergence(g, p, q)
    upper = 0.5 * kp.kappa_up * chi2 if math.isfinite(kp.kappa_up) else math.inf
    slack = 1e-10 * max(1.0, abs(value))
    lower = 0.5 * kp.kappa_down * chi2
    return lower, value, upper, (lower <= value + slack) and (value <= upper + slack)


def _composed_reverse_pinsker(g, p, q):
    _equal_sums_or_flat(g, *_vectors(p, q, dominated=True, q_support=True))
    kp = kappa_bounds(g, p, q)
    p, q = _vectors(p, q)
    qmin = chi2bounds.q_min_on_support(q)
    if not math.isfinite(kp.kappa_up):
        return math.inf, math.inf
    d = p - q
    # the first-order term that sums within the equal-sum rule leave in D_f
    first = max(0.0, float(g.f1(1.0)) * float(p.sum() - q.sum()))
    return (kp.kappa_up / (2.0 * qmin) * float(np.dot(d, d)) + first,
            2.0 * kp.kappa_up / qmin * total_variation(p, q) ** 2 + first)


def _composed_chi2_tv_upper(p, q):
    p, q = _vectors(p, q, dominated=True, q_support=True)
    qmin = chi2bounds.q_min_on_support(q)
    d = np.abs(p - q)
    prob = None
    if abs(p.sum() - 1.0) <= 1e-10 and abs(q.sum() - 1.0) <= 1e-10:
        prob = float(d.sum()) ** 2 / (2.0 * qmin)
    return float(d.max() * d.sum()) / qmin, prob


def _composed_f_lower(g, p, q):
    p, q = _vectors(p, q, prob=True, dominated=True, q_support=True)
    if g.pinsker_constant is None:
        raise ValueError(f"{g.label} carries no certified constant")
    bound = g.pinsker_constant * chi2bounds.q_min_on_support(q) / 4.0 * chi_squared(p, q)
    return bound, f_divergence(g, p, q) >= bound - 1e-10


def _composed_check_pinsker(g, p, q):
    p, q = _vectors(p, q)
    c = float(p.sum())
    if abs(c - q.sum()) > 1e-9 or c <= 0.0:
        raise ValueError("check_pinsker requires equal positive sums")
    if g.pinsker_constant is None:
        raise ValueError(f"{g.label} carries no certified constant")
    lhs = f_divergence(g, p, q)
    rhs = g.pinsker_constant / (2.0 * c) * total_variation(p, q) ** 2
    return lhs, rhs, lhs >= rhs - 1e-10


def _outcome(call, *args):
    try:
        return "ok", call(*args)
    except Exception as exc:  # the oracle raises the same
        return type(exc).__name__, str(exc)


def _checked_calls():
    from divlab.pinsker import check_pinsker

    return [
        (chi2_sandwich, _composed_sandwich, True),
        (reverse_pinsker, _composed_reverse_pinsker, True),
        (chi2_tv_upper, _composed_chi2_tv_upper, False),
        (f_lower_by_chi2, _composed_f_lower, True),
        (check_pinsker, _composed_check_pinsker, True),
    ]


def _edge_pairs():
    rng = np.random.default_rng(83)
    ps, qs = random_prob_pairs(rng, 4, 5, interior=False)
    pairs = list(zip(ps.tolist(), qs.tolist()))
    pairs += [
        ([0.5, 0.5, 0.0], [0.2, 0.3, 0.5]),  # p touches zero
        ([0.5, 0.5, 0.0], [0.5, 0.5, 0.0]),  # q touches zero, p << q
        ([0.2, 0.3, 0.5], [0.5, 0.5, 0.0]),  # p not << q
        ([0.5, 0.5], [0.2, 0.3, 0.5]),  # two alphabets
        ([0.5, 0.5, 0.0], [0.5, 0.5]),
        ([1.0, 2.0], [0.5, 0.5]),  # unequal sums
        ([1e-13, 0.4], [0.2, 0.2]),  # sub-epsilon entry, sum 0.4
        ([0.0, 0.0], [0.0, 1.0]),  # zero sum
        ([0.0, 0.0], [0.0, 0.0]),  # empty supports
        ([-0.5, 1.5], [float("nan"), 1.0]),  # both invalid: p's error first
        ([0.5, 0.5], [float("inf"), 1.0]),
        ([[0.5, 0.5]], [0.5, 0.5]),
    ]
    return pairs


def test_two_alphabets_are_value_errors():
    # checked before p << q, whose mask would not fit p
    kl = make_generator("kl")
    for p, q in (([0.5, 0.5], [0.2, 0.3, 0.5]), ([0.5, 0.5, 0.0], [0.5, 0.5])):
        for call, args in (
            (reverse_pinsker, (kl, p, q)),
            (chi2_tv_upper, (p, q)),
            (kappa_bounds, (kl, p, q)),
            (chi2_sandwich, (kl, p, q)),
        ):
            with pytest.raises(ValueError, match="alphabet mismatch"):
                call(*args)


def test_empty_supports_are_value_errors():
    # checked before the segment blocks, which would divide by the width 0
    kl = make_generator("kl")
    for call, args in (
        (kappa_bounds, (kl, [0.0, 0.0], [0.0, 0.0])),
        (chi2_sandwich, (kl, [0.0, 0.0], [0.0, 0.0])),
        (reverse_pinsker, (kl, [0.0, 0.0], [0.0, 0.0])),
        (chi2_tv_upper, ([0.0, 0.0], [0.0, 0.0])),
    ):
        with pytest.raises(ValueError, match="q has empty support"):
            call(*args)


@pytest.mark.parametrize("name", ["kl", "pearson_chi2", "triangular", "one_sided_chi2"])
def test_checked_calls_validate_once(name, monkeypatch):
    # each checked call validates p and q once at its boundary and then runs
    # unchecked bodies: the same bits and the same first error as the
    # composition of public calls, with one gate call
    from divlab import divergence, pinsker

    g = make_generator(name)
    calls = []
    original = divergence._vectors

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for call, composed, takes_g in _checked_calls():
        for p, q in _edge_pairs():
            args = (g, p, q) if takes_g else (p, q)
            calls.clear()
            with monkeypatch.context() as patch:
                for module in (divergence, chi2bounds, pinsker):
                    patch.setattr(module, "_vectors", counted)
                got = _outcome(call, *args)
            assert len(calls) == 1, (call.__name__, p, q, len(calls))
            want = _outcome(composed, *args)
            assert got == want, (call.__name__, p, q)
