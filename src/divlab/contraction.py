"""Input-dependent contraction coefficients and Markov-chain rate machinery.

eta_chi2 is exact (squared second singular value of the normalized joint
matrix, from ``_metric_eta``, the engine of every exact chi^2 coefficient).
For a quadratic generator (f'' constant and positive) D_f is f''(1)/2 chi^2
on probability vectors, so eta_f is eta_chi2 exactly, with its singular
vector as witness.
Any other eta_f is estimated from below by sampling the simplex (exhaustive
1-D grid on binary alphabets).  Every eta_f is bounded from above by the
nonlinear kappa-based bound and, for generators with (f(t)-f(0))/t concave,
the linear bound, whose kappa sup is a maximum over simplex vertices.  All
sampling is driven by a root seed and is deterministic, and one engine,
``_sampled``, samples for chains and for the Petz estimates of channels.
The estimates of one chain report share one cloud and refine stream, and
its sections one chain context (structure, pi, eta_chi2 and its joint
matrix), so a report computes each of them once.
"""

from __future__ import annotations

import bisect
import itertools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .chi2bounds import _kappa_up_rows, _q_min
from .divergence import (
    SUPPORT_EPSILON,
    _as_count,
    _chi_squared,
    _clamp,
    _divergence_rows,
    _total_variation,
)
from .generators import CONSTANT, Generator
from .markov import (
    ChainStructure,
    _channel,
    _check_column_sums,
    _iterate,
    _stationary_of,
    _structure,
)

__all__ = [
    "eta_chi2",
    "eta_f_estimate",
    "eta_f_upper_bounds",
    "contraction_rate_profile",
    "RatePoint",
    "convergence_bound",
    "mixing_time_bounds",
    "MixingTimeReport",
]

BINARY_GRID_N = 4096
# weights w of the blends (1 - w) v + w q of each vertex v toward the
# reference q in the candidate cloud
BLEND_WEIGHTS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
# Dirichlet samples in the cloud of three or more symbols, and the refine
# steps of every climb from it (README.md gives the measurements behind them)
_N_SAMPLES = 400
_REFINE_STEPS = 200


def eta_chi2(W, q) -> float:
    """Exact input-dependent chi-squared contraction coefficient.

    Builds the joint distribution of input q and output Wq, normalizes by the
    square-rooted marginals, and returns the squared second singular value,
    0 at rounding level (``_metric_eta``).
    """
    return _eta_chi2(*_channel(W, q))


def _eta_chi2(W: np.ndarray, q: np.ndarray, joint=None) -> float:
    """``eta_chi2`` of a validated channel and reference, unchecked;
    ``joint()`` gives their ``_normalized_joint`` where a caller keeps it."""
    if int(np.sum(q > 0.0)) <= 1:
        warnings.warn("degenerate reference (all mass on one symbol); eta = 0")
        return 0.0
    return _metric_eta(*(joint or partial(_normalized_joint, W, q))()[:2])


def _normalized_joint(W: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The joint of input q and output Wq over supp q and supp Wq, divided
    by the square-rooted marginals, its right singular vector sqrt(q) of
    value 1 and the indices of supp q."""
    out = W @ q
    x_keep = np.flatnonzero(q > 0.0)
    y_keep = np.flatnonzero(out > 0.0)
    joint = W[np.ix_(y_keep, x_keep)] * q[x_keep][np.newaxis, :]
    norm = np.sqrt(np.outer(out[y_keep], q[x_keep]))
    return joint / norm, np.sqrt(q[x_keep]), x_keep


def _metric_eta(T: np.ndarray, v0: np.ndarray, among=None):
    """The squared top singular value of T off v0, a real right singular
    vector of value 1 (normalised here): sqrt(q) for ``_normalized_joint``,
    L_in^(1/2) vec(sigma) for ``quantum._petz_form``.  v0 is deflated away,
    T - (T v0) v0^T, so a repeated top value needs no case of its own.  A
    value at most max(s_0, 1) max(T.shape) eps (s_0 the top one off v0) is
    SVD rounding, which a root eta(W^n)^(1/n) would lift far above eta(W),
    and counts as 0.  Alone the value is from the values-only SVD, clipped
    to 1 as a chi^2 coefficient is; with ``among``, (value, vectors) from
    the SVD with vectors, which rounds differently, unclipped (the Petz
    floor of an f that is not operator convex can exceed 1).  vectors are
    the right singular vectors of the top two values above the rule, with
    ``_phase_fixed``'s phase ``among`` those indices, or, where there are
    none and every direction attains 0, one unit vector orthogonal to v0:
    the coordinate vector where v0 is smallest less its v0 component."""
    v0 = v0 / np.linalg.norm(v0)
    off = T - np.outer(T @ v0, v0)
    eps = max(off.shape) * np.finfo(float).eps
    if among is None:
        s0 = np.linalg.svd(off, compute_uv=False)[0]
        return float(min(s0**2, 1.0)) if s0 > max(s0, 1.0) * eps else 0.0
    _, s, vh = np.linalg.svd(off, full_matrices=False)
    live = s[:2] > max(s[0], 1.0) * eps
    vectors = [_phase_fixed(v, among) for v in vh[:2][live].conj()]
    if not vectors:
        i = int(np.argmin(np.abs(v0)))
        v = -v0[i] * v0
        v[i] += 1.0
        vectors = [_phase_fixed(v / np.linalg.norm(v), among)]
    return (float(s[0] ** 2) if live[0] else 0.0), vectors


def _phase_fixed(v: np.ndarray, among=slice(None)) -> np.ndarray:
    """v times the phase that makes its first entry of largest modulus
    ``among`` the given indices real and positive, or its first entry of
    largest modulus overall where v vanishes on those indices."""
    candidates = v[among]
    top = candidates[int(np.argmax(np.abs(candidates)))]
    if abs(top) <= np.finfo(float).eps * np.max(np.abs(v)):
        top = v[int(np.argmax(np.abs(v)))]
    return v * (abs(top) / top)


def _quadratic(g: Generator) -> bool:
    """f'' constant and positive: D_f = f''(1)/2 chi^2 on probability
    vectors (f'(1)(sum p - sum q) vanishes) and on NS rows, so every eta_f
    of g is the exact eta_chi2."""
    return g.f2_monotonicity == CONSTANT and float(g.f2(1.0)) > 0.0


def _chi2_estimates(Ws: list[np.ndarray], q: np.ndarray, eta1: float | None = None,
                    joint=None):
    """``eta_f_estimate(W, q, g)`` of a quadratic g for every validated
    channel W of ``Ws``: the exact eta_chi2(W, q), ``eta1`` for Ws[0] and
    its ``_normalized_joint`` ``joint`` where a caller keeps them.  Only
    Ws[0] gets a witness (None for the others): p = q + t X
    with X = sqrt(q) v on supp q, v the normalized joint's right singular
    vector off sqrt(q) (``_metric_eta``), whose chi^2 ratio is eta_chi2 for
    every t; t is half the largest step that keeps p >= 0.  A reference
    with one symbol of mass gives (0, None) and the warning of eta_chi2."""
    etas = [eta1 if eta1 is not None else _eta_chi2(Ws[0], q)]
    etas += [_eta_chi2(W, q) for W in Ws[1:]]
    witness = None
    if int(np.sum(q > 0.0)) > 1:
        M, root, x_keep = joint or _normalized_joint(Ws[0], q)
        X = np.zeros_like(q)
        X[x_keep] = root * _metric_eta(M, root, slice(None))[1][0]
        down = X < 0.0
        witness = q + 0.5 * float(np.min(q[down] / -X[down])) * X
        witness /= witness.sum()
    return [(etas[0], witness)] + [(eta, None) for eta in etas[1:]]


def _candidate_inputs(n: int, q: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic candidate cloud: exhaustive grid in 1-D, otherwise
    _N_SAMPLES Dirichlet samples drawn with ``seed`` plus vertices blended
    toward the reference."""
    if n == 2:
        a = np.linspace(0.0, 1.0, BINARY_GRID_N)
        return np.column_stack([a, 1.0 - a])
    rng = np.random.default_rng(seed)
    cloud = [rng.dirichlet(np.ones(n), size=_N_SAMPLES)]
    vertices = np.eye(n)
    cloud.append(vertices)
    for w in BLEND_WEIGHTS:
        cloud.append((1.0 - w) * vertices + w * q[np.newaxis, :])
    return np.vstack(cloud)


# absolute rounding-noise floor for divergence sums of unit-mass vectors:
# f evaluations near t = 1 carry ~1e-16 absolute error, so numerators below
# this level are indistinguishable from zero and counted as zero to keep the
# estimate a genuine lower bound
NUMERATOR_NOISE_FLOOR = 1e-13


def _scores(num, den) -> np.ndarray:
    """Scores of the ratios num / den of two (value, rounding bound) pairs.

    Each ratio r is lowered by its rounding bound (e_num + |r| e_den) / den,
    so rounding noise does not lift a score above the exact ratio of its
    input; inputs with a denominator outside (1e-12, inf) or an infinite
    numerator score -inf.
    """
    (num, e_num), (den, e_den) = num, den
    feasible, r, den = _raw_ratios(num, den)
    score = r - (e_num + np.abs(r) * e_den) / den
    return np.where(feasible, score, -math.inf)


def _raw_ratios(num, den):
    """The ratios r of ``_scores`` before their rounding bounds, from the
    values alone: (feasible, r, den) with the denominators of infeasible
    inputs set to 1 and numerators below NUMERATOR_NOISE_FLOOR to 0."""
    feasible = (den > 1e-12) & (den < math.inf) & np.isfinite(num)
    num = np.where(feasible & (num >= NUMERATOR_NOISE_FLOOR), num, 0.0)
    den = np.where(feasible, den, 1.0)
    return feasible, num / den, den


def _lazy_start(ratios: np.ndarray, exact) -> tuple[float, int]:
    """The maximum of a cloud's scores and the first index that attains it,
    ``np.max`` and ``np.argmax`` of the scores of every row, from
    ``ratios`` (each row's raw ratio r, or -inf where infeasible) and
    ``exact(rows)``, the scores of an index array of rows.

    A score is r less a non-negative rounding bound, so at most r, and -inf
    where r is.  The row of largest r is scored first, giving s0; only the
    other rows with r >= s0 can reach the maximum, and they alone are
    scored next, in one call skipped where there are none.  The bounds are
    finite where f and f' are at the ratios of the rows, so no score is
    NaN; an s0 that is NaN would score every row."""
    top = int(np.argmax(ratios))
    rows = np.array([top])
    scores = exact(rows)
    others = np.flatnonzero(~(ratios < scores[0]))
    others = others[others != top]
    if others.size:
        # top back in its place among the rows, by slices: np.insert would
        # add about 20 us to each start
        rest, at = exact(others), np.searchsorted(others, top)
        scores = np.concatenate((rest[:at], scores, rest[at:]))
        rows = np.concatenate((others[:at], rows, others[at:]))
    k = int(np.argmax(scores))
    return float(scores[k]), int(rows[k])


def _draw_moves(rng: np.random.Generator, n: int, steps: int):
    """The refine stream of ``eta_f_estimate``: step k moves a share u_k
    from p_i to p_j, (i, j) = ``rng.integers(0, n, size=(steps, 2))[k]`` and
    u_k = ``rng.random(steps)[k]``, drawn in that order; a step that draws
    i == j is skipped and keeps the scale.  Returns i, j and u of the steps
    kept."""
    pairs, u = rng.integers(0, n, size=(steps, 2)), rng.random(steps)
    move = pairs[:, 0] != pairs[:, 1]
    return pairs[move, 0].astype(np.intp), pairs[move, 1].astype(np.intp), u[move]


def _build_moves(P: np.ndarray, draws, scales: np.ndarray) -> np.ndarray:
    """Refine proposals: each moves a share u of p_i, at most its scale, to
    p_j.  P holds the input of each proposal and is moved in place."""
    i, j, u = draws
    rows = np.arange(len(u))
    move = scales * u * np.minimum(1.0, P[rows, i])
    P[rows, i] -= move
    P[rows, j] += move
    np.maximum(P, 0.0, out=P)
    P /= P.sum(axis=1, keepdims=True)
    return P


def _chain_estimates(g: Generator, q: np.ndarray, Ws: list[np.ndarray], seed: int):
    """``eta_f_estimate(W, q, g, seed)`` for every validated channel W of
    ``Ws`` (see ``_sampled``): the cloud drawn with ``seed``, the refine
    stream with seed + 1.  On clamped rows, padded to one width where W
    is rectangular.  A window's Wp are one-row products, bit-equal to
    scoring p alone, where a product over all rows may round otherwise."""
    n = q.shape[0]
    cloud = _candidate_inputs(n, q, seed)
    block = _block_rows(cloud)
    blocks = [cloud[s : s + block] for s in range(0, len(cloud), block)]
    width = max(n, Ws[0].shape[0])
    # row 0 is q, row k + 1 is Ws[k] q
    refs = np.stack([_pad(_clamp(q), width)] + [_pad(_clamp(W @ q), width) for W in Ws])

    def cloud_rows():
        for W, Wq in zip(Ws, refs[1:]):
            yield _pad(np.concatenate([_clamp(P @ W.T) for P in blocks]), width), Wq

    def window(P, segments):
        X, ref_rows = np.zeros((2, len(P), width)), np.zeros((2, len(P)), dtype=np.intp)
        X[0, :, :n] = P
        for k, a, b in segments:
            X[1, a:b, : Ws[k].shape[0]] = (P[a:b, np.newaxis, :] @ Ws[k].T)[:, 0]
            ref_rows[1, a:b] = k + 1
        return _clamp(X), refs[ref_rows]

    den = [_divergence_rows(g, _clamp(P), _clamp(q), rounding_error=True) for P in blocks]
    draws = _draw_moves(np.random.default_rng(seed + 1), n, _REFINE_STEPS)
    return _sampled(g, cloud, den, cloud_rows(), window, draws, _build_moves, 0.25)


def _sampled(g: Generator, cloud, den, cloud_rows, window, draws, build, scale):
    """The sampling engine of every non-quadratic eta_f, of chains and of
    channels: per channel, the best score (``_scores``) of D_f(output) /
    D_f(input) climbed to from the best row of ``cloud``.  A domain supplies
    ``den``, the (value, rounding bound) pairs of the cloud's denominators
    per block of rows it values together; ``cloud_rows``, yielding each
    channel's numerator rows (X, Y) over the cloud in turn, Y a stack or
    one row for all; ``window(P, segments)``, the rows (X, Y) of a block of
    a round's proposals P, each (2, len(P), width): denominators, then
    numerators; and ``draws``, ``build`` and ``scale`` (see ``_climbs``).
    A start is ``_lazy_start`` on den's blocks: bit for bit ``np.max`` and
    ``np.argmax`` of every cloud row's score."""
    cuts = np.cumsum([0] + [len(value) for value, _ in den])
    den, block = np.concatenate(den, axis=1), _block_rows(cloud)

    def start(rows):
        X, Y = rows
        num = np.concatenate([_divergence_rows(g, X[a:b], Y if Y.ndim == 1 else Y[a:b])
                              for a, b in zip(cuts[:-1], cuts[1:])])
        feasible, r, _ = _raw_ratios(num, den[0])

        def exact(k):
            num = _divergence_rows(g, X[k], Y if Y.ndim == 1 else Y[k], rounding_error=True)
            return _scores(num, (den[0][k], den[1][k]))

        return _lazy_start(np.where(feasible, r, -math.inf), exact)

    # map holds no channel's rows past its start: one channel's are alive
    starts = list(map(start, cloud_rows))

    def window_scores(P, segments):
        scores = []
        for a in range(0, len(P), block):
            # proposals a:b, their denominators and numerators in one call
            b = min(a + block, len(P))
            inside = [(k, max(s, a) - a, min(e, b) - a)
                      for k, s, e in segments if s < b and a < e]
            X, Y = (A.reshape(-1, A.shape[-1]) for A in window(P[a:b], inside))
            value, error = _divergence_rows(g, X, Y, rounding_error=True)
            m = b - a
            scores.append(_scores((value[m:], error[m:]), (value[:m], error[:m])))
        return np.concatenate(scores)

    return _climbs(cloud, starts, draws, build, window_scores, scale)


def _pad(A: np.ndarray, width: int) -> np.ndarray:
    """A with zero columns appended up to ``width``: the score rows of a
    rectangular channel and of its inputs share one width, and as
    0 f(0/0) = 0 no divergence changes."""
    extra = width - A.shape[-1]
    return A if extra == 0 else np.pad(A, [(0, 0)] * (A.ndim - 1) + [(0, extra)])


def eta_f_estimate(W, q, g: Generator, seed: int = 0) -> tuple[float, np.ndarray | None]:
    """Certified lower estimate of eta_f(W, q) with its witness input.

    For a quadratic generator (f'' constant and positive: pearson_chi2,
    hellinger and renyi_gain at alpha = 2) the value is exact: eta_f equals
    eta_chi2(W, q), bit for bit, and the witness is q moved along the second
    singular direction (see ``_chi2_estimates``); the seed is not used.

    Otherwise it samples the simplex (a cloud drawn with ``seed``, see
    ``_candidate_inputs``), excludes infeasible inputs (divergence zero or
    infinite), and refines the best candidate by _REFINE_STEPS steps of
    coordinate hill-climbing: refine step k reads the pair (i, j) and the
    share u of step k of the refine stream, two block draws of a generator
    seeded ``seed + 1`` (see ``_draw_moves``), and moves a share u of p_i,
    at most the step's scale, to p_j; a step with i == j is skipped.
    Ratios are scored net of their rounding bound (see ``_scores``) by the
    sampling engine of chains and channels (see ``_sampled``).
    """
    W, q = _channel(W, q)
    seed = _as_count(seed, "seed")
    if _quadratic(g):
        return _chi2_estimates([W], q)[0]
    return _chain_estimates(g, q, [W], seed)[0]


def _block_rows(cloud: np.ndarray) -> int:
    """Rows per block of about 2^12 entries, which keeps the kernels'
    temporaries small and in cache; rows are scored independently, so
    blocking changes no score."""
    return max(1, (1 << 12) // cloud[0].size)


# refine windows never shrink below this many proposals
_MIN_WINDOW = 8


def _climbs(cloud, starts, draws, build, window_scores, scale):
    """Best scores on one channel each, refined by first-improvement
    hill-climbing from ``starts``, the (score, index) of each channel's
    best candidate of ``cloud`` (the maximum score and the first index
    that attains it); the climbs run side by side.

    ``draws`` holds every refine step's random numbers as a tuple of
    per-step arrays.  ``build(current, draws, scales)`` turns steps into a
    stack of proposals from ``current``, one input per proposal; the scale
    shrinks by 0.98 per proposal.  Each round, every running climb builds a
    window of proposals from its current point, and one
    ``window_scores(P, segments)`` call scores them all: P stacks the
    windows, ``segments`` holds (climb, start, end) of each.  In each window
    the first proposal above its climb's best score is taken and the
    climb's next window starts at the step after it.  That is exactly the
    climb that scores one proposal at a time, so each result is
    bit-identical to it, and a round costs about one window's overhead
    however many climbs it serves.  Window widths adapt, up to the block
    size: after an acceptance at offset t the next window holds
    max(8, 2 (t + 1)) proposals, after a window without one the width
    doubles.
    Returns (max(best, 0), witness) per climb, or (0, None) and a warning
    where no candidate is feasible.
    """
    n_steps, block = len(draws[0]), _block_rows(cloud)
    results: list = [(0.0, None)] * len(starts)
    best, current, state = {}, {}, {}  # state: [scale, step, width]
    for k, (score, top) in enumerate(starts):
        if score == -math.inf:
            warnings.warn("no feasible input found; estimate 0")
            continue
        best[k], current[k] = score, cloud[top].copy()
        state[k] = [scale, 0, block]
    live = [k for k in best if n_steps > 0]
    while live:
        widths = [min(state[k][2], n_steps - state[k][1]) for k in live]
        w, offsets = np.array(widths), np.arange(max(widths))
        scales = np.full((len(live), len(offsets)), 0.98)
        scales[:, 0] = [state[k][0] for k in live]
        np.cumprod(scales, axis=1, out=scales)
        keep = offsets < w[:, np.newaxis]
        steps = (np.array([state[k][1] for k in live])[:, np.newaxis] + offsets)[keep]
        bases = np.repeat(np.stack([current[k] for k in live]), w, axis=0)
        stack = build(bases, [a[steps] for a in draws], scales[keep])
        ends = itertools.accumulate(widths)
        segments = [(k, e - wc, e) for k, wc, e in zip(live, widths, ends)]
        scores = window_scores(stack, segments)
        above = np.flatnonzero(scores > np.repeat([best[k] for k in live], widths)).tolist()
        for c, (k, a, b) in enumerate(segments):
            st, first = state[k], bisect.bisect_left(above, a)
            if first < len(above) and above[first] < b:
                t = above[first] - a
                best[k], current[k] = float(scores[a + t]), stack[a + t].copy()
                width = min(block, max(_MIN_WINDOW, 2 * (t + 1)))
                st[:] = scales[c, t] * 0.98, st[1] + t + 1, width
            else:
                st[:] = scales[c, b - a - 1] * 0.98, st[1] + b - a, min(block, 2 * st[2])
        live = [k for k in live if state[k][1] < n_steps]
    for k in best:
        results[k] = (max(best[k], 0.0), current[k])
    return results


def _kappa_up_sup(g: Generator, W: np.ndarray, q: np.ndarray) -> float:
    """Sup of kappa_up(Wp, Wq) over inputs p << q: each output ratio
    (Wp)_i / (Wq)_i is linear in p, so every kappa segment [1, ratio] lies in
    the union of those of the vertices e_j, j in supp q, and the sup is their
    maximum.  Every (Wq)_i is at least W_ij q_j, so a vertex output escapes
    supp Wq only where a tiny (Wq)_i is clamped to zero; the ratio there is
    unbounded against the clamped reference, and the sup is +inf, a vacuous
    but valid bound."""
    kup = _kappa_up_rows(g, W.T[q > 0.0], W @ q)
    return float(np.where(np.isnan(kup), math.inf, kup).max())


def eta_f_upper_bounds(
    W, q, g: Generator, *, pinsker_constant: float | None = None
) -> tuple[float, float | None]:
    """Nonlinear and linear upper bounds on eta_f(W, q).

    nonlinear = 4/(L q_min) * sup_p kappa_up(Wp, Wq) * eta_chi2;
    linear    = 4 (f'(1) + f(0)) / (L q_min) * eta_chi2, valid when
    (f(t)-f(0))/t is concave, f(0+) is finite, and q has full support.

    ``pinsker_constant`` overrides the generator's certified constant; any
    constant satisfying the Pinsker condition surfaces yields a valid bound.
    """
    W, q = _channel(W, q)
    L = _certified_constant(g, pinsker_constant)
    return _upper_bounds(g, 4.0, L, q, _eta_chi2(W, q), partial(_kappa_up_sup, g, W, q))


def _usable_constant(L: float | None) -> bool:
    """Whether L can scale the upper bounds: a Pinsker constant 0 < L < inf."""
    return L is not None and 0.0 < L < math.inf


def _certified_constant(g: Generator, override: float | None = None) -> float:
    """``override`` or the generator's certified Pinsker constant, which the
    upper bounds need usable (see ``_usable_constant``)."""
    L = override if override is not None else g.pinsker_constant
    if not _usable_constant(L):
        raise ValueError("bounds require a positive certified Pinsker constant")
    return L


def _linear_coeff(g: Generator) -> float | None:
    """f'(1) + f(0+), the coefficient of every linear bound, or None unless
    (f(t)-f(0))/t is concave and f(0+) is finite."""
    if g.g_concave and math.isfinite(g.f_at_zero):
        return float(g.f1(1.0)) + g.f_at_zero
    return None


def _reference_support(masses) -> tuple[bool, float]:
    """The support rule of the chi-squared-scaled bounds of chains and
    channels: whether every reference mass (pi, q, or the spectrum of sigma)
    is at least SUPPORT_EPSILON, and the least mass that is."""
    return bool(np.all(masses >= SUPPORT_EPSILON)), _q_min(masses)


def _upper_bounds(g: Generator, factor, L, masses, eta, kappa_sup):
    """The upper-bound engine of chains and channels: nonlinear = factor /
    (L m) * kup * eta and linear = factor (f'(1) + f(0)) / (L m) * eta, m the
    least positive of the reference ``masses`` (q, or the spectrum of sigma),
    where a mass below SUPPORT_EPSILON counts as zero.  kup = ``kappa_sup()``
    is taken only for a full-support reference or an infinite f'(inf), else
    nonlinear is inf; linear is None without a linear coefficient or a
    full-support reference."""
    full, least = _reference_support(masses)
    denom = L * least
    kup = kappa_sup() if full or math.isinf(g.fprime_at_inf) else math.inf
    nonlinear = factor / denom * kup * eta if math.isfinite(kup) else math.inf
    coeff = _linear_coeff(g)
    linear = factor * coeff / denom * eta if coeff is not None and full else None
    return nonlinear, linear


@dataclass(frozen=True)
class RatePoint:
    n: int
    eta_f_root: float  # eta_f(W^n, pi)^(1/n): exact for quadratic f, else a lower estimate
    envelope: float  # eta_chi2 * (4 kappa_sup / (L pi_min))^(1/n)
    within_envelope: bool


def contraction_rate_profile(W, g: Generator, n_max: int, seed: int = 0) -> list[RatePoint]:
    """Root-rate profile of eta_f(W^n, pi) against the chi-squared rate.

    Requires a unique stationary distribution and one of: irreducible and
    aperiodic; scrambling with full-support pi or f'(inf) = inf;
    indecomposable with full-support pi.  Also requires |f''(0)| < inf or an
    eventual-positivity index so the kappa terms stay finite.  A sampled
    root reads the estimates of ``eta_f_estimate(W^n, pi, g, seed)``.
    """
    W = _channel(W, square=True)
    n_max = _as_count(n_max, "n_max")
    return _ChainContext(W, g, _as_count(seed, "seed"), n_max).profile()


def convergence_bound(W, pi, p, n: int) -> tuple[float, float, float]:
    """TV(W^n p, pi) against the chi-squared convergence bounds.

    bound_general = eta^(n/2) sqrt(chi2(p||pi)) / 2; bound_full_support =
    sqrt(1/(2 pi_min)) eta^(n/2) when pi has full support (else +inf).
    """
    W, pi, p = _channel(W, pi, p, square=True)
    n = _as_count(n, "n")
    if float(np.abs(W @ pi - pi).sum()) > 1e-9:
        raise ValueError("pi is not stationary for W")
    eta2 = _eta_chi2(W, pi)
    tv_actual = _total_variation(_clamp(_iterate(W, p, n)), pi)
    chi2 = _chi_squared(p, pi)
    bound_general = 0.5 * eta2 ** (n / 2.0) * math.sqrt(chi2) if chi2 < math.inf else math.inf
    full, least = _reference_support(pi)
    bound_full = math.sqrt(1.0 / (2.0 * least)) * eta2 ** (n / 2.0) if full else math.inf
    return tv_actual, bound_general, bound_full


@dataclass(frozen=True)
class MixingTimeReport:
    tv_bound: int
    f_bound: int | None
    empirical_tv: int | None
    empirical_f: int | None
    eta_chi2: float
    pi_min: float
    empirical_within_bound: bool
    generator: str | None = None


def _tv_rows(P: np.ndarray, q: np.ndarray) -> np.ndarray:
    """total_variation(P[k], q) for every row of P."""
    return 0.5 * np.abs(_clamp(P) - _clamp(q)).sum(axis=1)


def _empirical_mixing(step, X, within, n_cap: int) -> int | None:
    """First n <= n_cap at which ``within(step^n(X))`` holds, else None; X
    stacks every probe input, so each step moves all of them at once, and
    no step is taken past n_cap."""
    for n in range(n_cap + 1):
        if n:
            X = step(X)
        if within(X):
            return n
    return None


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")


def _mixing_times(masses, targets, coeff, eta, delta, step, probes, distance, f_distance):
    """The mixing-time engine of chains and channels: (bound, f_bound,
    empirical, empirical_f, eta_chi2, least mass, within) against reference
    ``masses`` (pi, or the spectrum of sigma), which must all be at least
    SUPPORT_EPSILON: a start off the support has an infinite chi^2, so the
    chi-squared coefficient ``eta()`` bounds nothing there.  With m the
    least mass and ``targets`` (a, b), the bound is the least n >= 0 with
    eta^n <= a m delta^2, the f bound (None without the linear coefficient
    ``coeff``) the least n with eta^n <= m delta / (b coeff), each from a sum
    of logs less 1e-12 before the ceiling; at eta = 0 a bound is 1, or 0 for
    a log target that is not positive.  An empirical time is the first
    n <= max(2 bound, 64) at which ``distance`` (``f_distance``) of the
    probes moved n times by ``step`` is at most delta; ``within`` tells
    whether the bound's scan, if any, met it.  One scan serves both times:
    it steps the probes up to the larger cap and tests each distance until
    it meets delta or passes its own cap, on the same iterates, bit for
    bit, as a scan per time."""
    full, least = _reference_support(masses)
    if not full:
        raise ValueError("mixing times require a full-support stationary distribution")
    eta = eta()
    if eta >= 1.0 - 1e-12:
        raise ValueError("eta_chi2 >= 1: no finite mixing bound")
    a, b = targets
    log_targets = [-(math.log(a * least) + 2.0 * math.log(delta))]
    dists = [distance]
    if coeff is not None:
        log_targets.append(math.log(b * coeff) - math.log(delta) - math.log(least))
        dists.append(f_distance)
    bounds = [max(0, math.ceil(t / math.log(1.0 / eta) - 1e-12)) if eta > 0.0 else int(t > 0.0)
              for t in log_targets]
    empirical = [None, None]
    caps = [max(2 * bound, 64) for bound in bounds]
    n = -1

    def settled(X):
        # called once per iterate n = 0, 1, ...: records each time met at n
        nonlocal n
        n += 1
        for k, (dist, cap) in enumerate(zip(dists, caps)):
            if empirical[k] is None and n <= cap and dist(X) <= delta:
                empirical[k] = n
        return all(t is not None or n >= cap for t, cap in zip(empirical, caps))

    # distances below SUPPORT_EPSILON are rounding noise that no number of
    # steps removes: a smaller delta gets no scan, and nothing contradicts
    # its bounds
    scan = delta >= SUPPORT_EPSILON
    if scan:
        _empirical_mixing(step, probes, settled, max(caps))
    within = not scan or (empirical[0] is not None and empirical[0] <= bounds[0])
    f_bound = bounds[1] if coeff is not None else None
    return bounds[0], f_bound, empirical[0], empirical[1], eta, least, within


def mixing_time_bounds(W, delta: float, g: Generator | None = None) -> MixingTimeReport:
    """Mixing-time upper bounds from the chi-squared contraction coefficient.

    tv_bound = ceil(2 ln(1/(sqrt(2 pi_min) delta)) / ln(1/eta)), floored at 0;
    the f-divergence bound additionally needs (f(t)-f(0))/t concave, finite
    f(0+), and finite f'(1).  empirical_tv/empirical_f scan vertex inputs
    when delta is at least SUPPORT_EPSILON, and are None otherwise.
    """
    return _mixing_time(_channel(W, square=True), delta, g)


def _mixing_time(W: np.ndarray, delta: float, g: Generator | None) -> MixingTimeReport:
    """``mixing_time_bounds`` of a validated square W."""
    # a bad delta is reported ahead of any error of the stationary solve
    _check_delta(delta)
    if g is not None and _linear_coeff(g) is None:
        raise ValueError(
            "f-divergence bound requires finite f(0+) and (f(t)-f(0))/t concave"
        )
    return _mixing_report(W, delta, g, *_stationary_of(W))


def _mixing_report(W, delta, g, pi, unique, eta=None) -> MixingTimeReport:
    """``mixing_time_bounds`` with a checked delta and the stationary pi and
    its uniqueness given; ``eta()`` returns eta_chi2(W, pi) when given.  The
    f bound only where g has a linear coefficient."""
    if not unique:
        raise ValueError("mixing times require a unique stationary distribution")

    def largest(dist_rows):
        # the columns of W^n are the outputs of the vertex inputs
        return lambda P: dist_rows(np.ascontiguousarray(P.T), pi).max()

    return MixingTimeReport(
        *_mixing_times(
            pi, (2.0, 2.0), _linear_coeff(g) if g is not None else None,
            eta or partial(_eta_chi2, W, _clamp(pi)), delta, W.__matmul__,
            np.eye(W.shape[0]), largest(_tv_rows),
            largest(lambda P, q: _divergence_rows(g, _clamp(P), _clamp(q))),
        ),
        generator=g.label if g is not None else None,
    )


class _ChainContext:
    """The pieces that the sections of one chain report share, each made on
    first use and kept only as long as the object: structure(W), eta_chi2
    at its stationary pi and the normalized joint behind it, the estimates
    on W and its powers and the kappa_up sup of each power.  W is a validated
    channel and ``seed`` a checked seed of the estimates; ``profile_n`` is
    the n_max of the rate profile the report asks for, so that the
    estimates on W, W^2, ..., W^profile_n climb side by side."""

    def __init__(self, W: np.ndarray, g: Generator, seed: int, profile_n: int = 1):
        self.W, self.g, self.seed, self.profile_n = W, g, seed, profile_n
        self._kappa_sups: dict[int, float] = {}

    @cached_property
    def info(self) -> ChainStructure:
        return _structure(self.W)

    @cached_property
    def joint(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """W's ``_normalized_joint`` at pi, for eta2 and a witness."""
        return _normalized_joint(self.W, _clamp(self.info.stationary))

    @cached_property
    def eta2(self) -> float:
        return _eta_chi2(self.W, _clamp(self.info.stationary), lambda: self.joint)

    @cached_property
    def estimate(self) -> tuple[float, np.ndarray | None]:
        return self._estimates[0]

    @cached_property
    def _estimates(self) -> list[tuple[float, np.ndarray | None]]:
        """The estimates on W, ..., W^profile_n when the profile can run,
        else on W alone; a profile that cannot run reports why itself.  A
        quadratic generator reads them off eta_chi2 of each power, the one
        of W being ``eta2``."""
        Ws = self.powers[0] if self._profile_error() is None else [self.W]
        if _quadratic(self.g):
            return _chi2_estimates(Ws, _clamp(self.info.stationary), self.eta2, self.joint)
        return _chain_estimates(self.g, self.info.stationary, Ws, self.seed)

    @cached_property
    def powers(self) -> tuple[list[np.ndarray], str | None]:
        """W, W^2, ..., W^profile_n and None; or the powers before the first
        one whose column sums drift past the tolerance, and that error."""
        powers = [self.W]
        for _ in range(2, self.profile_n + 1):
            power = powers[-1] @ self.W
            try:
                _check_column_sums(power)
            except ValueError as exc:
                return powers, str(exc)
            powers.append(power)
        return powers, None

    def _profile_error(self) -> str | None:
        """Why ``profile()`` cannot run, or None."""
        g, info = self.g, self.info
        if self.profile_n < 2:
            return "n_max must be at least 2"
        if not _usable_constant(g.pinsker_constant):
            return "profile requires a positive certified constant"
        if not info.stationary_unique or info.stationary is None:
            return "profile requires a unique stationary distribution"
        pi = info.stationary
        pi_full = _reference_support(pi)[0]
        cond = (
            (info.irreducible and info.aperiodic)
            or (info.scrambling and (pi_full or math.isinf(g.fprime_at_inf)))
            or (info.indecomposable and pi_full)
        )
        return self.powers[1] if cond else "no structural convergence condition holds"

    def upper_bounds(self) -> tuple[float, float | None] | None:
        """``eta_f_upper_bounds(W, pi, g)``, or None when g carries no
        usable certified Pinsker constant."""
        L = self.g.pinsker_constant
        if not _usable_constant(L):
            return None
        kappa_sup = partial(self._kappa_sup, 1, self.W)
        return _upper_bounds(self.g, 4.0, L, self.info.stationary, self.eta2, kappa_sup)

    def _kappa_sup(self, n: int, Wn: np.ndarray) -> float:
        """``_kappa_up_sup(g, Wn, pi)`` of Wn = W^n, computed once per power:
        the upper bounds and the rate profile share the one of W."""
        if n not in self._kappa_sups:
            self._kappa_sups[n] = _kappa_up_sup(self.g, Wn, self.info.stationary)
        return self._kappa_sups[n]

    def mixing(self, delta: float, g: Generator | None) -> MixingTimeReport:
        """``mixing_time_bounds(W, delta, g)``, the f bound where g has one."""
        _check_delta(delta)
        info, eta = self.info, lambda: self.eta2
        return _mixing_report(self.W, delta, g, info.stationary, info.stationary_unique, eta)

    def profile(self) -> list[RatePoint]:
        """``contraction_rate_profile(W, g, profile_n, seed)``; the n = 1
        point is the estimate on W, as I @ W equals W bit for bit."""
        error = self._profile_error()
        if error is not None:
            raise ValueError(error)
        g, pi = self.g, self.info.stationary
        eta2, pi_min = self.eta2, _reference_support(pi)[1]
        powers, _ = self.powers
        out = []
        for n, Wn, (est, _) in zip(itertools.count(1), powers, self._estimates):
            root = est ** (1.0 / n) if est > 0.0 else 0.0
            kappa_sup = self._kappa_sup(n, Wn)
            if math.isfinite(kappa_sup) and kappa_sup > 0:
                envelope = eta2 * (4.0 * kappa_sup / (g.pinsker_constant * pi_min)) ** (
                    1.0 / n
                )
            else:
                envelope = math.inf
            out.append(
                RatePoint(
                    n=n,
                    eta_f_root=root,
                    envelope=envelope,
                    within_envelope=root <= envelope + 1e-9,
                )
            )
        return out
