"""Input-dependent contraction coefficients and Markov-chain rate machinery.

eta_chi2 is exact (squared second singular value of the normalized joint
matrix); eta_f is estimated from below by sampling the simplex (exhaustive
1-D grid on binary alphabets) and bounded from above by the nonlinear
kappa-based bound and, for generators with (f(t)-f(0))/t concave, the linear
bound, whose kappa sup is a maximum over simplex vertices.  All sampling is
driven by a root seed and is deterministic.  Estimates against one
reference share one estimate context (the candidate cloud, its
denominators and the refine stream), and the sections of one chain report
share one chain context (structure, pi, eta_chi2 and that estimate
context), so a report computes each of them once.
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
from .generators import Generator
from .markov import (
    ChainStructure,
    _channel,
    _check_column_sums,
    _iterate,
    _stationary_of,
    _structure,
)

__all__ = [
    "SampleBudget",
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


@dataclass(frozen=True)
class SampleBudget:
    """Sampling configuration for contraction estimates."""

    n_samples: int = 400
    seed: int = 0
    refine_steps: int = 200

    def __post_init__(self):
        _as_count(self.n_samples, "n_samples", 100)
        _as_count(self.seed, "seed")
        _as_count(self.refine_steps, "refine_steps")


def eta_chi2(W, q) -> float:
    """Exact input-dependent chi-squared contraction coefficient.

    Builds the joint distribution of input q and output Wq, normalizes by the
    square-rooted marginals, and returns the squared second singular value.
    """
    return _eta_chi2(*_channel(W, q))


def _eta_chi2(W: np.ndarray, q: np.ndarray) -> float:
    """``eta_chi2`` of a validated channel and reference, unchecked."""
    if int(np.sum(q > 0.0)) <= 1:
        warnings.warn("degenerate reference (all mass on one symbol); eta = 0")
        return 0.0
    out = W @ q
    x_keep = np.flatnonzero(q > 0.0)
    y_keep = np.flatnonzero(out > 0.0)
    joint = W[np.ix_(y_keep, x_keep)] * q[x_keep][np.newaxis, :]
    norm = np.sqrt(np.outer(out[y_keep], q[x_keep]))
    return _second_singular_value_sq(joint / norm)


def _second_singular_value_sq(M: np.ndarray) -> float:
    """Squared second singular value of M clipped to [0, 1]; 0 when M has
    fewer than two singular values."""
    s = np.linalg.svd(M, compute_uv=False)
    if s.size < 2:
        return 0.0
    return float(min(max(s[1] ** 2, 0.0), 1.0))


def _candidate_inputs(n: int, q: np.ndarray, budget: SampleBudget) -> np.ndarray:
    """Deterministic candidate cloud: exhaustive grid in 1-D, otherwise
    Dirichlet samples plus vertices blended toward the reference."""
    if n == 2:
        a = np.linspace(0.0, 1.0, BINARY_GRID_N)
        return np.column_stack([a, 1.0 - a])
    rng = np.random.default_rng(budget.seed)
    cloud = [rng.dirichlet(np.ones(n), size=budget.n_samples)]
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


def _pair_scores(g: Generator, P, WP, refs) -> np.ndarray:
    """Scores of D_f(WP[k] || refs[m + k]) / D_f(P[k] || refs[k]) for the m
    rows of P and WP, ``refs`` holding 2m clamped reference rows.  One
    kernel call scores the denominators and the numerators."""
    m = len(P)
    rows = _clamp(np.concatenate([P, WP]))
    value, error = _divergence_rows(g, rows, refs, rounding_error=True)
    return _scores((value[m:], error[m:]), (value[:m], error[:m]))


def _ratio_scores(g: Generator, den, num_rows) -> np.ndarray:
    """Scores of D_f(num_rows[k]) / den[k] for every row k (see ``_scores``):
    ``den`` is the (value, rounding bound) pair of ``_divergence_rows`` with
    ``rounding_error``, ``num_rows`` a (P, Q) pair of rows for the unclamped
    kernel body."""
    return _scores(_divergence_rows(g, *num_rows, rounding_error=True), den)


def _scores(num, den) -> np.ndarray:
    """Scores of the ratios num / den of two (value, rounding bound) pairs.

    Each ratio r is lowered by its rounding bound (e_num + |r| e_den) / den,
    so rounding noise does not lift a score above the exact ratio of its
    input; inputs with a denominator outside (1e-12, inf) or an infinite
    numerator score -inf.
    """
    (num, e_num), (den, e_den) = num, den
    feasible = (den > 1e-12) & (den < math.inf) & np.isfinite(num)
    num = np.where(feasible & (num >= NUMERATOR_NOISE_FLOOR), num, 0.0)
    den = np.where(feasible, den, 1.0)
    r = num / den
    score = r - (e_num + np.abs(r) * e_den) / den
    return np.where(feasible, score, -math.inf)


def _draw_moves(rng: np.random.Generator, n: int, steps: int):
    """The refine stream of ``eta_f_estimate``: per step a pair i != j and a
    share u; a step that draws i == j is skipped and keeps the scale.  Two
    scalar draws give the stream of one ``size=2`` draw at less overhead."""
    i, j, u = [], [], []
    for _ in range(steps):
        a, b = rng.integers(0, n), rng.integers(0, n)
        if a != b:
            i.append(a)
            j.append(b)
            u.append(rng.random())
    return np.array(i, dtype=np.intp), np.array(j, dtype=np.intp), np.array(u)


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


class _EstimateContext:
    """What every eta_f estimate against one reference q under one budget
    shares: the candidate cloud, each cloud block's denominators
    D_f(p || q) with their rounding bounds, and the refine stream.  An
    estimate on a channel then scores only its numerators."""

    def __init__(self, g: Generator, q: np.ndarray, budget: SampleBudget):
        n = q.shape[0]
        self.g, self.q = g, q
        self.cloud = _candidate_inputs(n, q, budget)
        block = _block_rows(self.cloud)
        self.blocks = [self.cloud[s : s + block] for s in range(0, len(self.cloud), block)]
        self.dens = [
            _divergence_rows(g, _clamp(P), _clamp(q), rounding_error=True)
            for P in self.blocks
        ]
        rng = np.random.default_rng(budget.seed + 1)
        self.draws = _draw_moves(rng, n, budget.refine_steps)

    def estimates(self, Ws: list[np.ndarray]) -> list[tuple[float, np.ndarray | None]]:
        """``eta_f_estimate(W, q, g, budget)`` for every validated channel W
        of ``Ws``; the climbs run side by side (see ``_climbs``)."""
        g, block = self.g, len(self.blocks[0])
        zeros = np.zeros(block, dtype=np.intp)
        width = max(self.q.size, Ws[0].shape[0])
        Wqs = [_pad(_clamp(W @ self.q), width) for W in Ws]
        refs = np.stack([_pad(_clamp(self.q), width)] + Wqs)  # row 0 is q, row k + 1 is Ws[k] q

        def window_scores(P, segments):
            # each Wp a one-row product, bit-equal to scoring p alone; the
            # product over all rows at once may round differently
            WP = np.empty((len(P), Ws[0].shape[0]))
            ref_rows = np.empty(len(P), dtype=np.intp)
            for k, a, b in segments:
                WP[a:b] = (P[a:b, np.newaxis, :] @ Ws[k].T)[:, 0]
                ref_rows[a:b] = k + 1
            # a block of proposals per kernel call keeps its temporaries small
            scores = []
            for a in range(0, len(P), block):
                b = min(a + block, len(P))
                rows = np.concatenate([zeros[: b - a], ref_rows[a:b]])
                scores.append(
                    _pair_scores(g, _pad(P[a:b], width), _pad(WP[a:b], width), refs[rows])
                )
            return np.concatenate(scores)

        cloud_scores = [self._cloud_scores(W, Wq, width) for W, Wq in zip(Ws, Wqs)]
        return _climbs(
            self.cloud, cloud_scores, self.draws, _build_moves, window_scores, 0.25
        )

    def _cloud_scores(self, W: np.ndarray, Wq: np.ndarray, width: int) -> np.ndarray:
        """Scores of the cloud on W, Wq = W q clamped and padded to
        ``width``, block by block."""
        return np.concatenate([
            _ratio_scores(self.g, den, (_pad(_clamp(P @ W.T), width), Wq))
            for P, den in zip(self.blocks, self.dens)
        ])


def _pad(A: np.ndarray, width: int) -> np.ndarray:
    """A with zero columns appended up to ``width``: the score rows of a
    rectangular channel and of its inputs share one width, and as
    0 f(0/0) = 0 no divergence changes."""
    extra = width - A.shape[-1]
    return A if extra == 0 else np.pad(A, [(0, 0)] * (A.ndim - 1) + [(0, extra)])


def eta_f_estimate(
    W, q, g: Generator, budget: SampleBudget | None = None
) -> tuple[float, np.ndarray | None]:
    """Certified lower estimate of eta_f(W, q) with its witness input.

    Samples the simplex, excludes infeasible inputs (divergence zero or
    infinite), and refines the best candidate by coordinate hill-climbing:
    each refine step draws a pair i != j and moves a random share of p_i,
    at most the step's scale, to p_j.  Ratios are scored net of their
    rounding bound (see ``_ratio_scores``).
    """
    W, q = _channel(W, q)
    return _EstimateContext(g, q, budget or SampleBudget()).estimates([W])[0]


def _block_rows(cloud: np.ndarray) -> int:
    """Rows per block of about 2^12 entries, which keeps the kernels'
    temporaries small and in cache; rows are scored independently, so
    blocking changes no score."""
    return max(1, (1 << 12) // cloud[0].size)


# refine windows never shrink below this many proposals
_MIN_WINDOW = 8


def _climbs(cloud, cloud_scores, draws, build, window_scores, scale):
    """Best of each of ``cloud_scores``, the cloud's scores on one channel
    each, over the candidate cloud, refined by first-improvement
    hill-climbing; the climbs run side by side.

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
    results: list = [(0.0, None)] * len(cloud_scores)
    best, current, state = {}, {}, {}  # state: [scale, step, width]
    for k, scores in enumerate(cloud_scores):
        top = int(np.argmax(scores))
        if scores[top] == -math.inf:
            warnings.warn("no feasible input found; estimate 0")
            continue
        best[k], current[k] = float(scores[top]), cloud[top].copy()
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
    return _eta_f_upper(g, q, L, _eta_chi2(W, q), partial(_kappa_up_sup, g, W, q))


def _certified_constant(g: Generator, override: float | None = None) -> float:
    """``override`` or the generator's certified Pinsker constant, which the
    upper bounds need positive."""
    L = override if override is not None else g.pinsker_constant
    if L is None or not 0.0 < L < math.inf:
        raise ValueError("bounds require a positive certified Pinsker constant")
    return L


def _eta_f_upper(g: Generator, q, L: float, eta2: float, kappa_sup):
    """``eta_f_upper_bounds`` with L and eta_chi2(W, q) given; ``kappa_sup()``
    returns _kappa_up_sup(g, W, q) and is called only where the nonlinear
    bound needs it."""
    q_full = bool(np.all(q > 0.0))
    kup = math.inf
    if math.isinf(g.fprime_at_inf) or q_full:
        kup = kappa_sup()
    return _upper_bounds(g, 4.0, L * _q_min(q), eta2, kup, q_full)


def _linear_coeff(g: Generator) -> float | None:
    """f'(1) + f(0+), the coefficient of every linear bound, or None unless
    (f(t)-f(0))/t is concave and f(0+) is finite."""
    if g.g_concave and math.isfinite(g.f_at_zero):
        return float(g.f1(1.0)) + g.f_at_zero
    return None


def _upper_bounds(g: Generator, factor, denom, eta, kup, full: bool):
    """nonlinear = factor / denom * kup * eta (inf with the kappa sup kup) and
    linear = factor (f'(1) + f(0)) / denom * eta, None without a linear
    coefficient (``_linear_coeff``) or a full-support reference."""
    nonlinear = factor / denom * kup * eta if math.isfinite(kup) else math.inf
    coeff = _linear_coeff(g)
    linear = None
    if coeff is not None and full:
        linear = factor * coeff / denom * eta
    return nonlinear, linear


@dataclass(frozen=True)
class RatePoint:
    n: int
    eta_f_root: float  # eta_f(W^n, pi)^(1/n), estimated
    envelope: float  # eta_chi2 * (4 kappa_sup / (L pi_min))^(1/n)
    within_envelope: bool


def contraction_rate_profile(
    W, g: Generator, n_max: int, budget: SampleBudget | None = None
) -> list[RatePoint]:
    """Root-rate profile of eta_f(W^n, pi) against the chi-squared rate.

    Requires a unique stationary distribution and one of: irreducible and
    aperiodic; scrambling with full-support pi or f'(inf) = inf;
    indecomposable with full-support pi.  Also requires |f''(0)| < inf or an
    eventual-positivity index so the kappa terms stay finite.
    """
    W = _channel(W, square=True)
    return _ChainContext(W, g, budget or SampleBudget(), _as_count(n_max, "n_max")).profile()


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
    if np.all(pi > 0.0):
        bound_full = math.sqrt(1.0 / (2.0 * float(pi.min()))) * eta2 ** (n / 2.0)
    else:
        bound_full = math.inf
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
    stacks every probe input, so each step moves all of them at once."""
    for n in range(n_cap + 1):
        if within(X):
            return n
        X = step(X)
    return None


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")


def _mixing_times(eta, delta, log_bound, log_f, step, probes, distance, f_distance):
    """The mixing-time engine of chains and channels: (bound, f_bound,
    empirical, empirical_f, within) from the chi-squared coefficient eta,
    the f pair None without ``log_f``.  A bound is the least n >= 0 with
    eta^n <= exp(-log target), less 1e-12 before the ceiling; at eta = 0 it
    is 1, or 0 for a bound whose log target is not positive.  An empirical
    time is the first n <= max(2 bound, 64) at which ``distance``
    (``f_distance``) of the probes moved n times by ``step`` is at most
    delta; ``within`` tells whether the bound's scan, if any, met it."""
    if eta >= 1.0 - 1e-12:
        raise ValueError("eta_chi2 >= 1: no finite mixing bound")
    # distances below SUPPORT_EPSILON are rounding noise that no number of
    # steps removes: a smaller delta gets no scan, and nothing contradicts
    # its bounds
    scan = delta >= SUPPORT_EPSILON
    bounds, empirical = [None, None], [None, None]
    targets = ((log_bound, int(log_bound > 0.0), distance), (log_f, 1, f_distance))
    for k, (log_target, at_zero, dist) in enumerate(targets):
        if log_target is None:
            break
        bounds[k] = at_zero
        if eta > 0.0:
            bounds[k] = max(0, math.ceil(log_target / math.log(1.0 / eta) - 1e-12))
        if scan:
            done = lambda X: dist(X) <= delta
            empirical[k] = _empirical_mixing(step, probes, done, max(2 * bounds[k], 64))
    within = not scan or (empirical[0] is not None and empirical[0] <= bounds[0])
    return bounds[0], bounds[1], empirical[0], empirical[1], within


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
    return _mixing_report(W, delta, g, _stationary_of(W))


def _mixing_report(W, delta, g, stationary, eta=None) -> MixingTimeReport:
    """``mixing_time_bounds`` with a checked delta, the (pi, unique) pair of
    the stationary solve given, and eta_chi2(W, pi) unless ``eta`` holds
    it; the f bound only where g has a linear coefficient.  The log targets
    are sums of logs, so a tiny delta gets a finite bound."""
    pi, unique = stationary
    if not unique:
        raise ValueError("mixing times require a unique stationary distribution")
    if not np.all(pi > 0.0):
        raise ValueError("mixing times require a full-support stationary distribution")
    if eta is None:
        eta = _eta_chi2(W, _clamp(pi))
    pi_min = float(pi.min())
    # ln(1/x) for x = sqrt(2 pi_min) delta
    log_tv = -(0.5 * math.log(2.0 * pi_min) + math.log(delta))
    coeff = _linear_coeff(g) if g is not None else None
    log_f = None
    if coeff is not None:
        log_f = math.log(2.0 * coeff) - math.log(delta) - math.log(pi_min)

    def largest(dist_rows):
        # the columns of W^n are the outputs of the vertex inputs
        return lambda P: dist_rows(np.ascontiguousarray(P.T), pi).max()

    tv_bound, f_bound, empirical_tv, empirical_f, within = _mixing_times(
        eta, delta, 2.0 * log_tv, log_f, W.__matmul__, np.eye(W.shape[0]),
        largest(_tv_rows), largest(lambda P, q: _divergence_rows(g, _clamp(P), _clamp(q))),
    )
    return MixingTimeReport(
        tv_bound=tv_bound,
        f_bound=f_bound,
        empirical_tv=empirical_tv,
        empirical_f=empirical_f,
        eta_chi2=eta,
        pi_min=pi_min,
        empirical_within_bound=within,
        generator=g.label if g is not None else None,
    )


class _ChainContext:
    """The pieces that the sections of one chain report share, each made on
    first use and kept only as long as the object: structure(W), eta_chi2
    at its stationary pi, the estimate context at pi, the estimates on W
    and its powers and the kappa_up sup of each power.  W is a validated
    channel; ``profile_n`` is the n_max of the rate profile the report asks
    for, so that the estimates on W, W^2, ..., W^profile_n climb side by
    side."""

    def __init__(self, W: np.ndarray, g: Generator, budget: SampleBudget, profile_n: int = 1):
        self.W, self.g, self.budget, self.profile_n = W, g, budget, profile_n
        self._kappa_sups: dict[int, float] = {}

    @cached_property
    def info(self) -> ChainStructure:
        return _structure(self.W)

    @cached_property
    def eta2(self) -> float:
        return _eta_chi2(self.W, _clamp(self.info.stationary))

    @cached_property
    def context(self) -> _EstimateContext:
        return _EstimateContext(self.g, self.info.stationary, self.budget)

    @cached_property
    def estimate(self) -> tuple[float, np.ndarray | None]:
        return self._estimates[0]

    @cached_property
    def _estimates(self) -> list[tuple[float, np.ndarray | None]]:
        """The estimates on W, ..., W^profile_n when the profile can run,
        else on W alone; a profile that cannot run reports why itself."""
        Ws = self.powers[0] if self._profile_error() is None else [self.W]
        return self.context.estimates(Ws)

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
        if g.pinsker_constant is None or g.pinsker_constant <= 0:
            return "profile requires a positive certified constant"
        if not info.stationary_unique or info.stationary is None:
            return "profile requires a unique stationary distribution"
        pi = info.stationary
        pi_full = bool(np.all(pi > 0.0))
        cond = (
            (info.irreducible and info.aperiodic)
            or (info.scrambling and (pi_full or math.isinf(g.fprime_at_inf)))
            or (info.indecomposable and pi_full)
        )
        return self.powers[1] if cond else "no structural convergence condition holds"

    def upper_bounds(self) -> tuple[float, float | None] | None:
        """``eta_f_upper_bounds(W, pi, g)``, or None when g carries no
        certified Pinsker constant."""
        L = self.g.pinsker_constant
        if L is None or L <= 0.0:
            return None
        return _eta_f_upper(
            self.g, self.info.stationary, L, self.eta2, partial(self._kappa_sup, 1, self.W)
        )

    def _kappa_sup(self, n: int, Wn: np.ndarray) -> float:
        """``_kappa_up_sup(g, Wn, pi)`` of Wn = W^n, computed once per power:
        the upper bounds and the rate profile share the one of W."""
        if n not in self._kappa_sups:
            self._kappa_sups[n] = _kappa_up_sup(self.g, Wn, self.info.stationary)
        return self._kappa_sups[n]

    def mixing(self, delta: float, g: Generator | None) -> MixingTimeReport:
        """``mixing_time_bounds(W, delta, g)``, the f bound where g has one."""
        _check_delta(delta)
        info = self.info
        stationary = (info.stationary, info.stationary_unique)
        return _mixing_report(self.W, delta, g, stationary, self.eta2)

    def profile(self) -> list[RatePoint]:
        """``contraction_rate_profile(W, g, profile_n, budget)``; the n = 1
        point is the estimate on W, as I @ W equals W bit for bit."""
        error = self._profile_error()
        if error is not None:
            raise ValueError(error)
        g, pi = self.g, self.info.stationary
        eta2, pi_min = self.eta2, _q_min(pi)
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
