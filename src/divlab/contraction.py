"""Input-dependent contraction coefficients and Markov-chain rate machinery.

eta_chi2 is exact (squared second singular value of the normalized joint
matrix); eta_f is estimated from below by sampling the simplex (exhaustive
1-D grid on binary alphabets) and bounded from above by the nonlinear
kappa-based bound and, for generators with (f(t)-f(0))/t concave, the linear
bound, whose kappa sup is a maximum over simplex vertices.  All sampling is
driven by a root seed and is deterministic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .chi2bounds import _kappa_up_max, q_min_on_support
from .divergence import (
    _clamp,
    _divergence_rows,
    as_prob_vec,
    chi_squared,
    f_divergence_rows,
    total_variation,
)
from .generators import Generator
from .markov import as_channel, iterate, stationary_distribution, structure

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


@dataclass(frozen=True)
class SampleBudget:
    """Sampling configuration for contraction estimates."""

    n_samples: int = 400
    seed: int = 0
    refine_steps: int = 200
    blend_weights: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

    def __post_init__(self):
        if self.n_samples < 100:
            raise ValueError("budget requires at least 100 samples")


def eta_chi2(W, q) -> float:
    """Exact input-dependent chi-squared contraction coefficient.

    Builds the joint distribution of input q and output Wq, normalizes by the
    square-rooted marginals, and returns the squared second singular value.
    """
    W = as_channel(W)
    q = as_prob_vec(q)
    if W.shape[1] != q.shape[0]:
        raise ValueError("dimension mismatch between channel and reference")
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
    for w in budget.blend_weights:
        cloud.append((1.0 - w) * vertices + w * q[np.newaxis, :])
    return np.vstack(cloud)


# absolute rounding-noise floor for divergence sums of unit-mass vectors:
# f evaluations near t = 1 carry ~1e-16 absolute error, so numerators below
# this level are indistinguishable from zero and counted as zero to keep the
# estimate a genuine lower bound
NUMERATOR_NOISE_FLOOR = 1e-13


def _ratios(
    g: Generator, W: np.ndarray, q: np.ndarray, P: np.ndarray, rowwise: bool = False
) -> np.ndarray:
    """Scores of D_f(Wp || Wq) / D_f(p || q) for every row p of P.

    With ``rowwise`` each Wp is a one-row product, bit-equal to scoring p
    alone; the product over all rows at once may round differently.
    """
    WP = (P[:, np.newaxis, :] @ W.T)[:, 0] if rowwise else P @ W.T
    return _ratio_scores(g, (_clamp(P), _clamp(q)), (_clamp(WP), _clamp(W @ q)))


def _ratio_scores(g: Generator, den_rows, num_rows) -> np.ndarray:
    """Scores of D_f(num_rows[k]) / D_f(den_rows[k]) for every row k, each
    argument a (P, Q) pair of rows for the unclamped kernel body.

    Each ratio r is lowered by its rounding bound (e_num + |r| e_den) / den,
    so rounding noise does not lift a score above the exact ratio of its
    input; inputs with a denominator outside (1e-12, inf) or an infinite
    numerator score -inf.
    """
    den, e_den = _divergence_rows(g, *den_rows, rounding_error=True)
    num, e_num = _divergence_rows(g, *num_rows, rounding_error=True)
    feasible = (den > 1e-12) & (den < math.inf) & np.isfinite(num)
    num = np.where(feasible & (num >= NUMERATOR_NOISE_FLOOR), num, 0.0)
    den = np.where(feasible, den, 1.0)
    r = num / den
    score = r - (e_num + np.abs(r) * e_den) / den
    return np.where(feasible, score, -math.inf)


def eta_f_estimate(
    W, q, g: Generator, budget: SampleBudget | None = None
) -> tuple[float, np.ndarray | None]:
    """Certified lower estimate of eta_f(W, q) with its witness input.

    Samples the simplex, excludes infeasible inputs (divergence zero or
    infinite), and refines the best candidate by coordinate hill-climbing:
    each refine step draws a pair i != j and moves a random share of p_i,
    at most the step's scale, to p_j.  Ratios are scored net of their
    rounding bound (see ``_ratios``).
    """
    W = as_channel(W)
    q = as_prob_vec(q)
    if budget is None:
        budget = SampleBudget()
    n = q.shape[0]

    def draw(rng, steps):
        # a step that draws i == j is skipped and keeps the scale
        i, j, u = [], [], []
        for _ in range(steps):
            a, b = rng.integers(0, n, size=2)
            if a != b:
                i.append(a)
                j.append(b)
                u.append(rng.random())
        return np.array(i, dtype=np.intp), np.array(j, dtype=np.intp), np.array(u)

    def build(current, draws, scales):
        i, j, u = draws
        rows = np.arange(len(u))
        move = scales * u * np.minimum(1.0, current[i])
        P = np.repeat(current[np.newaxis], len(u), axis=0)
        P[rows, i] -= move
        P[rows, j] += move
        P = np.maximum(P, 0.0)
        return P / P.sum(axis=1, keepdims=True), np.ones(len(u), dtype=bool)

    return _hill_climb(
        partial(_ratios, g, W, q), _candidate_inputs(n, q, budget), draw, build,
        budget, 0.25, window_scores=partial(_ratios, g, W, q, rowwise=True),
    )


def _hill_climb(scores, cloud, draw, build, budget, scale: float, window_scores=None):
    """Best score over the candidate cloud, refined by first-improvement
    hill-climbing.

    ``scores`` maps a stack of inputs to their scores.  ``draw(rng, steps)``
    takes every refine step's random numbers from the stream seeded with
    seed + 1, in the order a step-by-step climb would, and returns them as a
    tuple of per-step arrays.  ``build(current, draws, scales)`` turns a run
    of those steps into a stack of proposals from ``current`` and a mask of
    the valid ones; the scale shrinks by 0.98 per valid proposal.
    A window of up to the block size of proposals is built from the current
    point and scored by one ``window_scores`` call (default ``scores``);
    the first proposal above the best score is taken and the next window
    starts at the step after it.  That is exactly the climb that scores one
    proposal at a time, so the result is bit-identical to it.
    Returns (max(best, 0), witness), or (0, None) and a warning when no
    candidate is feasible.
    """
    # blocks of about 2^12 entries keep the kernels' temporaries small and
    # in cache; rows are scored independently, so blocking changes no score
    block = max(1, (1 << 12) // cloud[0].size)
    all_scores = np.concatenate(
        [scores(cloud[s : s + block]) for s in range(0, len(cloud), block)]
    )
    k = int(np.argmax(all_scores))
    best = float(all_scores[k])
    if best == -math.inf:
        warnings.warn("no feasible input found; estimate 0")
        return 0.0, None
    window_scores = window_scores or scores
    draws = draw(np.random.default_rng(budget.seed + 1), budget.refine_steps)
    current = cloud[k].copy()
    step, n_steps = 0, len(draws[0])
    while step < n_steps:
        scales = [scale]
        for _ in range(min(block, n_steps - step) - 1):
            scales.append(scales[-1] * 0.98)
        stack, valid = build(current, [a[step : step + len(scales)] for a in draws],
                             np.array(scales))
        # an invalid proposal keeps the scale, so the ones after it were
        # built with the wrong scale: the window ends there
        m = len(scales) if valid.all() else int(np.argmin(valid))
        window = window_scores(stack[:m]) if m else np.empty(0)
        above = np.flatnonzero(window > best)
        if above.size:
            t = int(above[0])
            best, current = float(window[t]), stack[t].copy()
            scale, step = scales[t] * 0.98, step + t + 1
        elif m < len(scales):
            scale, step = scales[m], step + m + 1
        else:
            scale, step = scales[-1] * 0.98, step + m
    return max(best, 0.0), current


def _kappa_up_sup(g: Generator, W: np.ndarray, q: np.ndarray) -> float:
    """Sup of kappa_up(Wp, Wq) over inputs p << q: each output ratio
    (Wp)_i / (Wq)_i is linear in p, so every kappa segment [1, ratio] lies in
    the union of those of the vertices e_j, j in supp q, and the sup is their
    maximum."""
    return _kappa_up_max(g, W.T[q > 0.0], W @ q)


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
    W = as_channel(W)
    q = as_prob_vec(q)
    L = pinsker_constant if pinsker_constant is not None else g.pinsker_constant
    if L is None or L <= 0.0:
        raise ValueError("bounds require a positive certified Pinsker constant")
    eta2 = eta_chi2(W, q)
    qmin = q_min_on_support(q)

    q_full = bool(np.all(q > 0.0))
    kappa_sup = math.inf
    if math.isinf(g.fprime_at_inf) or q_full:
        kappa_sup = _kappa_up_sup(g, W, q)
    return _upper_bounds(g, 4.0, L * qmin, eta2, kappa_sup, q_full)


def _upper_bounds(g: Generator, factor, denom, eta, kup, full: bool):
    """nonlinear = factor / denom * kup * eta (inf with the kappa sup kup) and
    linear = factor (f'(1) + f(0)) / denom * eta, None unless (f(t)-f(0))/t
    is concave, f(0+) is finite and the reference has full support."""
    nonlinear = factor / denom * kup * eta if math.isfinite(kup) else math.inf
    linear = None
    if g.g_concave and math.isfinite(g.f_at_zero) and full:
        linear = factor * (float(g.f1(1.0)) + g.f_at_zero) / denom * eta
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
    W = as_channel(W)
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if budget is None:
        budget = SampleBudget()
    if g.pinsker_constant is None or g.pinsker_constant <= 0:
        raise ValueError("profile requires a positive certified constant")
    info = structure(W)
    if not info.stationary_unique or info.stationary is None:
        raise ValueError("profile requires a unique stationary distribution")
    pi = info.stationary
    pi_full = bool(np.all(pi > 0.0))
    cond = (
        (info.irreducible and info.aperiodic)
        or (info.scrambling and (pi_full or math.isinf(g.fprime_at_inf)))
        or (info.indecomposable and pi_full)
    )
    if not cond:
        raise ValueError("no structural convergence condition holds")

    eta2 = eta_chi2(W, pi)
    pi_min = q_min_on_support(pi)
    out = []
    Wn = np.eye(W.shape[0])
    for n in range(1, n_max + 1):
        Wn = Wn @ W
        est, _ = eta_f_estimate(Wn, pi, g, budget)
        root = est ** (1.0 / n) if est > 0.0 else 0.0
        kappa_sup = _kappa_up_sup(g, Wn, pi)
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


def convergence_bound(W, pi, p, n: int) -> tuple[float, float, float]:
    """TV(W^n p, pi) against the chi-squared convergence bounds.

    bound_general = eta^(n/2) sqrt(chi2(p||pi)) / 2; bound_full_support =
    sqrt(1/(2 pi_min)) eta^(n/2) when pi has full support (else +inf).
    """
    W = as_channel(W)
    pi = as_prob_vec(pi)
    p = as_prob_vec(p)
    if float(np.abs(W @ pi - pi).sum()) > 1e-9:
        raise ValueError("pi is not stationary for W")
    eta2 = eta_chi2(W, pi)
    tv_actual = total_variation(iterate(W, p, n), pi)
    chi2 = chi_squared(p, pi)
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


def _mixing_steps(eta: float, log_target: float, at_zero: int) -> int:
    """ceil(log_target / ln(1/eta) - 1e-12) floored at 0, so that eta^n
    reaches exp(-log_target); ``at_zero`` when eta = 0 (no finite rate)."""
    if eta == 0.0:
        return at_zero
    return max(0, math.ceil(log_target / math.log(1.0 / eta) - 1e-12))


def mixing_time_bounds(
    W, delta: float, g: Generator | None = None, n_cap: int | None = None
) -> MixingTimeReport:
    """Mixing-time upper bounds from the chi-squared contraction coefficient.

    tv_bound = ceil(2 ln(1/(sqrt(2 pi_min) delta)) / ln(1/eta)), floored at 0;
    the f-divergence bound additionally needs (f(t)-f(0))/t concave, finite
    f(0+), and finite f'(1).  empirical_tv/empirical_f scan vertex inputs.
    """
    W = as_channel(W)
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    pi, unique = stationary_distribution(W)
    if not unique:
        raise ValueError("mixing times require a unique stationary distribution")
    if not np.all(pi > 0.0):
        raise ValueError("mixing times require a full-support stationary distribution")
    eta = eta_chi2(W, pi)
    if eta >= 1.0 - 1e-12:
        raise ValueError("eta_chi2 >= 1: no finite mixing bound")
    pi_min = float(pi.min())
    x = math.sqrt(2.0 * pi_min) * delta
    tv_bound = _mixing_steps(eta, 2.0 * math.log(1.0 / x), int(x < 1.0))

    f_bound = None
    if g is not None:
        if not (g.g_concave and math.isfinite(g.f_at_zero)):
            raise ValueError(
                "f-divergence bound requires finite f(0+) and (f(t)-f(0))/t concave"
            )
        coeff = float(g.f1(1.0)) + g.f_at_zero
        f_bound = _mixing_steps(
            eta, math.log(2.0 / (delta * pi_min)) + math.log(coeff), 1
        )

    def done(dist_rows):
        # the columns of W^n are the outputs of the vertex inputs
        return lambda P: dist_rows(np.ascontiguousarray(P.T), pi).max() <= delta

    cap = n_cap if n_cap is not None else max(2 * tv_bound, 64)
    vertices = np.eye(W.shape[0])
    empirical_tv = _empirical_mixing(W.__matmul__, vertices, done(_tv_rows), cap)
    empirical_f = None
    if g is not None:
        cap_f = max(cap, 2 * f_bound)
        f_done = done(partial(f_divergence_rows, g))
        empirical_f = _empirical_mixing(W.__matmul__, vertices, f_done, cap_f)
    within = empirical_tv is not None and empirical_tv <= tv_bound
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
