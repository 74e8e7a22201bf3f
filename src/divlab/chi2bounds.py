"""Chi-squared sandwich machinery: the segment curvature extremes kappa_up /
kappa_down, the two-sided bound they induce, reverse Pinsker inequalities, and
chi-squared upper bounds by total variation.

kappa extremes run over the per-coordinate segments 1 + t(p_i/q_i - 1) for
t in [0, 1] and i in supp(q).  Monotone f'' permits exact endpoint
evaluation; otherwise a dense t-grid is used.  When p has zeros and f'' is
singular at zero, kappa_up is +inf and the downstream bounds are vacuous
rather than errors, matching the conditional finiteness of the bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergence import (
    _clamp,
    as_weight_vec,
    chi_squared,
    f_divergence,
    total_variation,
)
from .generators import CONSTANT, Generator, NONDECREASING, NONINCREASING

__all__ = [
    "KappaPair",
    "kappa_bounds",
    "chi2_sandwich",
    "reverse_pinsker",
    "chi2_tv_upper",
    "f_lower_by_chi2",
    "q_min_on_support",
]

_TINY = 1e-300
# t-grid size for non-monotone f''
_T_GRID_N = 1025
# candidate rows per block of _kappa_up_rows' t-grid keep a block near this
# many f'' evaluations, so memory does not grow with the number of rows
_KAPPA_BLOCK = 1 << 20


@dataclass(frozen=True)
class KappaPair:
    kappa_up: float  # may be +inf
    kappa_down: float
    argmax: tuple[int, float]  # (coordinate, segment parameter t)
    argmin: tuple[int, float]
    finite: bool

    @property
    def vacuous(self) -> bool:
        return not self.finite


def q_min_on_support(q) -> float:
    """Smallest positive entry of q."""
    q = as_weight_vec(q)
    pos = q[q > 0.0]
    if pos.size == 0:
        raise ValueError("q has empty support")
    return float(pos.min())


def _require_dominated(p: np.ndarray, q: np.ndarray) -> None:
    if float(p[q <= 0.0].sum()) > 0.0:
        raise ValueError("requires p << q")


def kappa_bounds(g: Generator, p, q, t_grid_n: int = _T_GRID_N) -> KappaPair:
    """Extremes of f'' along the coordinate segments from q toward p."""
    p = as_weight_vec(p)
    q = as_weight_vec(q)
    if p.shape != q.shape:
        raise ValueError("alphabet mismatch")
    _require_dominated(p, q)
    support = np.flatnonzero(q > 0.0)
    ratios = p[support] / q[support]

    best_up = -math.inf
    best_down = math.inf
    arg_up = (int(support[0]), 0.0)
    arg_down = (int(support[0]), 0.0)
    finite = True

    def consider(value: float, idx: int, t: float) -> None:
        nonlocal best_up, best_down, arg_up, arg_down
        if value > best_up:
            best_up = value
            arg_up = (idx, t)
        if value < best_down:
            best_down = value
            arg_down = (idx, t)

    monotone = g.f2_monotonicity in (NONINCREASING, NONDECREASING, CONSTANT)
    f2_at_one = float(g.f2(1.0))
    for idx, r in zip(support, ratios):
        idx = int(idx)
        if r == 0.0 and not g.f2_at_zero_finite:
            # the t = 1 endpoint hits f''(0+) = +inf
            finite = False
            best_up = math.inf
            arg_up = (idx, 1.0)
            consider(f2_at_one, idx, 0.0)
            continue
        end = float(g.f2(max(r, _TINY)))
        if monotone:
            consider(f2_at_one, idx, 0.0)
            consider(end, idx, 1.0)
        else:
            ts = np.linspace(0.0, 1.0, t_grid_n)
            args = np.maximum(1.0 + ts * (r - 1.0), _TINY)
            vals = np.asarray(g.f2(args), dtype=float)
            k = int(np.argmax(vals))
            consider(float(vals[k]), idx, float(ts[k]))
            k = int(np.argmin(vals))
            consider(float(vals[k]), idx, float(ts[k]))
    return KappaPair(
        kappa_up=best_up,
        kappa_down=max(best_down, 0.0),
        argmax=arg_up,
        argmin=arg_down,
        finite=finite and math.isfinite(best_up),
    )


def _kappa_up_rows(g: Generator, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """``kappa_bounds(g, P[k], Q[k]).kappa_up`` for every row of P at once.

    Q is one row shared by all rows of P or a matrix of P's shape.  Rows not
    dominated by their Q come out as NaN, where kappa_bounds raises; the
    caller decides whether that is an error.
    """
    # column-major, so that the reductions over each row sweep whole columns
    P = np.asfortranarray(_clamp(P))
    Q = _clamp(Q)
    supp = Q > 0.0
    undominated = np.where(supp, 0.0, P).sum(axis=1) > 0.0
    # off the support the ratio is 1, and f''(1) is in every row's max anyway
    R = np.divide(P, Q, out=np.ones_like(P), where=supp)
    at_zero = R == 0.0
    if not g.f2_at_zero_finite:
        # the t = 1 endpoint of a segment with ratio 0 hits f''(0+) = +inf;
        # evaluate a harmless point there and overwrite it below
        R = np.where(at_zero, 1.0, R)
    R = np.maximum(R, _TINY)
    if g.f2_monotonicity in (NONINCREASING, NONDECREASING, CONSTANT):
        kup = np.maximum(float(g.f2(1.0)), g.f2(R).max(axis=1))
    else:
        ts = np.linspace(0.0, 1.0, _T_GRID_N)
        block = max(1, _KAPPA_BLOCK // (R.shape[1] * _T_GRID_N))
        kup = np.empty(R.shape[0])
        for s in range(0, R.shape[0], block):
            args = 1.0 + ts * (R[s : s + block, :, np.newaxis] - 1.0)
            kup[s : s + block] = g.f2(np.maximum(args, _TINY)).max(axis=(1, 2))
    if not g.f2_at_zero_finite:
        kup[at_zero.any(axis=1)] = math.inf
    kup[undominated] = math.nan
    return kup


def _kappa_up_max(g: Generator, P: np.ndarray, Q: np.ndarray) -> float:
    """max_k kappa_bounds(g, P[k], Q[k]).kappa_up; raises like kappa_bounds
    for a row escaping its support before the first row at +inf."""
    kup = _kappa_up_rows(g, P, Q)
    bad = np.flatnonzero(np.isnan(kup))
    inf = np.flatnonzero(np.isinf(kup))
    if bad.size and (not inf.size or bad[0] < inf[0]):
        raise ValueError("requires p << q")
    return float(np.nanmax(kup))


def chi2_sandwich(g: Generator, p, q, t_grid_n: int = _T_GRID_N):
    """(kappa_down/2) chi^2 <= D_f <= (kappa_up/2) chi^2."""
    kp = kappa_bounds(g, p, q, t_grid_n=t_grid_n)
    chi2 = chi_squared(p, q)
    value = f_divergence(g, p, q)
    lower = 0.5 * kp.kappa_down * chi2
    upper = 0.5 * kp.kappa_up * chi2 if math.isfinite(kp.kappa_up) else math.inf
    holds = (lower <= value + 1e-10) and (value <= upper + 1e-10)
    return lower, value, upper, holds


def reverse_pinsker(g: Generator, p, q) -> tuple[float, float]:
    """Upper bounds on D_f by the l2 norm and by TV, via kappa_up and q_min.

    l2 bound: kappa_up/(2 q_min) * ||p-q||_2^2; TV bound: 2 kappa_up/q_min * TV^2.
    Both dominate D_f(p||q); +inf when kappa_up is infinite.
    """
    p = as_weight_vec(p)
    q = as_weight_vec(q)
    _require_dominated(p, q)
    kp = kappa_bounds(g, p, q)
    qmin = q_min_on_support(q)
    if not math.isfinite(kp.kappa_up):
        return math.inf, math.inf
    d = p - q
    l2_bound = kp.kappa_up / (2.0 * qmin) * float(np.dot(d, d))
    tv_bound = 2.0 * kp.kappa_up / qmin * total_variation(p, q) ** 2
    return l2_bound, tv_bound


def chi2_tv_upper(p, q) -> tuple[float, float | None]:
    """chi^2 upper bounds from norms of p - q.

    Always: ||p-q||_inf ||p-q||_1 / q_min; additionally ||p-q||_1^2/(2 q_min)
    when both vectors are probability vectors.
    """
    p = as_weight_vec(p)
    q = as_weight_vec(q)
    _require_dominated(p, q)
    d = np.abs(p - q)
    qmin = q_min_on_support(q)
    inf_l1_bound = float(d.max() * d.sum()) / qmin
    prob_bound = None
    if abs(p.sum() - 1.0) <= 1e-10 and abs(q.sum() - 1.0) <= 1e-10:
        prob_bound = float(d.sum()) ** 2 / (2.0 * qmin)
    return inf_l1_bound, prob_bound


def f_lower_by_chi2(g: Generator, p, q) -> tuple[float, bool]:
    """D_f >= (L_f q_min / 4) chi^2 for probability vectors."""
    p = as_weight_vec(p)
    q = as_weight_vec(q)
    if g.pinsker_constant is None:
        raise ValueError(f"{g.label} carries no certified constant")
    bound = g.pinsker_constant * q_min_on_support(q) / 4.0 * chi_squared(p, q)
    value = f_divergence(g, p, q)
    return bound, value >= bound - 1e-10
