"""Chi-squared sandwich machinery: the segment curvature extremes kappa_up /
kappa_down, the two-sided bound they induce, reverse Pinsker inequalities, and
chi-squared upper bounds by total variation.

kappa extremes run over the per-coordinate segments 1 + t(p_i/q_i - 1) for
t in [0, 1] and i in supp(q).  One vectorised routine evaluates f'' along
the segments of a stack of rows: monotone f'' permits exact endpoint
evaluation; otherwise a dense t-grid is used.  When p has zeros and f'' is
singular at zero, kappa_up is +inf and the downstream bounds are vacuous
rather than errors, matching the conditional finiteness of the bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergence import (
    SUPPORT_EPSILON,
    _chi_squared,
    _clamp,
    _f_divergence,
    _no_first_order_term,
    _total_variation,
    _vectors,
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
# rows per block of _segment_f2 keep a block near this many f'' evaluations
_KAPPA_BLOCK = 1 << 20


@dataclass(frozen=True)
class KappaPair:
    kappa_up: float  # may be +inf
    kappa_down: float
    argmax: tuple[int, float]  # (coordinate, segment parameter t)
    argmin: tuple[int, float]
    finite: bool


def q_min_on_support(q) -> float:
    """Smallest positive entry of q."""
    return _q_min(*_vectors(q, q_support=True))


def _q_min(q: np.ndarray) -> float:
    """``q_min_on_support`` of a vector with an entry of at least
    SUPPORT_EPSILON, unchecked: the smallest such entry, so that q need not
    be clamped."""
    return float(q[q >= SUPPORT_EPSILON].min())


def _f2_monotone(g: Generator) -> bool:
    """Whether f'' is monotone, so that it takes its extremes along a
    segment at the ends."""
    return g.f2_monotonicity in (NONINCREASING, NONDECREASING, CONSTANT)


def _segment_ends(g: Generator, P: np.ndarray, Q: np.ndarray):
    """The far ends R = P/Q of the segments of ``_segment_f2``, floored at
    _TINY, with 1 off supp Q, and the mask of the zero ratios that run into
    f''(0+) = +inf (None where there are none).  f'' is harmless at such a
    ratio's R, which is 1: the caller overwrites its value."""
    R = np.divide(P, Q, out=np.ones_like(P), where=Q > 0.0)
    singular = None
    if not g.f2_at_zero_finite and not R.all():
        singular = R == 0.0
        R = np.where(singular, 1.0, R)
    return np.maximum(R, _TINY), singular


def _segment_f2(g: Generator, P: np.ndarray, Q: np.ndarray):
    """f'' along the segments 1 + t(P[k, i]/Q[k, i] - 1), t in [0, 1], of
    every row k of P: yields (ts, V) for each block of rows, V[k, i, s]
    being f'' at t = ts[s].  P and Q are clamped (see ``_clamp``); Q is one
    row shared by all rows of P or a matrix of P's shape.

    Monotone f'' takes its extremes at the endpoints, so ts = (0, 1);
    otherwise ts is the _T_GRID_N-point grid.  A block holds about
    _KAPPA_BLOCK values, or one row, so memory does not grow with the number
    of rows.  Off supp Q the ratio is 1 and the segment the point f''(1).  A
    zero ratio with f'' singular at zero runs into f''(0+) = +inf: its V is
    f''(1) at t = 0 and +inf beyond.
    """
    # column-major, so that the reductions over each row sweep whole columns
    R, singular = _segment_ends(g, np.asfortranarray(P), Q)
    monotone = _f2_monotone(g)
    if monotone:
        ts, f2_at_one = np.array([0.0, 1.0]), float(g.f2(1.0))
    else:
        ts = np.linspace(0.0, 1.0, _T_GRID_N)
    block = max(1, _KAPPA_BLOCK // (R.shape[1] * ts.size))
    for s in range(0, R.shape[0], block):
        r = R[s : s + block, :, np.newaxis]
        if monotone:
            V = np.concatenate([np.full_like(r, f2_at_one), g.f2(r)], axis=2)
        else:
            V = g.f2(np.maximum(1.0 + ts * (r - 1.0), _TINY))
        if singular is not None:
            V[:, :, 1:][singular[s : s + block]] = math.inf
        yield ts, V


def kappa_bounds(g: Generator, p, q) -> KappaPair:
    """Extremes of f'' along the coordinate segments from q toward p.

    A witness is the first extreme in (coordinate, t) order; on a segment
    that runs into f''(0+) = +inf, kappa_up's is the last such segment's
    (coordinate, 1.0).
    """
    return _kappa_pair(g, *_vectors(p, q, dominated=True, q_support=True))


def _kappa_pair(g: Generator, p: np.ndarray, q: np.ndarray) -> KappaPair:
    """``kappa_bounds`` on rows as given, unclamped and unchecked: over supp q,
    which must hold an entry, whatever mass p puts off it."""
    support = np.flatnonzero(q > 0.0)
    # one row is one block
    ((ts, V),) = _segment_f2(g, p[np.newaxis, support], q[np.newaxis, support])
    V = V[0]
    i, s = divmod(int(np.argmax(V)), ts.size)
    kappa_up, arg_up = float(V[i, s]), (int(support[i]), float(ts[s]))
    i, s = divmod(int(np.argmin(V)), ts.size)
    kappa_down, arg_down = float(V[i, s]), (int(support[i]), float(ts[s]))
    if not g.f2_at_zero_finite and not p[support].all():
        arg_up = (int(support[np.flatnonzero(p[support] == 0.0)[-1]]), 1.0)
    return KappaPair(
        kappa_up=kappa_up,
        kappa_down=max(kappa_down, 0.0),
        argmax=arg_up,
        argmin=arg_down,
        finite=math.isfinite(kappa_up),
    )


def _kappa_up_rows(g: Generator, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """``kappa_bounds(g, P[k], Q[k]).kappa_up`` for every row of P at once.

    Q is one row shared by all rows of P or a matrix of P's shape.  Rows not
    dominated by their Q come out as NaN, where kappa_bounds raises; the
    caller decides whether that is an error.  A monotone f'' takes
    max(f''(1), max_i f''(R[k, i])) over the segment ends (``_segment_ends``)
    without the stack of ``_segment_f2``; max is exact, so the values are
    the same, +inf at a zero ratio that runs into f''(0+) included
    (tests/test_chi2bounds.py checks them against it).
    """
    P, Q = _clamp(P), _clamp(Q)
    if _f2_monotone(g):
        R, singular = _segment_ends(g, P, Q)
        F = g.f2(R)
        if singular is not None:
            F = np.where(singular, math.inf, F)
        kup = np.maximum(F.max(axis=1), float(g.f2(1.0)))
    else:
        kup = np.concatenate([V.max(axis=(1, 2)) for _, V in _segment_f2(g, P, Q)])
    kup[np.where(Q > 0.0, 0.0, P).sum(axis=1) > 0.0] = math.nan
    return kup


def chi2_sandwich(g: Generator, p, q):
    """(kappa_down/2) chi^2 <= D_f <= (kappa_up/2) chi^2, checked with a
    slack of 1e-10 relative to the value (absolute below 1).  Requires p << q
    and equal sums or f'(1) = 0, as ``integral_representation`` does; sums
    that differ within that rule's 1e-9 leave the first-order term
    f'(1)(sum p - sum q) in D_f, and the check's slack takes it in."""
    p, q = _vectors(p, q, dominated=True, q_support=True)
    gap = _no_first_order_term(g, p, q)
    kp = _kappa_pair(g, p, q)
    chi2 = _chi_squared(p, q)
    value = _f_divergence(g, p, q)
    lower = 0.5 * kp.kappa_down * chi2
    upper = 0.5 * kp.kappa_up * chi2 if math.isfinite(kp.kappa_up) else math.inf
    slack = 1e-10 * max(1.0, abs(value))
    holds = (lower <= value + slack) and (value <= upper + slack)
    if not holds and gap:
        slack += abs(float(g.f1(1.0)) * gap)
        holds = (lower <= value + slack) and (value <= upper + slack)
    return lower, value, upper, holds


def reverse_pinsker(g: Generator, p, q) -> tuple[float, float]:
    """Upper bounds on D_f by the l2 norm and by TV, via kappa_up and q_min.

    l2 bound: kappa_up/(2 q_min) * ||p-q||_2^2; TV bound: 2 kappa_up/q_min * TV^2.
    Both dominate D_f(p||q), given p << q and equal sums or f'(1) = 0; +inf
    when kappa_up is infinite.  Sums that differ within that rule's 1e-9
    leave the first-order term f'(1)(sum p - sum q) in D_f: both bounds add
    it where it is positive.
    """
    p, q = _vectors(p, q, dominated=True, q_support=True)
    gap = _no_first_order_term(g, p, q)
    kp = _kappa_pair(g, p, q)
    qmin = _q_min(q)
    if not math.isfinite(kp.kappa_up):
        return math.inf, math.inf
    d = p - q
    first = max(0.0, float(g.f1(1.0)) * gap) if gap else 0.0
    l2_bound = kp.kappa_up / (2.0 * qmin) * float(np.dot(d, d)) + first
    tv_bound = 2.0 * kp.kappa_up / qmin * _total_variation(p, q) ** 2 + first
    return l2_bound, tv_bound


def chi2_tv_upper(p, q) -> tuple[float, float | None]:
    """chi^2 upper bounds from norms of p - q.

    Always: ||p-q||_inf ||p-q||_1 / q_min; additionally ||p-q||_1^2/(2 q_min)
    when both vectors are probability vectors.
    """
    p, q = _vectors(p, q, dominated=True, q_support=True)
    d = np.abs(p - q)
    qmin = _q_min(q)
    inf_l1_bound = float(d.max() * d.sum()) / qmin
    prob_bound = None
    if abs(p.sum() - 1.0) <= 1e-10 and abs(q.sum() - 1.0) <= 1e-10:
        prob_bound = float(d.sum()) ** 2 / (2.0 * qmin)
    return inf_l1_bound, prob_bound


def f_lower_by_chi2(g: Generator, p, q) -> tuple[float, bool]:
    """D_f >= (L_f q_min / 4) chi^2 for probability vectors with p << q."""
    p, q = _vectors(p, q, prob=True, dominated=True, q_support=True)
    if g.pinsker_constant is None:
        raise ValueError(f"{g.label} carries no certified constant")
    bound = g.pinsker_constant * _q_min(q) / 4.0 * _chi_squared(p, q)
    value = _f_divergence(g, p, q)
    return bound, value >= bound - 1e-10
