"""Classical f-divergences over finite alphabets with exact support conventions.

The conventions are 0*f(0/0) = 0 and 0*f(a/0) = a*f'(inf) for a > 0, with
f(0) read as the limit f(0+).  Vectors are plain numpy arrays; entries below
``SUPPORT_EPSILON`` count as exact zeros so that noisy file input gets the
same treatment as analytic zeros.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

import numpy as np

from .generators import Generator

__all__ = [
    "SUPPORT_EPSILON",
    "as_weight_vec",
    "as_prob_vec",
    "f_divergence",
    "f_divergence_rows",
    "total_variation",
    "chi_squared",
    "integral_representation",
]

SUPPORT_EPSILON = 1e-12
# Gauss-Legendre nodes of integral_representation
_QUAD_NODES = 128


def as_weight_vec(v) -> np.ndarray:
    """Validate a non-negative vector; sub-epsilon entries become exact zeros."""
    return _vectors(v)[0]


def as_prob_vec(v) -> np.ndarray:
    return _vectors(v, prob=True)[0]


def _vectors(*vs, rows=False, prob=False, dominated=False, q_support=False) -> list:
    """The gate of a distribution pair, or of any number of vectors: their
    validated float copies.  Shapes first: each non-empty and 1-D (with
    ``rows`` the first a 2-D stack of rows, the others one row or its
    shape), of one alphabet.  Then each one's values (``_weigh``).  Then
    support: with ``dominated`` the first is zero off the support of the
    last, with ``q_support`` the last has a positive entry."""
    arrs = [np.array(v, dtype=float) for v in vs]
    first, last = arrs[0], arrs[-1]
    if rows and first.ndim != 2:
        raise ValueError("P must be a 2-D array of rows")
    for a in arrs[rows:]:
        if a.size < 1 or a.ndim != 1 and not (rows and a.shape == first.shape):
            raise ValueError("weight vector must be a non-empty 1-D array")
        if a.shape[-1] != first.shape[-1]:
            raise ValueError(f"alphabet mismatch: {first.shape} vs {a.shape}")
    for a in arrs:
        _weigh(a, prob)
    # the entries are now non-negative: q <= 0 is q == 0
    if dominated and float(first[last == 0.0].sum()) > 0.0:
        raise ValueError("requires p << q")
    if q_support and not last.any():
        raise ValueError("q has empty support")
    return arrs


def _weigh(a: np.ndarray, prob: bool) -> None:
    """The value checks of one vector, in place: finite, no entry below
    -SUPPORT_EPSILON (those below +SUPPORT_EPSILON become exact zeros), then
    with ``prob`` a unit sum.  A stack of no rows passes."""
    if a.size == 0:
        return
    # NaN and infinities surface in the extremes, which two reductions give
    lo, hi = a.min(), a.max()
    if not -math.inf < lo <= hi < math.inf:
        raise ValueError("weight vector entries must be finite")
    if lo < -SUPPORT_EPSILON:
        raise ValueError("weight vector entries must be non-negative")
    if lo < SUPPORT_EPSILON:
        a[a < SUPPORT_EPSILON] = 0.0
    if prob and abs(a.sum() - 1.0) > 1e-10:
        raise ValueError(f"probability vector must sum to one, got {a.sum()!r}")


def _as_count(n, name: str, least: int = 0) -> int:
    """The gate of a count (a step count, grid size or dimension): an
    integer, numpy's included, of at least ``least``."""
    try:
        k = operator.index(n)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {n!r}") from None
    if k < least:
        raise ValueError(f"{name} must be at least {least}")
    return k


def f_divergence(g: Generator, p, q) -> float:
    """sum_x q(x) f(p(x)/q(x)) under the boundary conventions; may be +inf.
    One row of ``f_divergence_rows``, after the checks of a single call."""
    return _f_divergence(g, *_vectors(p, q))


def _f_divergence(g: Generator, p: np.ndarray, q: np.ndarray) -> float:
    """``f_divergence`` of validated vectors of one alphabet, unchecked."""
    return float(_divergence_rows(g, p[np.newaxis], q)[0])


def f_divergence_rows(g: Generator, P, Q) -> np.ndarray:
    """Row-wise f_divergence: D_f(P[k] || Q[k]) for every row k of P.

    Q is one row shared by all rows of P or a matrix of P's shape.  Every
    row passes the checks of a single call (``_vectors`` with ``rows``);
    both boundary conventions are applied by masks, so a row may come out
    as exact +inf.
    """
    return _divergence_rows(g, *_vectors(P, Q, rows=True))


def _clamp(A: np.ndarray) -> np.ndarray:
    """Entries below SUPPORT_EPSILON become exact zeros."""
    return np.where(A < SUPPORT_EPSILON, 0.0, A)


def _divergence_rows(g: Generator, P: np.ndarray, Q: np.ndarray, rounding_error=False):
    """``f_divergence_rows`` on rows as given, unclamped.  A boundary mass
    below SUPPORT_EPSILON counts as zero; on clamped rows no nonzero mass is
    that small, so the rule only drops rounding noise of unclamped rows.
    With ``rounding_error`` the result is a pair whose second entry bounds
    each row's absolute rounding error by 4 eps sum q (|f(t)| + |t f'(t)| + 1)
    over the row's interior entries t = p/q."""
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


# 4 eps, the factor of the kernel's rounding bound
_ROUNDING = 4.0 * np.finfo(float).eps


def total_variation(p, q) -> float:
    """Half the l1 distance."""
    return _total_variation(*_vectors(p, q))


def _total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """``total_variation`` of validated vectors of one alphabet, unchecked."""
    return 0.5 * float(np.abs(p - q).sum())


def chi_squared(p, q) -> float:
    """sum over supp(q) of (p-q)^2/q, +inf when p is not dominated by q."""
    return _chi_squared(*_vectors(p, q))


def _chi_squared(p: np.ndarray, q: np.ndarray) -> float:
    """``chi_squared`` of validated vectors of one alphabet, unchecked."""
    pos = q > 0.0
    if float(p[~pos].sum()) > 0.0:
        return math.inf
    d = p[pos] - q[pos]
    return float(np.sum(d * d / q[pos]))


@lru_cache(maxsize=16)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n-point Gauss-Legendre nodes and weights mapped to [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    t = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def integral_representation(g: Generator, p, q) -> float:
    """Gauss-Legendre evaluation, on _QUAD_NODES nodes, of the second-order
    remainder form of D_f.

    Valid when p << q and either the vectors have equal sums or f'(1) = 0;
    the integrand is (1-t) * sum_i f''(1 + t(p_i/q_i - 1)) (p_i-q_i)^2 / q_i.
    """
    p, q = _vectors(p, q, dominated=True)
    pos = q > 0.0
    fprime_at_one = float(g.f1(1.0))
    if abs(p.sum() - q.sum()) > 1e-9 and abs(fprime_at_one) > 1e-12:
        raise ValueError("requires equal sums or f'(1) = 0")
    ps, qs = p[pos], q[pos]
    if np.any(ps == 0.0) and not g.f2_at_zero_finite:
        raise ValueError(
            "non-integrable endpoint: p touches zero and f'' is singular at 0"
        )
    ratios = ps / qs
    t, w = _gauss_legendre(_QUAD_NODES)
    args = 1.0 + np.outer(t, ratios - 1.0)
    args = np.maximum(args, 1e-300)
    vals = g.f2(args) @ ((ps - qs) ** 2 / qs)
    return float(np.dot(w * (1.0 - t), vals))
