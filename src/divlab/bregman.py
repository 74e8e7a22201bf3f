"""Bregman divergences, their second-order integral representation, and the
Hessian-eigenvalue sandwich bounds.

The sandwich runs over the segment lam_t = (1-t)y + tx: with gamma_up /
gamma_down the extreme Hessian eigenvalues along the segment,

    (2 gamma_down / |supp(x-y)|^2) TV^2  <=  (gamma_down/2) ||x-y||_2^2
        <=  B_F(x||y)  <=  (gamma_up/2) ||x-y||_2^2  <=  2 gamma_up TV^2.

gamma_down and gamma_up are the extremes over a 257-point t-grid, walked in
chunks of points: one ``in_domain`` and one ``hess`` call per chunk.  A
stack of one Hessian for every point (a constant Q) is taken once; a
diagonal Hessian, given as a vector or a matrix, has its eigenvalues read
off with no LAPACK call; the other Hessians of a chunk make one batched
``eigvalsh`` over their distinct values.  Both routes give the eigenvalues
the per-point ``eigvalsh`` gives, bit for bit.

The integral representation is evaluated by quadrature, over the same walk,
as an internal cross-check of every sandwich report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .divergence import _CHUNK_ENTRIES, _as_count, _finite, _gauss_legendre, _square

# Gauss-Legendre nodes of the integral representation
_QUAD_NODES = 64
# points of the t-grid on which the sandwich takes the Hessian eigenvalues
_T_GRID_N = 257
# LAPACK's dsyevd rescales a matrix whose largest |entry| lies outside
# [sqrt(safmin/eps), 1/that] = [2**-485, 2**485] and may then move the last
# bits of its eigenvalues; inside, a diagonal matrix keeps its diagonal exactly
_UNSCALED = (2.0**-485, 2.0**485)

__all__ = [
    "SmoothConvexFn",
    "quadratic_fn",
    "neg_entropy_fn",
    "bregman_divergence",
    "bregman_integral",
    "bregman_sandwich",
    "BregmanSandwich",
]


@dataclass(frozen=True)
class SmoothConvexFn:
    """A twice-differentiable convex function on a subset of R^n.  ``F`` and
    ``grad`` take one point, ``hess`` and ``in_domain`` an (m, n) stack of
    points.  ``hess`` gives the (m, n, n) Hessians or, if they are
    diagonal, their (m, n) diagonals; a stack whose leading axis has stride
    0 (``np.broadcast_to``) is one Hessian for every point, taken once.
    ``in_domain`` gives m booleans, and ``hess`` is never taken at a point
    outside the domain."""

    dim: int
    F: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    in_domain: Callable[[np.ndarray], np.ndarray] = field(
        default=lambda X: np.ones(len(X), dtype=bool))
    name: str = "F"


def quadratic_fn(Q) -> SmoothConvexFn:
    """F(x) = x^T Q x / 2 for symmetric PSD Q."""
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1] or Q.size < 1 or not np.isfinite(Q).all():
        raise ValueError("Q must be a finite non-empty square matrix")
    return SmoothConvexFn(
        dim=Q.shape[0],
        F=lambda x: 0.5 * float(x @ Q @ x),
        grad=lambda x: Q @ x,
        hess=lambda X: np.broadcast_to(Q, (len(X), *Q.shape)),
        name="quadratic",
    )


def neg_entropy_fn(dim: int) -> SmoothConvexFn:
    """F(x) = sum x_i ln x_i on the positive orthant."""
    return SmoothConvexFn(
        dim=_as_count(dim, "dim", 1),
        F=lambda x: float(np.sum(x * np.log(x))),
        grad=lambda x: np.log(x) + 1.0,
        hess=lambda X: 1.0 / X,
        in_domain=lambda X: (X > 0.0).all(axis=1),
        name="neg_entropy",
    )


def _check_point(fd: SmoothConvexFn, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (fd.dim,):
        raise ValueError(f"expected vector of dimension {fd.dim}")
    if not np.isfinite(x).all():
        raise ValueError("point entries must be finite")
    if not _in_domain(fd, x[np.newaxis])[0]:
        raise ValueError("point outside the domain of F")
    return x


def _in_domain(fd: SmoothConvexFn, X: np.ndarray) -> np.ndarray:
    """``fd.in_domain`` of the stack X, one boolean per point."""
    inside = np.asarray(fd.in_domain(X), dtype=bool)
    if inside.shape != X.shape[:1]:
        raise ValueError(f"in_domain must give one boolean per point; got {inside.shape} "
                         f"for points {X.shape}")
    return inside


def _walk(fd: SmoothConvexFn, x: np.ndarray, y: np.ndarray, t: np.ndarray):
    """Yield the Hessians of F at lam_t = (1-t)y + tx over the nodes t, per
    chunk of m points: m and a float stack, (m, n, n) or (m, n) diagonals,
    or of one of them where ``hess`` gave one Hessian for all (stride 0).  A
    chunk holds _CHUNK_ENTRIES // k points, k the entries a point took in
    the stack before it: n^2 for dense Hessians (and in the first chunk), n
    for diagonals or one Hessian for all.  ``hess`` is taken up to the first
    point outside the domain, where the walk raises, as a loop over the
    points would."""
    n, start, entries = fd.dim, 0, fd.dim**2
    while start < len(t):
        tc = t[start : start + max(1, _CHUNK_ENTRIES // entries), np.newaxis]
        lam = (1.0 - tc) * y + tc * x
        inside = _in_domain(fd, lam)
        m = len(lam) if inside.all() else int(inside.argmin())
        if m:
            H = np.asarray(fd.hess(lam[:m]), dtype=float)
            if H.shape not in ((m, n, n), (m, n)):
                raise ValueError(f"Hessian must be n x n or its diagonal, n = {n}; "
                                 f"got {H.shape} for points {(m, n)}")
            one = H.strides[0] == 0
            yield m, H[:1] if one else H
            entries = n if one or H.ndim == 2 else n * n
        if m < len(lam):
            raise ValueError("segment leaves the domain of F")
        start += m


def _divergence(fd: SmoothConvexFn, x: np.ndarray, y: np.ndarray) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(fd.F(x) - fd.F(y) - np.dot(fd.grad(y), x - y))
    return _finite(value, "B_F(x||y)")


def _integral(fd: SmoothConvexFn, x: np.ndarray, y: np.ndarray) -> float:
    """The quadrature of ``bregman_integral``, each node's d.H.d a dot
    product of its own and the weighted terms added in node order, as one
    node at a time adds them."""
    d = x - y
    t, w = _gauss_legendre(_QUAD_NODES)
    total, k = 0.0, 0
    with np.errstate(over="ignore", invalid="ignore"):
        for m, H in _walk(fd, x, y, t):
            # (m, 1, n) @ (n, 1) takes one dot per row, as (n,) @ (n,) does
            dH = d * H if H.ndim == 2 else d @ H
            dHd = (dH[:, np.newaxis] @ d[:, np.newaxis])[:, 0, 0]
            for term in (w[k : k + m] * (1.0 - t[k : k + m]) * dHd).tolist():
                total += term
            k += m
    return _finite(total, "the quadrature of B_F(x||y)")


def bregman_divergence(fd: SmoothConvexFn, x, y) -> float:
    """F(x) - F(y) - <grad F(y), x - y>."""
    return _divergence(fd, _check_point(fd, x), _check_point(fd, y))


def bregman_integral(fd: SmoothConvexFn, x, y) -> float:
    """Quadrature of int_0^1 (1-t) (x-y)^T H_F((1-t)y + tx) (x-y) dt."""
    return _integral(fd, _check_point(fd, x), _check_point(fd, y))


def _gammas(fd: SmoothConvexFn, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """The extreme eigenvalues of the symmetrised Hessians over the t-grid,
    each equal to what a per-point ``eigvalsh`` gives; a NaN eigenvalue is
    skipped, as a running ``min`` from inf skips it."""
    n, lo, hi = fd.dim, np.inf, -np.inf
    # the last matrix diagonalised (NaN equals none)
    seen = np.full((1, n, n), np.nan)
    for _, H in _walk(fd, x, y, np.linspace(0.0, 1.0, _T_GRID_N)):
        if H.ndim == 2:
            D, H = H, np.empty((0, n, n))
        else:  # a diagonal matrix joins the diagonals
            diag = np.diagonal(H, axis1=1, axis2=2)
            flat = np.count_nonzero(H, axis=(1, 2)) == np.count_nonzero(diag, axis=1)
            D, H = diag[flat], H[~flat]
        amax = np.abs(D).max(axis=1)
        # in LAPACK's unscaled range a diagonal's eigenvalues are its entries
        ok = (amax == 0.0) | ((amax >= _UNSCALED[0]) & (amax <= _UNSCALED[1]))
        if ok.any():
            lo, hi = min(lo, float(D[ok].min())), max(hi, float(D[ok].max()))
        if not ok.all():
            H = np.concatenate([H, [np.diag(h) for h in D[~ok]]])
        if len(H):
            H = 0.5 * (H + H.transpose(0, 2, 1))  # symmetrize to 1e-10-level asymmetry
            new = np.any(H != np.concatenate([seen, H[:-1]]), axis=(1, 2))
            seen = H[-1:]
            eig = np.linalg.eigvalsh(H[new])
            lo = min(lo, float(np.fmin.reduce(eig[:, 0], initial=np.inf)))
            hi = max(hi, float(np.fmax.reduce(eig[:, -1], initial=-np.inf)))
    return lo, hi


@dataclass(frozen=True)
class BregmanSandwich:
    gamma_down: float
    gamma_up: float
    tv_lower: float
    l2_lower: float
    value: float
    l2_upper: float
    tv_upper: float
    integral_value: float
    holds: bool


def bregman_sandwich(fd: SmoothConvexFn, x, y) -> BregmanSandwich:
    """Eigenvalue sandwich for B_F along the segment, with quadrature check."""
    x = _check_point(fd, x)
    y = _check_point(fd, y)
    gamma_down, gamma_up = _gammas(fd, x, y)
    if gamma_down < -1e-8:
        raise ValueError(f"F is not convex along the segment: {gamma_down}")

    value = _divergence(fd, x, y)
    integral_value = _integral(fd, x, y)
    d = x - y
    with np.errstate(over="ignore"):
        l2sq = _finite(float(np.dot(d, d)), "||x - y||^2")
    tv2 = _square(0.5 * float(np.abs(d).sum()), "TV^2")
    supp = int(np.sum(np.abs(d) > 1e-12 * max(1.0, np.abs(d).max())))
    l2_lower = 0.5 * gamma_down * l2sq
    l2_upper = 0.5 * gamma_up * l2sq
    tv_lower = 2.0 * gamma_down * tv2 / supp**2 if supp else 0.0
    tv_upper = 2.0 * gamma_up * tv2
    # the fields from tv_lower to tv_upper, in order, form the chain
    chain = (tv_lower, l2_lower, value, l2_upper, tv_upper)
    holds = all(a <= b + 1e-9 for a, b in zip(chain, chain[1:])) and (
        abs(integral_value - value) <= 1e-7 * max(1.0, abs(value))
    )
    return BregmanSandwich(gamma_down, gamma_up, *chain, integral_value, holds)
