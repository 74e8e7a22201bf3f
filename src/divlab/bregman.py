"""Bregman divergences, their second-order integral representation, and the
Hessian-eigenvalue sandwich bounds.

The sandwich runs over the segment lam_t = (1-t)y + tx: with gamma_up /
gamma_down the extreme Hessian eigenvalues along the segment,

    (2 gamma_down / |supp(x-y)|^2) TV^2  <=  (gamma_down/2) ||x-y||_2^2
        <=  B_F(x||y)  <=  (gamma_up/2) ||x-y||_2^2  <=  2 gamma_up TV^2.

gamma_down and gamma_up are the extremes over a 257-point t-grid, walked in
chunks of 32 points.  A Hessian that is the previous one (a constant Q) is
skipped; a diagonal one, given as a vector or a matrix, has its eigenvalues
read off with no LAPACK call; the other Hessians of a chunk make one batched
``eigvalsh`` over their distinct values.  Both routes give the eigenvalues
the per-point ``eigvalsh`` gives, bit for bit.

The integral representation is evaluated by quadrature, over the same walk,
as an internal cross-check of every sandwich report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .divergence import _as_count, _gauss_legendre

# Gauss-Legendre nodes of the integral representation
_QUAD_NODES = 64
# points of the t-grid on which the sandwich takes the Hessian eigenvalues
_T_GRID_N = 257
# points per chunk of the segment walk: a 32 x 64 x 64 stack is 1 MiB
_CHUNK = 32
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
    """A twice-differentiable convex function on a subset of R^n.  ``hess``
    gives the n x n Hessian or, if it is diagonal, its diagonal as a length-n
    array; an array returned again at the next point (a constant Hessian) is
    taken once, so a returned array must not change."""

    dim: int
    F: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    in_domain: Callable[[np.ndarray], bool] = field(default=lambda x: True)
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
        hess=lambda x: Q,
        name="quadratic",
    )


def neg_entropy_fn(dim: int) -> SmoothConvexFn:
    """F(x) = sum x_i ln x_i on the positive orthant."""
    return SmoothConvexFn(
        dim=_as_count(dim, "dim", 1),
        F=lambda x: float(np.sum(x * np.log(x))),
        grad=lambda x: np.log(x) + 1.0,
        hess=lambda x: 1.0 / x,
        in_domain=lambda x: bool((np.asarray(x) > 0.0).all()),
        name="neg_entropy",
    )


def _check_point(fd: SmoothConvexFn, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (fd.dim,):
        raise ValueError(f"expected vector of dimension {fd.dim}")
    if not np.isfinite(x).all():
        raise ValueError("point entries must be finite")
    if not fd.in_domain(x):
        raise ValueError("point outside the domain of F")
    return x


def _walk(fd: SmoothConvexFn, x: np.ndarray, y: np.ndarray, t: np.ndarray):
    """Yield the Hessians of F at lam_t = (1-t)y + tx over the nodes t, as
    lists of at most _CHUNK float arrays, each (n, n) or a length-n diagonal;
    each point is checked to lie in the domain before its Hessian is taken."""
    shapes = ((fd.dim, fd.dim), (fd.dim,))
    for start in range(0, len(t), _CHUNK):
        tc = t[start : start + _CHUNK, np.newaxis]
        mats = []
        for lam in (1.0 - tc) * y + tc * x:
            if not fd.in_domain(lam):
                raise ValueError("segment leaves the domain of F")
            H = np.asarray(fd.hess(lam), dtype=float)
            if H.shape not in shapes:
                raise ValueError(f"Hessian must be n x n or its diagonal, n = {fd.dim}; got {H.shape}")
            mats.append(H)
        yield mats


def _divergence(fd: SmoothConvexFn, x: np.ndarray, y: np.ndarray) -> float:
    return float(fd.F(x) - fd.F(y) - np.dot(fd.grad(y), x - y))


def _integral(fd: SmoothConvexFn, x: np.ndarray, y: np.ndarray) -> float:
    d = x - y
    t, w = _gauss_legendre(_QUAD_NODES)
    total, last = 0.0, None
    for tk, wk, H in zip(t, w, itertools.chain.from_iterable(_walk(fd, x, y, t))):
        if H is not last:
            last, dHd = H, float((d * H) @ d if H.ndim == 1 else d @ H @ d)
        total += wk * (1.0 - tk) * dHd
    return float(total)


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
    # the walk's last Hessian; the last matrix diagonalised (NaN equals none)
    last, seen = None, np.full((1, n, n), np.nan)
    for mats in _walk(fd, x, y, np.linspace(0.0, 1.0, _T_GRID_N)):
        fresh = [H for H, before in zip(mats, [last, *mats]) if H is not before]
        last = mats[-1]
        if not fresh:
            continue
        D = [H for H in fresh if H.ndim == 1]
        H = np.array([H for H in fresh if H.ndim == 2]).reshape(-1, n, n)
        if len(H):  # a diagonal matrix joins the diagonals
            diag = np.diagonal(H, axis1=1, axis2=2)
            flat = np.count_nonzero(H, axis=(1, 2)) == np.count_nonzero(diag, axis=1)
            D, H = [*D, *diag[flat]], H[~flat]
        D = np.array(D).reshape(-1, n)
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
    l2sq = float(np.dot(d, d))
    tv = 0.5 * float(np.abs(d).sum())
    supp = int(np.sum(np.abs(d) > 1e-12 * max(1.0, np.abs(d).max())))
    l2_lower = 0.5 * gamma_down * l2sq
    l2_upper = 0.5 * gamma_up * l2sq
    tv_lower = 2.0 * gamma_down * tv**2 / supp**2 if supp else 0.0
    tv_upper = 2.0 * gamma_up * tv**2
    # the fields from tv_lower to tv_upper, in order, form the chain
    chain = (tv_lower, l2_lower, value, l2_upper, tv_upper)
    holds = all(a <= b + 1e-9 for a, b in zip(chain, chain[1:])) and (
        abs(integral_value - value) <= 1e-7 * max(1.0, abs(value))
    )
    return BregmanSandwich(gamma_down, gamma_up, *chain, integral_value, holds)
