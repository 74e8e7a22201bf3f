"""Bregman divergences, their second-order integral representation, and the
Hessian-eigenvalue sandwich bounds.

The sandwich runs over the segment lam_t = (1-t)y + tx: with gamma_up /
gamma_down the extreme Hessian eigenvalues along the segment,

    (2 gamma_down / |supp(x-y)|^2) TV^2  <=  (gamma_down/2) ||x-y||_2^2
        <=  B_F(x||y)  <=  (gamma_up/2) ||x-y||_2^2  <=  2 gamma_up TV^2.

The integral representation is evaluated by quadrature as an internal
cross-check of every sandwich report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .divergence import _gauss_legendre

# Gauss-Legendre nodes of the integral representation
_QUAD_NODES = 64
# points of the t-grid on which the sandwich takes the Hessian eigenvalues
_T_GRID_N = 257

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
    """A twice-differentiable convex function on a subset of R^n."""

    dim: int
    F: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    in_domain: Callable[[np.ndarray], bool] = field(default=lambda x: True)
    name: str = "F"


def quadratic_fn(Q) -> SmoothConvexFn:
    """F(x) = x^T Q x / 2 for symmetric PSD Q."""
    Q = np.asarray(Q, dtype=float)
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
        dim=dim,
        F=lambda x: float(np.sum(x * np.log(x))),
        grad=lambda x: np.log(x) + 1.0,
        hess=lambda x: np.diag(1.0 / x),
        in_domain=lambda x: bool(np.all(np.asarray(x) > 0.0)),
        name="neg_entropy",
    )


def _check_point(fd: SmoothConvexFn, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (fd.dim,):
        raise ValueError(f"expected vector of dimension {fd.dim}")
    if not fd.in_domain(x):
        raise ValueError("point outside the domain of F")
    return x


def bregman_divergence(fd: SmoothConvexFn, x, y) -> float:
    """F(x) - F(y) - <grad F(y), x - y>."""
    x = _check_point(fd, x)
    y = _check_point(fd, y)
    return float(fd.F(x) - fd.F(y) - np.dot(fd.grad(y), x - y))


def bregman_integral(fd: SmoothConvexFn, x, y) -> float:
    """Quadrature of int_0^1 (1-t) (x-y)^T H_F((1-t)y + tx) (x-y) dt."""
    x = _check_point(fd, x)
    y = _check_point(fd, y)
    d = x - y
    t, w = _gauss_legendre(_QUAD_NODES)
    total = 0.0
    for tk, wk in zip(t, w):
        lam = (1.0 - tk) * y + tk * x
        if not fd.in_domain(lam):
            raise ValueError("segment leaves the domain of F")
        total += wk * (1.0 - tk) * float(d @ fd.hess(lam) @ d)
    return total


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
    d = x - y
    gamma_up = -np.inf
    gamma_down = np.inf
    for t in np.linspace(0.0, 1.0, _T_GRID_N):
        lam = (1.0 - t) * y + t * x
        if not fd.in_domain(lam):
            raise ValueError("segment leaves the domain of F")
        H = np.asarray(fd.hess(lam), dtype=float)
        H = 0.5 * (H + H.T)  # symmetrize to 1e-10-level asymmetry
        eig = np.linalg.eigvalsh(H)
        gamma_down = min(gamma_down, float(eig[0]))
        gamma_up = max(gamma_up, float(eig[-1]))
    if gamma_down < -1e-8:
        raise ValueError(f"F is not convex along the segment: {gamma_down}")

    value = bregman_divergence(fd, x, y)
    integral_value = bregman_integral(fd, x, y)
    l2sq = float(np.dot(d, d))
    tv = 0.5 * float(np.abs(d).sum())
    supp = int(np.sum(np.abs(d) > 1e-12 * max(1.0, np.abs(d).max())))
    l2_lower = 0.5 * gamma_down * l2sq
    l2_upper = 0.5 * gamma_up * l2sq
    tv_lower = 2.0 * gamma_down * tv**2 / supp**2 if supp else 0.0
    tv_upper = 2.0 * gamma_up * tv**2
    holds = (
        tv_lower <= l2_lower + 1e-9
        and l2_lower <= value + 1e-9
        and value <= l2_upper + 1e-9
        and l2_upper <= tv_upper + 1e-9
        and abs(integral_value - value) <= 1e-7 * max(1.0, abs(value))
    )
    return BregmanSandwich(
        gamma_down=gamma_down,
        gamma_up=gamma_up,
        tv_lower=tv_lower,
        l2_lower=l2_lower,
        value=value,
        l2_upper=l2_upper,
        tv_upper=tv_upper,
        integral_value=integral_value,
        holds=holds,
    )
