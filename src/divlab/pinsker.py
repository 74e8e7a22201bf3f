"""Pinsker-constant machinery: the h_lambda condition surfaces, numerical
certification of constants, bound checking, and the third-order comparison
condition of Gilardoni.

A constant L is valid when L <= h_lambda(x, y) everywhere on the open unit
square for some lambda in [0, 1]; certification minimizes h_lambda on an
eps-inset grid and refines by descent over shrinking local grids.  The
certificate only claims the open-square minimum: blow-up toward the boundary
is checked numerically on the eps-ring rather than proven.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergence import _as_count, _f_divergence, _total_variation, _vectors
from .generators import Generator

__all__ = [
    "PinskerCertificate",
    "h_lambda",
    "certify_constant",
    "check_pinsker",
    "gilardoni_condition",
]

CERT_TOL = 1e-6
# width of the eps-ring between the inset square and the unit square
BOUNDARY_EPS = 1e-4
# points per axis of each local grid of the refine
_REFINE_M = 9
# the refine stops once the local grid's half-width falls below this
_REFINE_WIDTH = 1e-10
# the t-grid of gilardoni_condition
_GILARDONI_T = np.logspace(-3.0, 3.0, 2001)


@dataclass(frozen=True)
class PinskerCertificate:
    generator: str
    lam: float
    claimed_L: float
    grid_min: float
    grid_argmin: tuple[float, float]
    refined_min: float
    refined_argmin: tuple[float, float]
    verdict: str  # "certified" | "violated" | "inconclusive-boundary"
    tight: bool  # refined minimum attains the claimed constant within 1e-6
    boundary_escape: bool  # eps-ring values exceed the interior minimum

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"


def h_lambda(g: Generator, lam: float, x, y):
    """The condition surface of the two-parameter Pinsker theorems.

    lambda = 0 and 1 reduce to the two univariate conditions; intermediate
    lambda interpolates the direction of differentiation.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.all((x > 0.0) & (x < 1.0)) and np.all((y > 0.0) & (y < 1.0))):
        raise ValueError("x and y must lie in the open interval (0, 1)")
    out = _h(g, lam, x, y)
    if out.ndim == 0:
        return float(out)
    return out


def _h(g: Generator, lam: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``h_lambda`` on arrays x, y of the open square (broadcast), unchecked."""
    rx = x / y
    ry = (1.0 - x) / (1.0 - y)
    with np.errstate(divide="ignore", over="ignore"):
        return ((1.0 - lam) + lam * rx) ** 2 / y * g.f2(rx) + (
            (1.0 - lam) + lam * ry
        ) ** 2 / (1.0 - y) * g.f2(ry)


def certify_constant(
    g: Generator,
    lam: float | None = None,
    grid_n: int = 512,
    claimed_L: float | None = None,
) -> PinskerCertificate:
    """Minimize h_lambda over the inset square and compare to the claim.

    The grid minimum is refined by descent over local grids of _REFINE_M^2
    points clipped to the inset square: each is centred on the best point
    so far, which moves to the local minimum unless that is worse, and the
    half-width halves from one grid spacing until it falls below
    _REFINE_WIDTH.

    The verdict is "violated" as soon as any evaluated point falls below the
    claim (points of the open square are genuine witnesses), and
    "inconclusive-boundary" when the minimum sits on the eps-ring while f''
    is singular at zero, so escape below the claim past the ring cannot be
    excluded numerically.
    """
    grid_n = _as_count(grid_n, "grid_n", 16)
    if lam is None:
        lam = g.pinsker_lambda
    if claimed_L is None:
        claimed_L = g.pinsker_constant
    if lam is None or claimed_L is None:
        raise ValueError(f"{g.label} carries no certified constant to check")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    if not np.isfinite(claimed_L):
        raise ValueError("the claimed constant must be finite")
    return _certify(g, lam, grid_n, claimed_L)


def _certify(g: Generator, lam: float, grid_n: int, claimed_L: float) -> PinskerCertificate:
    """``certify_constant`` of checked arguments, unchecked."""
    u = np.linspace(BOUNDARY_EPS, 1.0 - BOUNDARY_EPS, grid_n)
    H = _h(g, lam, u[:, np.newaxis], u)
    i, j = np.unravel_index(int(np.argmin(H)), H.shape)
    grid_min = float(H[i, j])
    grid_argmin = (float(u[i]), float(u[j]))

    lo, hi = BOUNDARY_EPS, 1.0 - BOUNDARY_EPS
    offsets = np.linspace(-1.0, 1.0, _REFINE_M)
    refined_min, (x_star, y_star) = grid_min, grid_argmin
    width = u[1] - u[0]
    while width >= _REFINE_WIDTH:
        xs = np.clip(x_star + width * offsets, lo, hi)
        ys = np.clip(y_star + width * offsets, lo, hi)
        local = _h(g, lam, xs[:, np.newaxis], ys)
        a, b = np.unravel_index(int(np.argmin(local)), local.shape)
        if local[a, b] <= refined_min:
            refined_min, x_star, y_star = float(local[a, b]), float(xs[a]), float(ys[b])
        width *= 0.5

    ring = np.zeros_like(H, dtype=bool)
    ring[0, :] = ring[-1, :] = ring[:, 0] = ring[:, -1] = True
    interior_min = float(np.min(H[~ring]))
    ring_min = float(np.min(H[ring]))
    # escape holds unless the ring is strictly better than the interior
    # (ties along flat valleys do not implicate the boundary)
    boundary_escape = ring_min >= interior_min - CERT_TOL

    if refined_min < claimed_L - CERT_TOL:
        verdict = "violated"
    elif not boundary_escape and not g.f2_at_zero_finite:
        verdict = "inconclusive-boundary"
    else:
        verdict = "certified"
    return PinskerCertificate(
        generator=g.label,
        lam=float(lam),
        claimed_L=float(claimed_L),
        grid_min=grid_min,
        grid_argmin=grid_argmin,
        refined_min=refined_min,
        refined_argmin=(x_star, y_star),
        verdict=verdict,
        tight=abs(refined_min - claimed_L) <= CERT_TOL,
        boundary_escape=boundary_escape,
    )


def check_pinsker(g: Generator, p, q) -> tuple[float, float, bool]:
    """D_f(p||q) against (L_f / 2c) TV^2 for equal-sum non-negative vectors."""
    p, q = _vectors(p, q)
    c = float(p.sum())
    if abs(c - q.sum()) > 1e-9 or c <= 0.0:
        raise ValueError("check_pinsker requires equal positive sums")
    if g.pinsker_constant is None:
        raise ValueError(f"{g.label} carries no certified constant")
    lhs = _f_divergence(g, p, q)
    rhs = g.pinsker_constant / (2.0 * c) * _total_variation(p, q) ** 2
    return lhs, rhs, lhs >= rhs - 1e-10


def _third_derivative_at_one(g: Generator, step: float = 1e-4) -> float:
    # fourth-order central stencil applied to f''
    h = step
    return float(
        (-g.f2(1.0 + 2 * h) + 8 * g.f2(1.0 + h) - 8 * g.f2(1.0 - h) + g.f2(1.0 - 2 * h))
        / (12.0 * h)
    )


def gilardoni_condition(g: Generator) -> bool:
    """Third-order sufficient condition for the f''(1)/2 Pinsker constant.

    True iff (f(t) - f'(1)(t-1)) [1 - (f'''(1)/3f''(1))(t-1)] >= f''(1)(t-1)^2/2
    at every point t of a log grid over [1e-3, 1e3].
    """
    t = _GILARDONI_T
    f2_1 = float(g.f2(1.0))
    if f2_1 <= 0.0:
        raise ValueError("condition requires f''(1) > 0")
    f3_1 = _third_derivative_at_one(g)
    f1_1 = float(g.f1(1.0))
    lhs = (g.f(t) - f1_1 * (t - 1.0)) * (1.0 - (f3_1 / (3.0 * f2_1)) * (t - 1.0))
    rhs = 0.5 * f2_1 * (t - 1.0) ** 2
    slack = 1e-12 * np.maximum(1.0, np.abs(rhs))  # equality cases at float scale
    return bool(np.all(lhs >= rhs - slack))
