"""Registry of f-divergence generator functions.

Each generator packages a convex function f on (0, inf) with f(1) = 0 together
with its first two derivatives, the boundary limits f(0+) and f'(inf), a
certified Pinsker constant with its lambda witness, and analytic flags used by
the bound machinery.  All values are in natural-log units; base-2 output is a
presentation concern handled by the CLI.

Infinite limits are represented by ``math.inf`` — never by a large finite
sentinel — because the support conventions of the divergence engine need exact
absolutely-continuous logic.

The ``_BUILDERS`` table at the end of the module is the one place to add a
generator: each row names the builder, its parameter (if any) and that
parameter's default.  The names, their order, the defaults and the certified
set are all read from it; each builder checks its own parameter range, and
every parameter must be finite (``renyi_gain`` takes any alpha with
alpha (alpha - 1) finite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

__all__ = [
    "Generator",
    "make_generator",
    "custom_generator",
    "generator_values",
    "shift_generator",
    "registry_names",
    "default_registry",
    "from_spec",
]

NONINCREASING = "nonincreasing"
NONDECREASING = "nondecreasing"
CONSTANT = "constant"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Generator:
    """Immutable descriptor of an f-divergence generator.

    ``f``, ``f1`` and ``f2`` accept floats or numpy arrays of positive
    values and broadcast elementwise.  ``pinsker_constant`` is None for the
    auxiliary registry entries that carry no certificate.
    """

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    f1: Callable[[np.ndarray], np.ndarray]
    f2: Callable[[np.ndarray], np.ndarray]
    f_at_zero: float
    fprime_at_inf: float
    pinsker_constant: float | None
    pinsker_lambda: float | None
    f2_monotonicity: str = UNKNOWN
    operator_convex: bool = False
    g_concave: bool = False  # (f(t) - f(0+))/t concave on (0, inf)
    f2_at_zero_finite: bool = False
    params: dict[str, float] = field(default_factory=dict)

    @property
    def label(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
        return f"{self.name}:{inner}"

    def __repr__(self) -> str:  # params carry the identity; callables do not
        return f"Generator({self.label!r})"


def _vec(fn):
    """Wrap an array formula so scalars in give scalars out."""

    def wrapped(t):
        arr = np.asarray(t, dtype=float)
        out = np.asarray(fn(arr), dtype=float)
        if arr.ndim == 0:
            return float(out)
        return out

    return wrapped


def generator_values(g: Generator, t: float) -> tuple[float, float, float]:
    """Evaluate (f, f', f'') at ``t > 0`` in natural-log units."""
    if not np.all(np.asarray(t) > 0):
        raise ValueError("generator argument must be positive")
    return (g.f(t), g.f1(t), g.f2(t))


def custom_generator(
    name: str,
    f: Callable,
    f1: Callable,
    f2: Callable,
    *,
    f_at_zero: float = math.inf,
    fprime_at_inf: float = math.inf,
    pinsker_constant: float | None = None,
    pinsker_lambda: float | None = None,
    **flags,
) -> Generator:
    """Programmatic constructor from three callables.

    The only validation performed here is f(1) = 0; analytic flags default to
    the conservative values and may be overridden by keyword.
    """
    if abs(float(f(1.0))) > 1e-12:
        raise ValueError("generator must satisfy f(1) = 0")
    return Generator(
        name=name,
        f=_vec(f),
        f1=_vec(f1),
        f2=_vec(f2),
        f_at_zero=f_at_zero,
        fprime_at_inf=fprime_at_inf,
        pinsker_constant=pinsker_constant,
        pinsker_lambda=pinsker_lambda,
        **flags,
    )


def shift_generator(g: Generator, c: float) -> Generator:
    """Generator of f~(t) = f(t) + c(t-1).

    Divergence values on equal-sum vectors are unchanged; the Pinsker
    machinery only sees f'' which the shift leaves untouched.
    """
    if c == 0.0:
        return g
    base_f, base_f1 = g.f, g.f1
    return replace(
        g,
        name=f"{g.name}+shift",
        f=_vec(lambda t: base_f(t) + c * (t - 1.0)),
        f1=_vec(lambda t: base_f1(t) + c),
        f_at_zero=g.f_at_zero - c,
        fprime_at_inf=g.fprime_at_inf + c,
    )


# ---------------------------------------------------------------------------
# concrete generators


def _kl() -> Generator:
    return Generator(
        name="kl",
        f=_vec(lambda t: t * np.log(t)),
        f1=_vec(lambda t: np.log(t) + 1.0),
        f2=_vec(lambda t: 1.0 / t),
        f_at_zero=0.0,
        fprime_at_inf=math.inf,
        pinsker_constant=4.0,
        pinsker_lambda=0.0,
        f2_monotonicity=NONINCREASING,
        operator_convex=True,
        g_concave=True,
        f2_at_zero_finite=False,
    )


def _reverse_kl() -> Generator:
    return Generator(
        name="reverse_kl",
        f=_vec(lambda t: -np.log(t)),
        f1=_vec(lambda t: -1.0 / t),
        f2=_vec(lambda t: t**-2.0),
        f_at_zero=math.inf,
        fprime_at_inf=0.0,
        pinsker_constant=4.0,
        pinsker_lambda=1.0,
        f2_monotonicity=NONINCREASING,
        operator_convex=True,
        g_concave=False,
        f2_at_zero_finite=False,
    )


def _renyi_gain(alpha: float) -> Generator:
    # t^alpha family with the extra -alpha(t-1)/(alpha(alpha-1)) term, so
    # f'(1) = 0 for every order
    if not math.isfinite(alpha * (alpha - 1.0)):
        # beyond |alpha| ~ 1.3e154 the normaliser overflows and f reads NaN
        raise ValueError("renyi_gain requires alpha * (alpha - 1) to be finite")
    if alpha == 0.0:
        f = lambda t: -np.log(t) + t - 1.0
        f1 = lambda t: 1.0 - 1.0 / t
        f_at_zero = math.inf
        fprime_at_inf = 1.0
    elif alpha == 1.0:
        f = lambda t: t * np.log(t) - t + 1.0
        f1 = lambda t: np.log(t)
        f_at_zero = 1.0
        fprime_at_inf = math.inf
    else:
        a = alpha
        f = lambda t: (t**a - 1.0 - a * (t - 1.0)) / (a * (a - 1.0))
        f1 = lambda t: (t ** (a - 1.0) - 1.0) / (a - 1.0)
        f_at_zero = math.inf if a < 0 else 1.0 / a
        fprime_at_inf = math.inf if a > 1 else 1.0 / (1.0 - a)
    in_core = -1.0 <= alpha <= 2.0
    if 1.0 <= alpha <= 2.0:
        lam = 0.0
    elif -1.0 <= alpha <= 0.0:
        lam = 1.0
    elif 0.0 < alpha < 1.0:
        lam = 0.5
    else:
        lam = 0.0
    if alpha == 2.0:
        mono = CONSTANT
    elif alpha < 2.0:
        mono = NONINCREASING
    else:
        mono = NONDECREASING
    return Generator(
        name="renyi_gain",
        f=_vec(f),
        f1=_vec(f1),
        f2=_vec(lambda t: t ** (alpha - 2.0)),
        f_at_zero=f_at_zero,
        fprime_at_inf=fprime_at_inf,
        pinsker_constant=4.0 if in_core else 1.0,
        pinsker_lambda=lam,
        f2_monotonicity=mono,
        operator_convex=in_core,
        g_concave=0.0 < alpha <= 2.0,
        f2_at_zero_finite=alpha >= 2.0,
        params={"alpha": alpha},
    )


def _hellinger(alpha: float) -> Generator:
    if alpha <= 0:
        raise ValueError("hellinger requires alpha > 0")
    if alpha == 1.0:
        f = lambda t: t * np.log(t)
        f1 = lambda t: np.log(t) + 1.0
        f_at_zero = 0.0
        fprime_at_inf = math.inf
    else:
        a = alpha
        f = lambda t: (t**a - 1.0) / (a - 1.0)
        f1 = lambda t: a * t ** (a - 1.0) / (a - 1.0)
        f_at_zero = -1.0 / (alpha - 1.0)
        fprime_at_inf = math.inf if a > 1 else 0.0
    if alpha == 2.0:
        mono = CONSTANT
    elif alpha < 2.0:
        mono = NONINCREASING
    else:
        mono = NONDECREASING
    return Generator(
        name="hellinger",
        f=_vec(f),
        f1=_vec(f1),
        f2=_vec(lambda t: alpha * t ** (alpha - 2.0)),
        f_at_zero=f_at_zero,
        fprime_at_inf=fprime_at_inf,
        pinsker_constant=4.0 * alpha if alpha <= 2.0 else alpha,
        pinsker_lambda=0.5 if alpha < 1.0 else 0.0,
        f2_monotonicity=mono,
        operator_convex=alpha <= 2.0,
        g_concave=alpha <= 2.0,
        f2_at_zero_finite=alpha >= 2.0,
        params={"alpha": alpha},
    )


def _pearson_chi2() -> Generator:
    return Generator(
        name="pearson_chi2",
        f=_vec(lambda t: t**2 - 1.0),
        f1=_vec(lambda t: 2.0 * t),
        f2=_vec(lambda t: np.full_like(t, 2.0)),
        f_at_zero=-1.0,
        fprime_at_inf=math.inf,
        pinsker_constant=8.0,
        pinsker_lambda=0.0,
        f2_monotonicity=CONSTANT,
        operator_convex=True,
        g_concave=True,
        f2_at_zero_finite=True,
    )


def _neyman_chi2() -> Generator:
    return Generator(
        name="neyman_chi2",
        f=_vec(lambda t: 1.0 / t - 1.0),
        f1=_vec(lambda t: -(t**-2.0)),
        f2=_vec(lambda t: 2.0 * t**-3.0),
        f_at_zero=math.inf,
        fprime_at_inf=0.0,
        pinsker_constant=8.0,
        pinsker_lambda=1.0,
        f2_monotonicity=NONINCREASING,
        operator_convex=True,
        g_concave=False,
        f2_at_zero_finite=False,
    )


def _symmetric_chi2() -> Generator:
    return Generator(
        name="symmetric_chi2",
        f=_vec(lambda t: (t - 1.0) ** 2 * (t + 1.0) / t),
        f1=_vec(lambda t: 2.0 * t - 1.0 - t**-2.0),
        f2=_vec(lambda t: 2.0 + 2.0 * t**-3.0),
        f_at_zero=math.inf,
        fprime_at_inf=math.inf,
        pinsker_constant=16.0,
        pinsker_lambda=0.0,
        f2_monotonicity=NONINCREASING,
        operator_convex=False,
        g_concave=False,
        f2_at_zero_finite=False,
    )


def _ag_mean() -> Generator:
    return Generator(
        name="ag_mean",
        f=_vec(lambda t: 0.5 * (t + 1.0) * np.log(0.5 * (t + 1.0) / np.sqrt(t))),
        f1=_vec(
            lambda t: 0.5 * np.log(0.5 * (t + 1.0) / np.sqrt(t))
            + (t - 1.0) / (4.0 * t)
        ),
        f2=_vec(lambda t: (1.0 + t**2) / (4.0 * t**2 * (1.0 + t))),
        f_at_zero=math.inf,
        fprime_at_inf=math.inf,
        pinsker_constant=1.0,
        pinsker_lambda=0.0,
        f2_monotonicity=NONINCREASING,
        operator_convex=False,
        g_concave=False,
        f2_at_zero_finite=False,
    )


def _jeffrey() -> Generator:
    return Generator(
        name="jeffrey",
        f=_vec(lambda t: (t - 1.0) * np.log(t)),
        f1=_vec(lambda t: np.log(t) + 1.0 - 1.0 / t),
        f2=_vec(lambda t: 1.0 / t + t**-2.0),
        f_at_zero=math.inf,
        fprime_at_inf=math.inf,
        pinsker_constant=8.0,
        pinsker_lambda=0.5,
        f2_monotonicity=NONINCREASING,
        operator_convex=False,
        g_concave=False,
        f2_at_zero_finite=False,
    )


def _squared_hellinger() -> Generator:
    return Generator(
        name="squared_hellinger",
        f=_vec(lambda t: 0.5 * (np.sqrt(t) - 1.0) ** 2),
        f1=_vec(lambda t: 0.5 * (1.0 - t**-0.5)),
        f2=_vec(lambda t: 0.25 * t**-1.5),
        f_at_zero=0.5,
        fprime_at_inf=0.5,
        pinsker_constant=1.0,
        pinsker_lambda=0.5,
        f2_monotonicity=NONINCREASING,
        operator_convex=True,
        g_concave=True,
        f2_at_zero_finite=False,
    )


def _lins(theta: float) -> Generator:
    if not 0.0 <= theta <= 1.0:
        raise ValueError("lins requires theta in [0, 1]")
    th = theta
    if th == 0.0:
        f = lambda t: np.zeros_like(t)
        f1 = lambda t: np.zeros_like(t)
        f2 = lambda t: np.zeros_like(t)
        f_at_zero = 0.0
        fprime_at_inf = 0.0
        mono = CONSTANT
    elif th == 1.0:
        f = lambda t: t * np.log(t)
        f1 = lambda t: np.log(t) + 1.0
        f2 = lambda t: 1.0 / t
        f_at_zero = 0.0
        fprime_at_inf = math.inf
        mono = NONINCREASING
    else:
        f = lambda t: th * t * np.log(t) - (th * t + 1.0 - th) * np.log(
            th * t + 1.0 - th
        )
        f1 = lambda t: th * np.log(t / (th * t + 1.0 - th))
        f2 = lambda t: th * (1.0 - th) / (t * (th * t + 1.0 - th))
        f_at_zero = -(1.0 - th) * math.log(1.0 - th)
        fprime_at_inf = -th * math.log(th)
        mono = NONINCREASING
    return Generator(
        name="lins",
        f=_vec(f),
        f1=_vec(f1),
        f2=_vec(f2),
        f_at_zero=f_at_zero,
        fprime_at_inf=fprime_at_inf,
        pinsker_constant=4.0 * th * (1.0 - th),
        pinsker_lambda=0.5,
        f2_monotonicity=mono,
        operator_convex=False,
        g_concave=th > 0.0,
        f2_at_zero_finite=th == 0.0,
        params={"theta": theta},
    )


def _jensen_shannon() -> Generator:
    return Generator(
        name="jensen_shannon",
        f=_vec(lambda t: 0.5 * (t * np.log(t) - (t + 1.0) * np.log(0.5 * (t + 1.0)))),
        f1=_vec(lambda t: 0.5 * np.log(2.0 * t / (t + 1.0))),
        f2=_vec(lambda t: 0.5 / (t * (t + 1.0))),
        f_at_zero=0.5 * math.log(2.0),
        fprime_at_inf=0.5 * math.log(2.0),
        pinsker_constant=1.0,
        pinsker_lambda=0.5,
        f2_monotonicity=NONINCREASING,
        operator_convex=True,
        g_concave=True,
        f2_at_zero_finite=False,
    )


def _triangular() -> Generator:
    return Generator(
        name="triangular",
        f=_vec(lambda t: (t - 1.0) ** 2 / (t + 1.0)),
        f1=_vec(lambda t: (t - 1.0) * (t + 3.0) / (t + 1.0) ** 2),
        f2=_vec(lambda t: 8.0 / (t + 1.0) ** 3),
        f_at_zero=1.0,
        fprime_at_inf=1.0,
        pinsker_constant=4.0,
        pinsker_lambda=0.5,
        f2_monotonicity=NONINCREASING,
        operator_convex=True,
        g_concave=True,
        f2_at_zero_finite=True,
    )


def _piecewise_example() -> Generator:
    # twice continuously differentiable but not thrice: f'' = 1 on (0,1],
    # 1/t afterwards
    f = lambda t: np.where(
        t <= 1.0, 0.5 * t * (t - 1.0), t * np.log(np.maximum(t, 1.0)) - 0.5 * (t - 1.0)
    )
    f1 = lambda t: np.where(t <= 1.0, t - 0.5, np.log(np.maximum(t, 1.0)) + 0.5)
    f2 = lambda t: np.where(t <= 1.0, 1.0, 1.0 / t)
    return Generator(
        name="piecewise_example",
        f=_vec(f),
        f1=_vec(f1),
        f2=_vec(f2),
        f_at_zero=0.0,
        fprime_at_inf=math.inf,
        pinsker_constant=2.0,
        pinsker_lambda=0.0,
        f2_monotonicity=NONINCREASING,
        operator_convex=False,
        g_concave=True,
        f2_at_zero_finite=True,
    )


def _chi_alpha(alpha: float) -> Generator:
    # |t-1|^alpha; not twice differentiable for alpha in [1,2), registered for
    # consistency tests only — no certified constant
    if alpha < 1:
        raise ValueError("chi_alpha requires alpha >= 1")
    a = alpha
    f = lambda t: np.abs(t - 1.0) ** a
    f1 = lambda t: a * np.sign(t - 1.0) * np.abs(t - 1.0) ** (a - 1.0)
    f2 = lambda t: a * (a - 1.0) * np.abs(t - 1.0) ** (a - 2.0)
    return Generator(
        name="chi_alpha",
        f=_vec(f),
        f1=_vec(f1),
        f2=_vec(f2),
        f_at_zero=1.0,
        fprime_at_inf=math.inf if a > 1 else 1.0,
        pinsker_constant=None,
        pinsker_lambda=None,
        f2_monotonicity=UNKNOWN,
        f2_at_zero_finite=a >= 2.0,
        params={"alpha": alpha},
    )


def _one_sided_chi2() -> Generator:
    # (t-1)^2 below 1, zero above; f'' jumps at 1, so the Pinsker theorems do
    # not apply — registered for h_lambda evaluation, no certificate
    f = lambda t: np.where(t <= 1.0, (t - 1.0) ** 2, 0.0)
    f1 = lambda t: np.where(t <= 1.0, 2.0 * (t - 1.0), 0.0)
    f2 = lambda t: np.where(t < 1.0, 2.0, 0.0)
    return Generator(
        name="one_sided_chi2",
        f=_vec(f),
        f1=_vec(f1),
        f2=_vec(f2),
        f_at_zero=1.0,
        fprime_at_inf=0.0,
        pinsker_constant=None,
        pinsker_lambda=None,
        f2_monotonicity=NONINCREASING,
        f2_at_zero_finite=True,
    )


#: name -> (builder, its parameter's name or None, that parameter's default
#: for a bare name), in registry order; see the module docstring
_BUILDERS = {
    "kl": (_kl, None, None),
    "reverse_kl": (_reverse_kl, None, None),
    "renyi_gain": (_renyi_gain, "alpha", 1.5),
    "hellinger": (_hellinger, "alpha", 1.5),
    "pearson_chi2": (_pearson_chi2, None, None),
    "neyman_chi2": (_neyman_chi2, None, None),
    "symmetric_chi2": (_symmetric_chi2, None, None),
    "ag_mean": (_ag_mean, None, None),
    "jeffrey": (_jeffrey, None, None),
    "squared_hellinger": (_squared_hellinger, None, None),
    "lins": (_lins, "theta", 0.25),
    "jensen_shannon": (_jensen_shannon, None, None),
    "triangular": (_triangular, None, None),
    "piecewise_example": (_piecewise_example, None, None),
    # auxiliary entries: h_lambda evaluation / consistency tests only, no
    # certified Pinsker constant
    "chi_alpha": (_chi_alpha, "alpha", 2.5),
    "one_sided_chi2": (_one_sided_chi2, None, None),
}


def registry_names() -> tuple[str, ...]:
    return tuple(_BUILDERS)


def _default_params(name: str) -> dict[str, float]:
    _, key, default = _BUILDERS[name]
    return {} if key is None else {key: default}


def make_generator(name: str, **params: float) -> Generator:
    """Build a registered generator; ``_BUILDERS`` is the one table to extend.

    Parametric entries take one finite keyword parameter:
    ``renyi_gain(alpha)`` for alpha(alpha - 1) finite, ``hellinger(alpha)`` for
    alpha > 0, ``lins(theta)`` for theta in [0, 1], ``chi_alpha(alpha)`` for
    alpha >= 1.  Each builder checks its own range.
    """
    if name not in _BUILDERS:
        raise KeyError(f"unknown generator {name!r}; known: {registry_names()}")
    builder, key, _ = _BUILDERS[name]
    args = []
    if key is not None:
        if key not in params:
            raise ValueError(f"{name} requires the parameter {key!r}")
        value = float(params.pop(key))
        if not math.isfinite(value):
            raise ValueError(f"{name} requires a finite {key}")
        args.append(value)
    g = builder(*args)  # a value out of range fails here, before extra keys
    if params:
        raise ValueError(f"unexpected parameters for {name}: {sorted(params)}")
    return g


def default_registry() -> list[Generator]:
    """The generators with a certified Pinsker constant, at their default
    parameters, in registry order."""
    built = [make_generator(name, **_default_params(name)) for name in _BUILDERS]
    return [g for g in built if g.pinsker_constant is not None]


def from_spec(text: str) -> Generator:
    """Parse a CLI-style generator spec such as ``hellinger:alpha=1.5``.

    A bare name uses the default parameter where the entry is parametric; a
    key given twice is an error.
    """
    name, _, rest = text.partition(":")
    name = name.strip()
    params: dict[str, float] = {}
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            key = key.strip()
            if not value:
                raise ValueError(f"malformed generator parameter {item!r}")
            if key in params:
                raise ValueError(f"repeated generator parameter {key!r}")
            params[key] = float(value)
    elif name in _BUILDERS:
        params = _default_params(name)
    return make_generator(name, **params)
