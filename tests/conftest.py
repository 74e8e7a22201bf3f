import dataclasses

import numpy as np
import pytest
from hypothesis import settings

from divlab.contraction import _scores
from divlab.divergence import _divergence_rows
from divlab.generators import UNKNOWN, custom_generator, default_registry, make_generator
from divlab.quantum import KrausChannel

# every property test draws the same examples on every run, so that a
# failure shows on each run and two commits are compared on the same
# draws; each test keeps its own max_examples and deadline
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def registry():
    """The fourteen certified generators at default parameters."""
    return default_registry()


def random_prob_pairs(rng, n_pairs, dim, interior=True):
    """Seeded batches of probability-vector pairs; interior keeps every entry
    bounded away from zero so ratios stay in (0, inf)."""
    conc = 5.0 if interior else 1.0
    p = rng.dirichlet(conc * np.ones(dim), size=n_pairs)
    q = rng.dirichlet(conc * np.ones(dim), size=n_pairs)
    if interior:
        p = 0.9 * p + 0.1 / dim
        q = 0.9 * q + 0.1 / dim
    return p, q


def random_state(rng, d, rank=None):
    """A random d x d state of the given rank (d by default)."""
    rank = rank or d
    A = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


def random_kraus(rng, d, k=3, d_out=None):
    """The channel of a random isometry C^d -> C^(k d_out), split into k
    Kraus operators of shape d_out x d (d_out = d by default)."""
    d_out = d_out or d
    A = rng.normal(size=(k * d_out, d)) + 1j * rng.normal(size=(k * d_out, d))
    Q, _ = np.linalg.qr(A)
    return KrausChannel(kraus=tuple(Q[i * d_out : (i + 1) * d_out, :] for i in range(k)))


def bump_generator():
    """f'' = 1 + (t-1)^2 has its minimum at t = 1: not monotone."""
    return custom_generator(
        "bump",
        lambda t: 0.5 * (t - 1.0) ** 2 + (t - 1.0) ** 4 / 12.0,
        lambda t: (t - 1.0) + (t - 1.0) ** 3 / 3.0,
        lambda t: 1.0 + (t - 1.0) ** 2,
        f_at_zero=7.0 / 12.0,
        f2_at_zero_finite=True,
    )


def singular_bump_generator():
    """f'' = 1/t + (t-1)^2: not monotone, and +inf at 0+."""
    return custom_generator(
        "bump_singular", lambda t: t * np.log(t), lambda t: np.log(t) + 1.0,
        lambda t: 1.0 / t + (t - 1.0) ** 2,
    )


def ratio_scores(g, den, num_rows):
    """Scores of D_f(num_rows[k]) / den[k] for every row k, as the sampling
    engine scores a ratio (``contraction._scores``): ``den`` a (value,
    rounding bound) pair of the kernel, ``num_rows`` a (P, Q) pair of rows."""
    return _scores(_divergence_rows(g, *num_rows, rounding_error=True), den)


def sampled_twin(g):
    """g with its f'' flagged unknown: the same divergences, but its
    contraction estimates are sampled, as those of every generator whose f''
    is not a positive constant are.  A quadratic generator's twin runs the
    sampler on a case with an exact answer."""
    return dataclasses.replace(g, f2_monotonicity=UNKNOWN)


@pytest.fixture(scope="session")
def operator_convex_registry(registry):
    return [g for g in registry if g.operator_convex] + [
        make_generator("renyi_gain", alpha=-1.0),
        make_generator("hellinger", alpha=0.75),
    ]


def check_against_values_only_route(eta, T):
    """An exact coefficient eta of ``contraction._metric_eta`` against the
    values-only route it replaced: the squared second singular value of T,
    0 at or below s_1 max(T.shape) eps.  sqrt(eta) is within 16 eps of that
    second value, and both give the same zero or non-zero verdict, except
    where the value lies within a factor 2 of either rule's tolerance (s_1
    max(T.shape) eps, against max(s_0, 1) max(T.shape) eps off T's top
    vector, s_0 <= 1)."""
    eps = np.finfo(float).eps
    s = np.linalg.svd(T, compute_uv=False)
    second = s[1] if s.size > 1 else 0.0
    tol = s[0] * max(T.shape) * eps
    old = min(second, 1.0) if second > tol else 0.0
    new = np.sqrt(eta)
    if (old == 0.0) == (new == 0.0):
        assert abs(new - old) <= 16 * eps, (new, old)
    else:
        assert max(new, second) <= 2.0 * max(tol, max(T.shape) * eps), (new, second, tol)
