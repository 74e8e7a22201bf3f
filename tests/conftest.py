import numpy as np
import pytest

from divlab.generators import default_registry, make_generator


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


@pytest.fixture(scope="session")
def operator_convex_registry(registry):
    return [g for g in registry if g.operator_convex] + [
        make_generator("renyi_gain", alpha=-1.0),
        make_generator("hellinger", alpha=0.75),
    ]
