import numpy as np
import pytest

from divlab.bregman import (
    SmoothConvexFn,
    bregman_divergence,
    bregman_integral,
    bregman_sandwich,
    neg_entropy_fn,
    quadratic_fn,
)
from divlab.divergence import f_divergence
from divlab.generators import make_generator


def _random_interior(rng, dim):
    x = rng.dirichlet(3.0 * np.ones(dim))
    return 0.9 * x + 0.1 / dim


def test_gradient_and_hessian_consistency():
    # gradient matches finite differences of F (rel 1e-5), Hessian symmetric
    rng = np.random.default_rng(0)
    quad = quadratic_fn(np.array([[2.0, 0.3], [0.3, 1.0]]))
    ent = neg_entropy_fn(3)
    for fd, point_gen in (
        (quad, lambda: rng.normal(size=2)),
        (ent, lambda: _random_interior(rng, 3)),
    ):
        for _ in range(10):
            x = point_gen()
            grad = fd.grad(x)
            h = 1e-6
            for i in range(fd.dim):
                e = np.zeros(fd.dim)
                e[i] = h
                fdiff = (fd.F(x + e) - fd.F(x - e)) / (2 * h)
                assert fdiff == pytest.approx(grad[i], rel=1e-5, abs=1e-8)
            H = np.asarray(fd.hess(x))
            assert np.max(np.abs(H - H.T)) <= 1e-9


def test_quadratic_identity():
    fd = quadratic_fn(np.eye(3))
    rng = np.random.default_rng(1)
    for _ in range(20):
        x, y = rng.normal(size=(2, 3))
        assert bregman_divergence(fd, x, y) == pytest.approx(
            0.5 * np.sum((x - y) ** 2), rel=1e-12, abs=1e-12
        )


def test_quadratic_diagonal_gammas_exact():
    fd = quadratic_fn(np.diag([2.0, 5.0]))
    res = bregman_sandwich(fd, np.array([1.0, 0.5]), np.array([0.2, 0.1]))
    assert res.gamma_down == pytest.approx(2.0)
    assert res.gamma_up == pytest.approx(5.0)
    assert res.holds


def test_entropy_zero_at_equal_points():
    fd = neg_entropy_fn(2)
    x = np.array([0.4, 0.6])
    assert bregman_divergence(fd, x, x) == pytest.approx(0.0, abs=1e-14)
    res = bregman_sandwich(fd, x, x)
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert res.l2_upper == 0.0 and res.tv_upper == 0.0
    assert res.holds


def test_entropy_reproduces_kl():
    fd = neg_entropy_fn(2)
    kl = make_generator("kl")
    x = np.array([0.6, 0.4])
    y = np.array([0.5, 0.5])
    assert bregman_divergence(fd, x, y) == pytest.approx(
        f_divergence(kl, x, y), rel=1e-12
    )


def test_integral_representation_matches_divergence():
    rng = np.random.default_rng(3)
    quad = quadratic_fn(np.array([[2.0, 0.3], [0.3, 1.0]]))
    ent = neg_entropy_fn(3)
    for _ in range(50):
        x, y = rng.normal(size=(2, 2))
        assert bregman_integral(quad, x, y) == pytest.approx(
            bregman_divergence(quad, x, y), abs=1e-7
        )
        u = _random_interior(rng, 3)
        v = _random_interior(rng, 3)
        assert bregman_integral(ent, u, v) == pytest.approx(
            bregman_divergence(ent, u, v), abs=1e-7
        )


def test_sandwich_entropy_random_sweep():
    fd = neg_entropy_fn(3)
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = _random_interior(rng, 3)
        y = _random_interior(rng, 3)
        res = bregman_sandwich(fd, x, y)
        assert res.holds, res


def test_generator_induced_bregman_reproduces_f_divergence(registry):
    # F(x) = sum_i q_i f(x_i / q_i) has B_F(p||q) = D_f(p||q) on equal sums
    rng = np.random.default_rng(7)
    q = _random_interior(rng, 3)
    for g in registry:
        fd = SmoothConvexFn(
            dim=3,
            F=lambda x, g=g: float(np.sum(q * g.f(x / q))),
            grad=lambda x, g=g: g.f1(x / q),
            hess=lambda x, g=g: np.diag(g.f2(x / q) / q),
            in_domain=lambda x: bool(np.all(np.asarray(x) > 0.0)),
        )
        for _ in range(5):
            p = _random_interior(rng, 3)
            assert bregman_divergence(fd, p, q) == pytest.approx(
                f_divergence(g, p, q), rel=1e-9, abs=1e-12
            ), g.label
            res = bregman_sandwich(fd, p, q)
            assert res.holds, g.label


def test_nonconvex_detection():
    fd = quadratic_fn(np.diag([-1.0, 1.0]))
    with pytest.raises(ValueError):
        bregman_sandwich(fd, np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def test_domain_violation():
    fd = neg_entropy_fn(2)
    with pytest.raises(ValueError):
        bregman_divergence(fd, np.array([-0.1, 1.1]), np.array([0.5, 0.5]))


def test_tv_lower_link_with_sparse_difference():
    # difference supported on a single coordinate exercises the support factor
    fd = quadratic_fn(np.eye(2))
    res = bregman_sandwich(fd, np.array([1.0, 1.0]), np.array([0.25, 1.0]))
    assert res.holds
    assert res.tv_lower <= res.l2_lower + 1e-12
