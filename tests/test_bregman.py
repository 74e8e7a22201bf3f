import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divlab.bregman import (
    BregmanSandwich,
    SmoothConvexFn,
    _check_point,
    bregman_divergence,
    bregman_integral,
    bregman_sandwich,
    neg_entropy_fn,
    quadratic_fn,
)
from divlab.divergence import f_divergence
from divlab.generators import default_registry, make_generator


def _random_interior(rng, dim):
    x = rng.dirichlet(3.0 * np.ones(dim))
    return 0.9 * x + 0.1 / dim


def _dense(H):
    # a Hessian given as its diagonal, as the matrix
    return np.diag(H) if np.ndim(H) == 1 else H


def test_gradient_and_hessian_consistency():
    # gradient matches finite differences of F (rel 1e-5), and the Hessian
    # (a 1-D one read as its diagonal) central differences of the gradient
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
            H = _dense(fd.hess(x))
            for i in range(fd.dim):
                e = np.zeros(fd.dim)
                e[i] = h
                fdiff = (fd.F(x + e) - fd.F(x - e)) / (2 * h)
                assert fdiff == pytest.approx(grad[i], rel=1e-5, abs=1e-8)
                column = (fd.grad(x + e) - fd.grad(x - e)) / (2 * h)
                assert column == pytest.approx(H[:, i], rel=1e-5, abs=1e-6)
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


@pytest.mark.parametrize("call", [bregman_divergence, bregman_integral, bregman_sandwich])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_point_is_an_input_error(call, bad):
    # a point with an inf or NaN coordinate is rejected, on either side,
    # rather than carried into NaN values and a failed check
    fd = quadratic_fn(np.eye(2))
    for x, y in (([bad, 0.0], [0.0, 0.0]), ([0.0, 0.0], [0.0, bad])):
        with pytest.raises(ValueError, match="finite"):
            call(fd, np.array(x), np.array(y))


def test_public_calls_return_python_floats():
    fd = neg_entropy_fn(3)
    x, y = np.array([0.2, 0.3, 0.5]), np.array([0.4, 0.4, 0.2])
    assert type(bregman_divergence(fd, x, y)) is float
    assert type(bregman_integral(fd, x, y)) is float
    res = bregman_sandwich(fd, x, y)
    for f in dataclasses.fields(res):
        if f.name != "holds":
            assert type(getattr(res, f.name)) is float, f.name


def test_tv_lower_link_with_sparse_difference():
    # difference supported on a single coordinate exercises the support factor
    fd = quadratic_fn(np.eye(2))
    res = bregman_sandwich(fd, np.array([1.0, 1.0]), np.array([0.25, 1.0]))
    assert res.holds
    assert res.tv_lower <= res.l2_lower + 1e-12


# ---------------------------------------------------------------------------
# the chunked segment walk against the per-point loop


def bregman_sandwich_loop(fd, x, y):
    """``bregman_sandwich`` with one ``eigvalsh`` per grid point: the
    reference the chunked walk must match bit for bit."""
    x = _check_point(fd, x)
    y = _check_point(fd, y)
    d = x - y
    gamma_up = -np.inf
    gamma_down = np.inf
    for t in np.linspace(0.0, 1.0, 257):
        lam = (1.0 - t) * y + t * x
        if not fd.in_domain(lam):
            raise ValueError("segment leaves the domain of F")
        H = np.asarray(_dense(fd.hess(lam)), dtype=float)
        H = 0.5 * (H + H.T)
        eig = np.linalg.eigvalsh(H)
        gamma_down = min(gamma_down, float(eig[0]))
        gamma_up = max(gamma_up, float(eig[-1]))
    if gamma_down < -1e-8:
        raise ValueError(f"F is not convex along the segment: {gamma_down}")
    value = float(fd.F(x) - fd.F(y) - np.dot(fd.grad(y), x - y))
    nodes, weights = np.polynomial.legendre.leggauss(64)
    integral_value = 0.0
    for tk, wk in zip(0.5 * (nodes + 1.0), 0.5 * weights):
        lam = (1.0 - tk) * y + tk * x
        if not fd.in_domain(lam):
            raise ValueError("segment leaves the domain of F")
        integral_value += wk * (1.0 - tk) * float(d @ _dense(fd.hess(lam)) @ d)
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
    return BregmanSandwich(gamma_down, gamma_up, tv_lower, l2_lower, value,
                           l2_upper, tv_upper, integral_value, holds)


def _bits(res):
    return [np.float64(v).tobytes() for v in dataclasses.astuple(res)]


def _separable_fn(g, q):
    # F(x) = sum_i q_i f(x_i / q_i): a diagonal Hessian that varies
    return SmoothConvexFn(
        dim=len(q),
        F=lambda x: float(np.sum(q * g.f(x / q))),
        grad=lambda x: g.f1(x / q),
        hess=lambda x: np.diag(g.f2(x / q) / q),
        in_domain=lambda x: bool(np.all(np.asarray(x) > 0.0)),
        name=g.label,
    )


def _entropy_plus_quadratic(Q):
    # a non-diagonal Hessian diag(1/x) + Q that varies along the segment
    ent = neg_entropy_fn(Q.shape[0])
    return SmoothConvexFn(
        dim=Q.shape[0],
        F=lambda x: ent.F(x) + 0.5 * float(x @ Q @ x),
        grad=lambda x: ent.grad(x) + Q @ x,
        hess=lambda x: np.diag(1.0 / x) + Q,
        in_domain=ent.in_domain,
        name="neg_entropy+quadratic",
    )


_KINDS = ("quadratic", "diagonal_quadratic", "neg_entropy", "separable", "entropy+quadratic")


def _potential(kind, n, rng, q):
    A = rng.normal(size=(n, n))
    Q = A @ A.T / n + np.eye(n)
    if kind == "quadratic":
        return quadratic_fn(Q)
    if kind == "diagonal_quadratic":
        return quadratic_fn(np.diag(np.diag(Q)))
    if kind == "neg_entropy":
        return neg_entropy_fn(n)
    if kind == "separable":
        return _separable_fn(default_registry()[rng.integers(len(default_registry()))], q)
    return _entropy_plus_quadratic(Q)


@given(
    st.sampled_from([1, 2, 3, 8, 64]),
    st.sampled_from(_KINDS),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1.0, 0.1, 1e-3]),
)
@settings(max_examples=60, deadline=None)
def test_sandwich_matches_per_point_loop(n, kind, seed, alpha):
    # Dirichlet(alpha) points: small alpha puts coordinates near the boundary,
    # where 1/x and the generators' f2 grow large
    rng = np.random.default_rng(seed)
    x = rng.dirichlet(alpha * np.ones(n)) + 1e-9
    y = rng.dirichlet(alpha * np.ones(n)) + 1e-9
    fd = _potential(kind, n, rng, y)
    try:
        expected = bregman_sandwich_loop(fd, x, y)
    except ValueError as err:
        with pytest.raises(ValueError, match=str(err)):
            bregman_sandwich(fd, x, y)
        return
    assert _bits(bregman_sandwich(fd, x, y)) == _bits(expected)
    assert bregman_integral(fd, x, y) == expected.integral_value
    assert bregman_divergence(fd, x, y) == expected.value


def _recording(fd, bad):
    """fd with every in_domain and hess call recorded; in_domain fails where
    bad(x) holds."""
    calls = []

    def in_domain(x):
        calls.append(("in_domain", x.tobytes()))
        return not bad(x) and fd.in_domain(x)

    def hess(x):
        calls.append(("hess", x.tobytes()))
        return fd.hess(x)

    return dataclasses.replace(fd, in_domain=in_domain, hess=hess), calls


@pytest.mark.parametrize("cut", [0.05, 0.3, 0.7, 0.89])
def test_domain_error_at_the_same_first_point(cut):
    # the segment leaves the domain where x_0 first exceeds the cut: same
    # message, after the same in_domain and hess calls
    fd = neg_entropy_fn(3)
    x, y = np.array([0.9, 0.05, 0.05]), np.array([0.02, 0.49, 0.49])
    outcomes = []
    for sandwich in (bregman_sandwich_loop, bregman_sandwich):
        rec, calls = _recording(fd, lambda z: z[0] > cut and not (z == x).all())
        with pytest.raises(ValueError, match="segment leaves the domain of F"):
            sandwich(rec, x, y)
        outcomes.append(calls)
    assert outcomes[0] == outcomes[1]


def test_domain_error_at_a_quadrature_node():
    # every grid point passes, a Gauss node fails: the integral raises it
    fd = neg_entropy_fn(2)
    x, y = np.array([0.6, 0.4]), np.array([0.4, 0.6])
    t_nodes = 0.5 * (np.polynomial.legendre.leggauss(64)[0] + 1.0)
    lam = (1.0 - t_nodes[10]) * y + t_nodes[10] * x
    for sandwich in (bregman_sandwich_loop, bregman_sandwich):
        rec, _ = _recording(fd, lambda z: np.array_equal(z, lam))
        with pytest.raises(ValueError, match="segment leaves the domain of F"):
            sandwich(rec, x, y)


@pytest.mark.parametrize(
    "fd,x,y",
    [
        (quadratic_fn(np.diag([-1.0, 1.0])), [1.0, 0.0], [0.0, 1.0]),
        (quadratic_fn(np.array([[1.0, 2.0], [2.0, 1.0]])), [1.0, 0.0], [0.0, 1.0]),
        # Hessian diag(x): convex only where every coordinate is positive
        (SmoothConvexFn(dim=2, F=lambda z: float(np.sum(z**3)) / 6.0,
                        grad=lambda z: z**2 / 2.0, hess=np.diag), [1.0, -0.5], [0.2, 0.3]),
    ],
)
def test_nonconvexity_error_matches_per_point_loop(fd, x, y):
    with pytest.raises(ValueError, match="not convex") as expected:
        bregman_sandwich_loop(fd, x, y)
    with pytest.raises(ValueError) as got:
        bregman_sandwich(fd, x, y)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize(
    "fd,matrices",
    [
        (quadratic_fn(np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 3.0]])), 1),
        (quadratic_fn(np.diag([2.0, 1.0, 3.0])), 0),
        (neg_entropy_fn(3), 0),
    ],
)
def test_eigvalsh_matrices_per_sandwich(fd, matrices, monkeypatch):
    # a constant Q costs one matrix over the whole grid, a diagonal Hessian none
    seen = []
    original = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        a = np.asarray(a)
        seen.append(1 if a.ndim == 2 else a.shape[0])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    res = bregman_sandwich(fd, np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.3, 0.5]))
    assert res.holds
    assert sum(seen) == matrices


def _scaled_cubic(c):
    # F(x) = sum c_i (x_i^2/2 + x_i^3/6): its Hessian, the diagonal c(1 + x),
    # returned as a vector, varies along the segment
    return SmoothConvexFn(
        dim=len(c),
        F=lambda z: float(np.sum(c * (z**2 / 2.0 + z**3 / 6.0))),
        grad=lambda z: c * (z + z**2 / 2.0),
        hess=lambda z: c * (1.0 + z),
    )


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-150, 2.0**485, 2.0**486, 1e200, 1e300])
def test_diagonal_hessians_outside_lapack_range(scale):
    # LAPACK rescales a matrix with entries beyond 2**+-485, which moves the
    # last bits of about three in four such diagonals: those Hessians take the
    # eigvalsh route, like the loop, whether given as a matrix or a vector
    rng = np.random.default_rng(17)
    x, y = np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.3, 0.5])
    for _ in range(6):
        c = rng.uniform(0.1, 10.0, size=3) * scale
        for fd in (quadratic_fn(np.diag(c)), _scaled_cubic(c)):
            assert _bits(bregman_sandwich(fd, x, y)) == _bits(bregman_sandwich_loop(fd, x, y))


@pytest.mark.parametrize("shape", [(), (4,), (3, 2), (2, 3), (1, 3, 3), (3, 3, 1)])
def test_hessian_of_the_wrong_shape_is_an_input_error(shape):
    # at n = 3 a Hessian is 3 x 3 or its length-3 diagonal, nothing else
    fd = SmoothConvexFn(dim=3, F=lambda z: 0.0, grad=np.zeros_like,
                        hess=lambda z: np.ones(shape))
    x, y = np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.3, 0.5])
    for call in (bregman_sandwich, bregman_integral):
        with pytest.raises(ValueError, match=r"Hessian must be n x n or its diagonal, n = 3"):
            call(fd, x, y)


def test_vector_and_matrix_diagonals_agree(registry):
    # a separable potential gives the same bits whether its Hessian is the
    # diagonal or the diagonal matrix; near the boundary f'' runs large
    rng = np.random.default_rng(23)
    for g in registry:
        x, y = rng.dirichlet(0.05 * np.ones(8)) + 1e-9, rng.dirichlet(0.05 * np.ones(8)) + 1e-9
        matrix = _separable_fn(g, y)
        vector = dataclasses.replace(matrix, hess=lambda z, g=g: g.f2(z / y) / y)
        expected = _bits(bregman_sandwich_loop(matrix, x, y))
        assert _bits(bregman_sandwich(matrix, x, y)) == expected, g.label
        assert _bits(bregman_sandwich(vector, x, y)) == expected, g.label
