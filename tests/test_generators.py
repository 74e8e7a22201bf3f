import math

import numpy as np
import pytest

from divlab.divergence import f_divergence
from divlab.generators import (
    custom_generator,
    default_registry,
    from_spec,
    generator_values,
    make_generator,
    registry_names,
    shift_generator,
)

from conftest import random_prob_pairs

LOG_GRID = np.logspace(-6.0, 6.0, 97)


def test_f_at_one_is_zero(registry):
    for g in registry:
        assert abs(g.f(1.0)) <= 1e-12, g.label


def test_second_derivative_nonnegative_on_log_grid(registry):
    for g in registry:
        assert np.min(g.f2(LOG_GRID)) >= -1e-12, g.label


def test_derivatives_match_finite_differences(registry):
    # mask points where float cancellation drowns the difference signal
    for g in registry:
        ts = np.logspace(-3.0, 3.0, 41)
        ts = ts[np.abs(ts - 1.0) > 1e-2]  # away from the piecewise seam
        h = 1e-6 * ts
        fd1 = (g.f(ts + h) - g.f(ts - h)) / (2 * h)
        scale1 = np.maximum(np.abs(g.f1(ts)), 1e-8)
        noise1 = 2.3e-16 * np.abs(g.f(ts)) / h
        ok1 = np.abs(fd1 - g.f1(ts)) <= 1e-6 * scale1 + 10 * noise1
        assert np.all(ok1), f"{g.label}: f' mismatch"
        fd2 = (g.f1(ts + h) - g.f1(ts - h)) / (2 * h)
        scale2 = np.maximum(np.abs(g.f2(ts)), 1e-8)
        noise2 = 2.3e-16 * np.abs(g.f1(ts)) / h
        ok2 = np.abs(fd2 - g.f2(ts)) <= 1e-5 * scale2 + 10 * noise2
        assert np.all(ok2), f"{g.label}: f'' mismatch"


@pytest.mark.parametrize(
    "name,params,expected_L,expected_lam",
    [
        ("kl", {}, 4.0, 0.0),
        ("reverse_kl", {}, 4.0, 1.0),
        ("renyi_gain", {"alpha": 1.5}, 4.0, 0.0),
        ("renyi_gain", {"alpha": -0.5}, 4.0, 1.0),
        ("renyi_gain", {"alpha": 0.5}, 4.0, 0.5),
        ("renyi_gain", {"alpha": 4.0}, 1.0, 0.0),
        ("renyi_gain", {"alpha": -2.0}, 1.0, 0.0),
        ("hellinger", {"alpha": 1.5}, 6.0, 0.0),
        ("hellinger", {"alpha": 0.5}, 2.0, 0.5),
        ("hellinger", {"alpha": 3.0}, 3.0, 0.0),
        ("pearson_chi2", {}, 8.0, 0.0),
        ("neyman_chi2", {}, 8.0, 1.0),
        ("symmetric_chi2", {}, 16.0, 0.0),
        ("ag_mean", {}, 1.0, 0.0),
        ("jeffrey", {}, 8.0, 0.5),
        ("squared_hellinger", {}, 1.0, 0.5),
        ("lins", {"theta": 0.25}, 0.75, 0.5),
        ("jensen_shannon", {}, 1.0, 0.5),
        ("triangular", {}, 4.0, 0.5),
        ("piecewise_example", {}, 2.0, 0.0),
    ],
)
def test_pinsker_constants_match_tables(name, params, expected_L, expected_lam):
    g = make_generator(name, **params)
    assert g.pinsker_constant == pytest.approx(expected_L, abs=1e-12)
    assert g.pinsker_lambda == expected_lam


def test_unknown_name_and_bad_params():
    with pytest.raises(KeyError):
        make_generator("unknown_divergence")
    with pytest.raises(ValueError):
        make_generator("hellinger", alpha=-1.0)
    with pytest.raises(ValueError):
        make_generator("lins", theta=1.5)
    with pytest.raises(ValueError):
        make_generator("kl", alpha=2.0)


REGISTRY_NAMES = (
    "kl",
    "reverse_kl",
    "renyi_gain",
    "hellinger",
    "pearson_chi2",
    "neyman_chi2",
    "symmetric_chi2",
    "ag_mean",
    "jeffrey",
    "squared_hellinger",
    "lins",
    "jensen_shannon",
    "triangular",
    "piecewise_example",
    "chi_alpha",
    "one_sided_chi2",
)


def test_registry_names_are_pinned():
    assert registry_names() == REGISTRY_NAMES


def test_every_name_round_trips_through_from_spec():
    for name in registry_names():
        g = from_spec(name)
        assert g.name == name
        assert from_spec(g.label).label == g.label
        assert make_generator(name, **g.params).label == g.label


def test_default_registry_is_the_certified_entries_in_order():
    certified = [from_spec(name) for name in registry_names()]
    certified = [g for g in certified if g.pinsker_constant is not None]
    assert len(certified) == 14
    assert [g.label for g in default_registry()] == [g.label for g in certified]


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: make_generator("unknown_divergence"), KeyError,
         f"unknown generator 'unknown_divergence'; known: {REGISTRY_NAMES}"),
        (lambda: make_generator("hellinger"), ValueError,
         "hellinger requires the parameter 'alpha'"),
        (lambda: make_generator("lins"), ValueError, "lins requires the parameter 'theta'"),
        (lambda: make_generator("hellinger", alpha=-1.0), ValueError,
         "hellinger requires alpha > 0"),
        (lambda: make_generator("hellinger", alpha=0.0), ValueError,
         "hellinger requires alpha > 0"),
        (lambda: make_generator("lins", theta=1.5), ValueError,
         "lins requires theta in [0, 1]"),
        (lambda: make_generator("chi_alpha", alpha=0.5), ValueError,
         "chi_alpha requires alpha >= 1"),
        (lambda: make_generator("kl", alpha=2.0), ValueError,
         "unexpected parameters for kl: ['alpha']"),
        (lambda: make_generator("lins", theta=0.5, beta=1.0, alpha=2.0), ValueError,
         "unexpected parameters for lins: ['alpha', 'beta']"),
        (lambda: from_spec("hellinger:alpha"), ValueError,
         "malformed generator parameter 'alpha'"),
        (lambda: from_spec("nope"), KeyError,
         f"unknown generator 'nope'; known: {REGISTRY_NAMES}"),
        (lambda: make_generator("renyi_gain", alpha=math.nan), ValueError,
         "renyi_gain requires a finite alpha"),
        (lambda: make_generator("hellinger", alpha=math.inf), ValueError,
         "hellinger requires a finite alpha"),
        (lambda: make_generator("lins", theta=-math.inf), ValueError,
         "lins requires a finite theta"),
        (lambda: from_spec("hellinger:alpha=nan"), ValueError,
         "hellinger requires a finite alpha"),
        (lambda: from_spec("chi_alpha:alpha=inf"), ValueError,
         "chi_alpha requires a finite alpha"),
        (lambda: from_spec("hellinger:alpha=1.5,alpha=2"), ValueError,
         "repeated generator parameter 'alpha'"),
        (lambda: from_spec("lins: theta=0.2,theta =0.3"), ValueError,
         "repeated generator parameter 'theta'"),
    ],
)
def test_registry_error_messages(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert excinfo.value.args[0] == message


def test_generator_values_examples():
    kl = make_generator("kl")
    assert generator_values(kl, 1.0) == pytest.approx((0.0, 1.0, 1.0), abs=1e-14)
    pc = make_generator("pearson_chi2")
    assert generator_values(pc, 3.0) == pytest.approx((8.0, 6.0, 2.0), abs=1e-14)
    with pytest.raises(ValueError):
        generator_values(kl, 0.0)


def test_piecewise_example_is_c2_at_the_seam():
    g = make_generator("piecewise_example")
    assert abs(g.f(1.0)) <= 1e-15
    # first derivative continuous across t = 1
    left = g.f1(1.0 - 1e-9)
    right = g.f1(1.0 + 1e-9)
    assert abs(left - right) <= 1e-8
    # second derivative equals 1 from both sides
    assert g.f2(1.0 - 1e-9) == pytest.approx(1.0, abs=1e-8)
    assert g.f2(1.0 + 1e-9) == pytest.approx(1.0, abs=1e-8)


def test_shift_generator_zero_is_identity():
    kl = make_generator("kl")
    assert shift_generator(kl, 0.0) is kl


def test_shift_generator_preserves_f_at_one():
    pc = make_generator("pearson_chi2")
    shifted = shift_generator(pc, -2.0)
    assert abs(shifted.f(1.0)) <= 1e-14
    # t^2 - 1 - 2(t-1) = (t-1)^2
    ts = np.linspace(0.2, 4.0, 17)
    assert np.allclose(shifted.f(ts), (ts - 1.0) ** 2, atol=1e-12)


def test_shift_invariance_of_divergence_values(registry):
    rng = np.random.default_rng(11)
    ps, qs = random_prob_pairs(rng, 5, 4)
    for g in registry:
        for c in (-3.0, 0.5, 7.0):
            shifted = shift_generator(g, c)
            for p, q in zip(ps, qs):
                base = f_divergence(g, p, q)
                moved = f_divergence(shifted, p, q)
                assert moved == pytest.approx(base, rel=1e-10, abs=1e-12), (
                    g.label,
                    c,
                )


def test_pearson_equals_centred_square_generator():
    pc = make_generator("pearson_chi2")
    centred = custom_generator(
        "centred_square",
        f=lambda t: (t - 1.0) ** 2,
        f1=lambda t: 2.0 * (t - 1.0),
        f2=lambda t: 2.0 * np.ones_like(np.asarray(t, dtype=float)),
        f_at_zero=1.0,
        fprime_at_inf=math.inf,
    )
    rng = np.random.default_rng(3)
    ps, qs = random_prob_pairs(rng, 50, 3)
    for p, q in zip(ps, qs):
        assert f_divergence(pc, p, q) == pytest.approx(
            f_divergence(centred, p, q), rel=1e-12
        )


def test_f2_monotonicity_flags_consistent(registry):
    for g in registry:
        vals = g.f2(LOG_GRID)
        diffs = np.diff(vals)
        scale = 1e-12 * max(1.0, float(np.max(np.abs(vals))))
        if g.f2_monotonicity == "nonincreasing":
            assert np.max(diffs) <= scale, g.label
        elif g.f2_monotonicity == "nondecreasing":
            assert np.min(diffs) >= -scale, g.label
        elif g.f2_monotonicity == "constant":
            assert np.max(np.abs(vals - vals[0])) <= scale, g.label


def test_concavity_flags_consistent(registry):
    # second differences on a well-conditioned grid
    t = np.linspace(0.05, 20.0, 4001)
    h = 1e-4
    for g in registry:
        if math.isfinite(g.f_at_zero):
            gfun = lambda s: (g.f(s) - g.f_at_zero) / s
            d2 = (gfun(t + h) - 2 * gfun(t) + gfun(t - h)) / h**2
            if g.g_concave:
                assert np.all(d2 <= 1e-4), g.label
        else:
            assert not g.g_concave, g.label


def test_boundary_limits(registry):
    for g in registry:
        seq = np.asarray([g.f(x) for x in (1e-6, 1e-9, 1e-12)])
        if math.isinf(g.f_at_zero):
            assert seq[2] > seq[1] > seq[0], g.label
        else:
            assert seq[2] == pytest.approx(g.f_at_zero, rel=1e-3, abs=1e-4), g.label
        seq = np.asarray([x * g.f(1.0 / x) for x in (1e-6, 1e-9, 1e-12)])
        if math.isinf(g.fprime_at_inf):
            assert seq[2] > seq[1] > seq[0], g.label
        else:
            assert seq[2] == pytest.approx(g.fprime_at_inf, rel=1e-3, abs=1e-4), g.label


def test_custom_generator_requires_f1_zero_at_one():
    with pytest.raises(ValueError):
        custom_generator(
            "bad", f=lambda t: t, f1=lambda t: 1.0, f2=lambda t: 0.0
        )


def test_from_spec_parsing():
    g = from_spec("hellinger:alpha=1.5")
    assert g.name == "hellinger" and g.params["alpha"] == 1.5
    g = from_spec("lins:theta=0.25")
    assert g.params["theta"] == 0.25
    g = from_spec("kl")
    assert g.name == "kl"
    g = from_spec("hellinger")  # default parameters
    assert g.params["alpha"] == 1.5
    with pytest.raises(ValueError):
        from_spec("hellinger:alpha")


def test_registry_names_cover_contract():
    names = registry_names()
    for required in (
        "kl",
        "reverse_kl",
        "renyi_gain",
        "hellinger",
        "pearson_chi2",
        "neyman_chi2",
        "symmetric_chi2",
        "ag_mean",
        "jeffrey",
        "squared_hellinger",
        "lins",
        "jensen_shannon",
        "triangular",
        "piecewise_example",
    ):
        assert required in names


def test_lins_half_equals_jensen_shannon():
    lins = make_generator("lins", theta=0.5)
    js = make_generator("jensen_shannon")
    ts = np.linspace(0.05, 8.0, 50)
    assert np.allclose(lins.f(ts), js.f(ts), atol=1e-12)
    assert lins.pinsker_constant == pytest.approx(js.pinsker_constant)


def test_chi_alpha_and_one_sided_have_no_certificate():
    g = make_generator("chi_alpha", alpha=2.5)
    assert g.pinsker_constant is None
    g = make_generator("one_sided_chi2")
    assert g.pinsker_constant is None
    # chi_alpha(2) coincides with the centred square
    g = make_generator("chi_alpha", alpha=2.0)
    ts = np.linspace(0.1, 5.0, 21)
    assert np.allclose(g.f(ts), (ts - 1.0) ** 2)
