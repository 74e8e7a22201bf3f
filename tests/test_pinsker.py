import json
import math
import pathlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divlab import pinsker
from divlab.generators import default_registry, make_generator
from divlab.pinsker import (
    certify_constant,
    check_pinsker,
    gilardoni_condition,
    h_lambda,
)

from conftest import random_prob_pairs

TIGHT = (
    "kl",
    "reverse_kl",
    "jeffrey",
    "jensen_shannon",
    "triangular",
    "squared_hellinger",
    "symmetric_chi2",
    "ag_mean",
    "lins",
)


def test_h_lambda_examples():
    kl = make_generator("kl")
    for y in (0.1, 0.37, 0.8):
        assert h_lambda(kl, 0.0, 0.5, y) == pytest.approx(4.0, rel=1e-12)
    rkl = make_generator("reverse_kl")
    for x in (0.2, 0.5, 0.9):
        assert h_lambda(rkl, 1.0, x, 0.5) == pytest.approx(4.0, rel=1e-12)
    js = make_generator("jensen_shannon")
    assert h_lambda(js, 0.5, 0.5, 0.5) == pytest.approx(1.0, rel=1e-12)


def test_h_lambda_reduces_to_univariate_conditions():
    # lambda = 0: (1/y) f''(x/y) + (1/(1-y)) f''((1-x)/(1-y))
    # lambda = 1: (x^2/y^3) f''(x/y) + ((1-x)^2/(1-y)^3) f''((1-x)/(1-y))
    g = make_generator("jeffrey")
    rng = np.random.default_rng(2)
    for _ in range(50):
        x, y = rng.uniform(0.05, 0.95, size=2)
        h0 = g.f2(x / y) / y + g.f2((1 - x) / (1 - y)) / (1 - y)
        assert h_lambda(g, 0.0, x, y) == pytest.approx(h0, rel=1e-14)
        h1 = (x**2 / y**3) * g.f2(x / y) + ((1 - x) ** 2 / (1 - y) ** 3) * g.f2(
            (1 - x) / (1 - y)
        )
        assert h_lambda(g, 1.0, x, y) == pytest.approx(h1, rel=1e-13)


def test_h_lambda_domain_errors():
    kl = make_generator("kl")
    with pytest.raises(ValueError):
        h_lambda(kl, -0.1, 0.5, 0.5)
    with pytest.raises(ValueError):
        h_lambda(kl, 0.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        h_lambda(kl, 0.0, 0.5, 1.0)


def test_certify_jeffrey_at_half():
    cert = certify_constant(make_generator("jeffrey"), 0.5, grid_n=128)
    assert cert.verdict == "certified"
    assert cert.refined_min == pytest.approx(8.0, abs=1e-6)
    assert cert.tight
    assert cert.refined_argmin == pytest.approx((0.5, 0.5), abs=1e-2)


def test_certify_jeffrey_at_zero_is_violated():
    cert = certify_constant(
        make_generator("jeffrey"), 0.0, grid_n=128, claimed_L=8.0
    )
    assert cert.verdict == "violated"
    assert cert.grid_min < 8.0 - 1e-6


def test_certify_piecewise_minimum_toward_corners():
    cert = certify_constant(make_generator("piecewise_example"), 0.0, grid_n=128)
    assert cert.verdict == "certified"
    # infimum 2 approached at the corners (0,1) and (1,0)
    assert cert.grid_min == pytest.approx(2.0, abs=1e-2)
    x, y = cert.grid_argmin
    assert (x < 0.02 and y > 0.98) or (x > 0.98 and y < 0.02)
    assert not cert.tight  # inset minimum sits slightly above 2


def test_certify_all_registry_entries(registry):
    for g in registry:
        cert = certify_constant(g, grid_n=128)
        assert cert.verdict == "certified", (g.label, cert)
        if g.name in TIGHT:
            assert cert.tight, (g.label, cert.refined_min)


def test_witness_groups():
    # which lambdas certify which constants: symmetric chi2 and the
    # arithmetic-geometric mean work at 0, 1/2 and 1; KL at 0 and 1/2 but not
    # 1 (mirrored for reverse KL); the order-1.5 information gain with L = 4
    # works only at 0
    def verdicts(g, L):
        return tuple(
            certify_constant(g, lam, grid_n=128, claimed_L=L).verdict
            for lam in (0.0, 0.5, 1.0)
        )

    C, V = "certified", "violated"
    assert verdicts(make_generator("symmetric_chi2"), 16.0) == (C, C, C)
    assert verdicts(make_generator("ag_mean"), 1.0) == (C, C, C)
    assert verdicts(make_generator("kl"), 4.0) == (C, C, V)
    assert verdicts(make_generator("reverse_kl"), 4.0) == (V, C, C)
    assert verdicts(make_generator("renyi_gain", alpha=1.5), 4.0) == (C, V, V)
    assert verdicts(make_generator("renyi_gain", alpha=-0.5), 4.0) == (V, V, C)


# verdict, tight flag and refined minimum of each certificate as the scalar
# golden-section refine reported them; the local-grid refine must keep the
# first two and may only find a lower minimum
CERTIFICATE_TABLE = json.loads(
    pathlib.Path(__file__).with_name("certificate_table.json").read_text()
)


def _matches_table(cert, row):
    assert (cert.verdict, cert.tight) == (row["verdict"], row["tight"]), row
    assert cert.refined_min <= row["refined_min"] + 1e-12, (cert.refined_min, row)


@pytest.mark.parametrize("grid_n", [64, 512])
def test_certificates_match_recorded_table(grid_n):
    rows = CERTIFICATE_TABLE["registry"][str(grid_n)]
    registry = default_registry()
    assert [g.label for g in registry] == [row["generator"] for row in rows]
    for g, row in zip(registry, rows):
        _matches_table(certify_constant(g, grid_n=grid_n), row)


def test_witness_certificates_match_recorded_table():
    for row in CERTIFICATE_TABLE["witness"]:
        g = make_generator(row["name"], **row["params"])
        cert = certify_constant(g, row["lam"], grid_n=128, claimed_L=row["claimed"])
        _matches_table(cert, row)


def test_certify_parameter_validation():
    kl = make_generator("kl")
    with pytest.raises(ValueError):
        certify_constant(kl, grid_n=8)
    with pytest.raises(ValueError):
        certify_constant(make_generator("chi_alpha", alpha=2.5))
    with pytest.raises(ValueError, match="lambda"):
        certify_constant(kl, 1.5)


def test_check_pinsker_trivial_and_random():
    kl = make_generator("kl")
    p = np.array([0.4, 0.6])
    lhs, rhs, holds = check_pinsker(kl, p, p)
    assert lhs == 0.0 and rhs == 0.0 and holds
    rng = np.random.default_rng(31)
    ps, qs = random_prob_pairs(rng, 1000, 3, interior=False)
    for p, q in zip(ps, qs):
        _, _, holds = check_pinsker(kl, p, q)
        assert holds


def test_check_pinsker_scaling_in_total_mass():
    kl = make_generator("kl")
    p = np.array([0.7, 0.3])
    q = np.array([0.4, 0.6])
    _, rhs1, _ = check_pinsker(kl, p, q)
    _, rhs2, _ = check_pinsker(kl, 2.0 * p, 2.0 * q)
    # TV doubles so TV^2 quadruples, while 1/(2c) halves: rhs doubles
    assert rhs2 == pytest.approx(2.0 * rhs1, rel=1e-12)
    with pytest.raises(ValueError):
        check_pinsker(kl, p, 2.0 * q)


def test_check_pinsker_all_generators(registry):
    rng = np.random.default_rng(37)
    ps, qs = random_prob_pairs(rng, 50, 4)
    for g in registry:
        for p, q in zip(ps, qs):
            _, _, holds = check_pinsker(g, p, q)
            assert holds, g.label


def test_gilardoni_condition_examples():
    assert gilardoni_condition(make_generator("kl")) is True
    assert gilardoni_condition(make_generator("pearson_chi2")) is True
    assert gilardoni_condition(make_generator("renyi_gain", alpha=4.0)) is False
    with pytest.raises(ValueError):
        gilardoni_condition(make_generator("one_sided_chi2"))


def _grid_scan_whole(g, lam, u):
    """The certificate grid as one array: its minimum and first argmin, the
    interior and the ring minima; the oracle of ``pinsker._grid_scan``."""
    H = pinsker._h(g, lam, u[:, np.newaxis], u)
    k = int(np.argmin(H))
    ring = np.zeros_like(H, dtype=bool)
    ring[0, :] = ring[-1, :] = ring[:, 0] = ring[:, -1] = True
    return float(H.flat[k]), divmod(k, u.size), float(np.min(H[~ring])), float(np.min(H[ring]))


_CERTIFIED = default_registry()


@given(
    grid_n=st.integers(16, 600),
    chunk=st.integers(1, 1 << 17),
    index=st.integers(0, len(_CERTIFIED) - 1),
    lam=st.floats(0.0, 1.0),
)
@settings(max_examples=40, deadline=None)
def test_grid_row_chunks_are_bit_exact(grid_n, chunk, index, lam):
    g = _CERTIFIED[index]
    u = np.linspace(pinsker.BOUNDARY_EPS, 1.0 - pinsker.BOUNDARY_EPS, grid_n)
    with mock.patch.object(pinsker, "_CHUNK_ENTRIES", chunk):
        scan = pinsker._grid_scan(g, lam, u)
    assert scan == _grid_scan_whole(g, lam, u)


@pytest.mark.parametrize("nans", [[(0, 5)], [(20, 0)], [(17, 9), (3, 4)], [(31, 31)]])
def test_grid_scan_lets_the_first_nan_win(nans):
    # np.argmin lets the first NaN win, and a NaN anywhere is the minimum
    # of its region, interior or ring; chunks of 3 rows keep both rules
    kl = make_generator("kl")
    u = np.linspace(pinsker.BOUNDARY_EPS, 1.0 - pinsker.BOUNDARY_EPS, 32)
    h = pinsker._h

    def with_nans(g, lam, x, y):
        H = h(g, lam, x, y)
        for i, j in nans:
            H[x[:, 0] == u[i], j] = math.nan
        return H

    with mock.patch.object(pinsker, "_h", with_nans):
        with mock.patch.object(pinsker, "_CHUNK_ENTRIES", 3 * 32):
            scan = pinsker._grid_scan(kl, 0.5, u)
        whole = _grid_scan_whole(kl, 0.5, u)
    assert repr(scan) == repr(whole)
    assert math.isnan(scan[0]) and scan[1] == min(nans)


def test_certificate_grid_memory_is_bounded():
    # the whole 2048 x 2048 grid peaked at 160 MiB; rows of 64 hold 2^17
    tracemalloc.start()
    try:
        certify_constant(make_generator("kl"), grid_n=2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
