"""The input contract of the public API.

Every public callable of divlab (the union of the modules' ``__all__``
plus the validating constructors), drawn on edge inputs, either returns
well-typed values without NaN that meet the relations of its docstring, or
raises ValueError.  The CLI twin writes the same edge inputs to files and
flags: every subcommand exits 0, 1 or 2 without a traceback, and prints
``error: ...`` on exit 1.  The gate tests count the input gates: each
public call and each CLI report validates each argument once, and no
function of the package calls a public function that runs a gate.
"""

import ast
import contextlib
import dataclasses
import importlib
import inspect
import io
import json
import math
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import divlab
from divlab import cli, divergence, markov, quantum
from divlab.contraction import SampleBudget
from divlab.generators import Generator, make_generator
from divlab.quantum import KrausChannel, QuantumBudget

MODULES = ("bregman", "chi2bounds", "contraction", "divergence", "generators",
           "markov", "pinsker", "quantum")
SRC = pathlib.Path(divlab.__file__).parent


def _public_callables() -> dict:
    """The public functions of every module's ``__all__`` and the
    validating constructors."""
    out = {}
    for name in MODULES:
        module = importlib.import_module(f"divlab.{name}")
        for attr in module.__all__:
            obj = getattr(module, attr)
            if inspect.isfunction(obj):
                out[attr] = obj
    out.update(KrausChannel=KrausChannel, SampleBudget=SampleBudget,
               QuantumBudget=QuantumBudget)
    return out


PUBLIC = _public_callables()

# ---------------------------------------------------------------------------
# edge inputs

KL = make_generator("kl")
PC = make_generator("pearson_chi2")
JS = make_generator("jensen_shannon")
GENERATORS = (KL, PC, JS, make_generator("reverse_kl"), divlab.from_spec("hellinger"),
              divlab.from_spec("chi_alpha"))
SIZES = (1, 2, 3, 256, 257)
NAN, INF = math.nan, math.inf


def _vector(n: int, kind: str) -> np.ndarray:
    rng = np.random.default_rng(n)
    v = {
        "uniform": lambda: np.full(n, 1.0 / n),
        "one-hot": lambda: np.eye(n)[0],
        "one-hot-last": lambda: np.eye(n)[-1],
        "zeros": lambda: np.zeros(n),
        "dirichlet": lambda: rng.dirichlet(np.ones(n)),
        "sparse": lambda: rng.dirichlet(np.ones(n)) * (np.arange(n) % 2 == 0),
        "sub-epsilon": lambda: np.full(n, 1.0 / n) + 1e-13 * (-1.0) ** np.arange(n),
        "weights": lambda: np.full(n, 2.0 / n),
        "nan": lambda: np.where(np.arange(n) == 0, NAN, 1.0 / n),
        "inf": lambda: np.where(np.arange(n) == 0, INF, 1.0 / n),
        "-inf": lambda: np.where(np.arange(n) == 0, -INF, 1.0 / n),
        "negative": lambda: np.where(np.arange(n) == 0, -0.5, 1.5 / max(n - 1, 1)),
    }[kind]()
    return v


VECTOR_KINDS = ("uniform", "one-hot", "one-hot-last", "zeros", "dirichlet", "sparse",
                "sub-epsilon", "weights")
BAD_VECTOR_KINDS = ("nan", "inf", "-inf", "negative")
MALFORMED = ([], [[0.5, 0.5]], 0.5, [[0.5], [0.5, 0.5]])


def _mostly_valid(draw, good, bad, malformed=()):
    """A draw from ``good`` three times in four, else from ``bad`` or from
    ``malformed``."""
    if draw(st.integers(0, 3)):
        return draw(st.sampled_from(good))
    return draw(st.sampled_from(tuple(bad) + tuple(malformed)))


@st.composite
def vectors(draw, n=None):
    n = n if n is not None else draw(st.sampled_from(SIZES))
    kind = _mostly_valid(draw, VECTOR_KINDS, BAD_VECTOR_KINDS, range(len(MALFORMED)))
    return MALFORMED[kind] if isinstance(kind, int) else _vector(n, kind)


@st.composite
def pairs(draw):
    """(p, q), of one size but one time in five of two sizes."""
    n = draw(st.sampled_from(SIZES))
    m = draw(st.sampled_from(SIZES)) if draw(st.integers(0, 4)) == 0 else n
    return draw(vectors(n)), draw(vectors(m))


def _cycle(n: int) -> np.ndarray:
    return np.roll(np.eye(n), 1, axis=0)


def _sparse(n: int) -> np.ndarray:
    """A fast-mixing chain with five entries per column: a lazy cycle step
    and three random jumps."""
    W = 0.25 * np.eye(n) + 0.25 * _cycle(n)
    jumps = np.random.default_rng(n).integers(0, n, size=(3, n))
    np.add.at(W, (jumps, np.arange(n)), 0.5 / 3)
    return W


def _lazy_random(n: int, seed: int) -> np.ndarray:
    W = np.random.default_rng(seed).dirichlet(np.ones(n), size=n).T
    return 0.5 * W + 0.5 * np.eye(n)


CHAINS = {
    "n=1": np.ones((1, 1)),
    "bsc": divlab.bsc(0.1),
    "asym": np.array([[0.7, 0.4], [0.3, 0.6]]),
    "random-3": _lazy_random(3, 3),
    "periodic": _cycle(3),
    "reducible": np.eye(3),
    "absorbing": np.array([[1.0, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 0.5]]),
    "typewriter": divlab.noisy_typewriter(),
    "rectangular-2x3": np.array([[0.5, 0.2, 0.1], [0.5, 0.8, 0.9]]),
    "rectangular-3x2": np.array([[0.5, 0.2], [0.3, 0.3], [0.2, 0.5]]),
    "nan": np.array([[NAN, 0.5], [0.5, 0.5]]),
    "inf": np.array([[INF, 0.5], [0.5, 0.5]]),
    "negative": np.array([[1.5, 0.5], [-0.5, 0.5]]),
    "not-stochastic": np.array([[0.5, 0.2], [0.4, 0.8]]),
    "vector": np.array([0.5, 0.5]),
    "empty": np.zeros((0, 0)),
    "sparse-256": _sparse(256),
    "reducible-257": np.eye(257),
}
BAD_CHAINS = ("rectangular-2x3", "rectangular-3x2", "nan", "inf", "negative",
              "not-stochastic", "vector", "empty")
SMALL_CHAINS = tuple(k for k in CHAINS if not k.endswith(("256", "257")))


@st.composite
def chains(draw, small=False):
    good = [k for k in (SMALL_CHAINS if small else CHAINS) if k not in BAD_CHAINS]
    return CHAINS[_mostly_valid(draw, good, BAD_CHAINS)]


@st.composite
def chain_inputs(draw, k=1, small=False):
    """A chain and k vectors on its inputs, or one time in five on other
    sizes."""
    W = draw(chains(small))
    n = W.shape[1] if W.ndim == 2 and W.shape[1] else 2
    if draw(st.integers(0, 4)) == 0:
        n = draw(st.sampled_from(SIZES[:3]))
    return (W, *[draw(vectors(n)) for _ in range(k)])


@st.composite
def stationary_inputs(draw, small=True):
    """A chain, a stationary pi of it where there is one, and a vector."""
    W, p = draw(chain_inputs(1, small))
    try:
        pi = divlab.stationary_distribution(W)[0]
    except ValueError:
        pi = p
    return W, pi, p


def _state(d: int, kind: str) -> np.ndarray:
    rng = np.random.default_rng(d)
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    full = A @ A.conj().T
    full /= np.trace(full).real
    v = A[:, 0] / np.linalg.norm(A[:, 0])
    pure = np.outer(v, v.conj())
    return {
        "full": lambda: full,
        "maximally-mixed": lambda: np.eye(d) / d,
        "pure": lambda: pure,
        "basis": lambda: np.diag(np.eye(d)[0]).astype(complex),
        "near-singular": lambda: (1.0 - 1e-13) * pure + 1e-13 * np.eye(d) / d,
        "nan": lambda: np.where(np.eye(d) > 0, NAN, 0.0) + full,
        "inf": lambda: full + np.diag(np.r_[INF, np.zeros(d - 1)]),
        "not-hermitian": lambda: full + 0.1j * np.triu(np.ones((d, d)), 1),
        "negative": lambda: np.diag(np.r_[1.5, -0.5, np.zeros(d - 2)]) if d > 1 else -np.eye(1),
        "trace-2": lambda: 2.0 * full,
    }[kind]()


STATE_KINDS = ("full", "maximally-mixed", "pure", "basis", "near-singular")
BAD_STATE_KINDS = ("nan", "inf", "not-hermitian", "negative", "trace-2")
STATE_SIZES = (1, 2, 3)
MALFORMED_STATES = (np.zeros((0, 0)), np.ones((2, 3)) / 2, np.ones(2), np.eye(2)[np.newaxis])


@st.composite
def states(draw, d=None):
    d = d if d is not None else draw(st.sampled_from(STATE_SIZES))
    kind = _mostly_valid(draw, STATE_KINDS, BAD_STATE_KINDS, range(len(MALFORMED_STATES)))
    return MALFORMED_STATES[kind] if isinstance(kind, int) else _state(d, kind)


@st.composite
def state_pairs(draw):
    d = draw(st.sampled_from(STATE_SIZES))
    e = draw(st.sampled_from(STATE_SIZES)) if draw(st.integers(0, 4)) == 0 else d
    return draw(states(d)), draw(states(e))


def _isometry(d_in: int, d_out: int, k: int, seed: int) -> KrausChannel:
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(k * d_out, d_in)) + 1j * rng.normal(size=(k * d_out, d_in))
    V, _ = np.linalg.qr(A)
    return KrausChannel(kraus=tuple(V[i * d_out: (i + 1) * d_out] for i in range(k)))


CHANNELS = {
    "identity-1": divlab.identity_channel(1),
    "identity-2": divlab.identity_channel(2),
    "depolarizing": divlab.depolarizing_channel(2, 0.5),
    "dephasing": divlab.dephasing_channel(2),
    "replacer-pure": divlab.replacer_channel(_state(2, "pure")),
    "embedded-bsc": divlab.classical_embedding(divlab.bsc(0.2)),
    "isometry-2": _isometry(2, 2, 3, 1),
    "isometry-3": _isometry(3, 3, 2, 2),
    "rectangular-2to3": _isometry(2, 3, 1, 3),
}


@st.composite
def channels(draw):
    return CHANNELS[draw(st.sampled_from(tuple(CHANNELS)))]


@st.composite
def channel_states(draw):
    """A channel and a state on its input, or one time in five another."""
    channel = draw(channels())
    d = channel.dim_in if draw(st.integers(0, 4)) else draw(st.sampled_from(STATE_SIZES))
    return channel, draw(states(d))


KRAUS_LISTS = (
    [np.eye(2)],
    [],
    [np.eye(2), np.eye(3)],
    [np.ones(2)],
    [np.zeros((0, 0))],
    [np.eye(2) * NAN],
    [np.eye(2), np.eye(2)],
    list(CHANNELS["rectangular-2to3"].kraus),
    [np.eye(2)[:, :1]],
)
SCALARS = (0.0, 0.25, 0.5, 1.0, -0.5, 1.5, NAN, INF, -INF)
COUNTS = (0, 1, 2, 3, 2.5, -1, 16, 15, 17.0, np.int64(2))
DELTAS = (0.01, 1e-320, 0.0, -1.0, NAN, INF)
BUDGETS = (None, SampleBudget(n_samples=100, refine_steps=5))
QBUDGETS = (None, QuantumBudget(n_samples=100, refine_steps=5))
gens = st.sampled_from(GENERATORS)
scalars = st.sampled_from(SCALARS)
counts = st.sampled_from(COUNTS)


@st.composite
def bregman_args(draw):
    fd = draw(st.sampled_from((
        divlab.neg_entropy_fn(2), divlab.neg_entropy_fn(3),
        divlab.quadratic_fn(np.eye(2)), divlab.quadratic_fn([[2.0, 0.5], [0.5, 1.0]]),
        divlab.quadratic_fn([[1.0, 0.0], [0.0, -1.0]]),
    )))
    pool = ([0.2, 0.8], [0.5, 0.5], [0.0, 1.0], [0.2, 0.3, 0.5], [NAN, 0.5], [INF, 0.5],
            [-0.5, 1.5], [[0.5, 0.5]])
    return fd, draw(st.sampled_from(pool)), draw(st.sampled_from(pool))


def _args(*strategies):
    return st.tuples(*strategies)


STRATEGIES = {
    # divergence
    "as_weight_vec": _args(vectors()),
    "as_prob_vec": _args(vectors()),
    "f_divergence": pairs().map(lambda pq: (KL, *pq)) | _args(gens, vectors(), vectors()),
    "f_divergence_rows": _args(gens, st.sampled_from((
        [[0.5, 0.5], [0.2, 0.8]], [[NAN, 0.5]], [[-0.5, 1.5]], [0.5, 0.5], np.zeros((0, 2)),
        [[1.0, 0.0]], [[0.5, 0.5, 0.0]])), st.sampled_from(([0.5, 0.5], [1.0, 0.0],
        [[0.5, 0.5], [0.5, 0.5]], [NAN, 1.0]))),
    "total_variation": pairs(),
    "chi_squared": pairs(),
    "integral_representation": st.tuples(gens, pairs()).map(lambda a: (a[0], *a[1])),
    # chi2bounds
    "kappa_bounds": st.tuples(gens, pairs()).map(lambda a: (a[0], *a[1])),
    "chi2_sandwich": st.tuples(gens, pairs()).map(lambda a: (a[0], *a[1])),
    "reverse_pinsker": st.tuples(gens, pairs()).map(lambda a: (a[0], *a[1])),
    "chi2_tv_upper": pairs(),
    "f_lower_by_chi2": st.tuples(gens, pairs()).map(lambda a: (a[0], *a[1])),
    "q_min_on_support": _args(vectors()),
    # pinsker
    "h_lambda": _args(gens, scalars, st.sampled_from((0.5, 0.2, NAN, 0.0, 1.0, [0.1, 0.9],
                                                      np.full((2, 2), 0.3))),
                      st.sampled_from((0.5, 0.7, INF, [0.4, 0.6], [0.1, 0.2, 0.3]))),
    "certify_constant": _args(gens, st.sampled_from((None, 0.0, 1.0, NAN)),
                              st.sampled_from((16, 15, 16.5, 0)),
                              st.sampled_from((None, 0.5, NAN, INF))),
    "check_pinsker": st.tuples(gens, pairs()).map(lambda a: (a[0], *a[1])),
    "gilardoni_condition": _args(gens),
    # generators
    "make_generator": st.sampled_from(divlab.registry_names() + ("nope",)).flatmap(
        lambda name: st.sampled_from(({}, {"alpha": 1.5}, {"alpha": NAN}, {"theta": 2.0},
                                      {"alpha": 0.5}, {"alpha": -INF}))
        .map(lambda params: ((name,), params))),
    "custom_generator": st.sampled_from((
        ("kl", lambda t: t * np.log(t), lambda t: np.log(t) + 1.0, lambda t: 1.0 / t),
        ("off", lambda t: t, lambda t: 1.0 + 0.0 * t, lambda t: 0.0 * t),
        ("nan", lambda t: NAN * t, lambda t: NAN * t, lambda t: NAN * t),
    )),
    "generator_values": _args(gens, st.sampled_from((0.5, 1.0, 2.0, 1e-9, 1e9, 0.0, -1.0,
                                                      NAN, INF, [0.5, 2.0]))),
    "shift_generator": _args(gens, scalars),
    "registry_names": st.just(()),
    "default_registry": st.just(()),
    "from_spec": _args(st.sampled_from(("kl", "hellinger:alpha=1.5", "hellinger:alpha=nan",
                                        "lins:theta=2", "nope", "kl:alpha=1",
                                        "hellinger:alpha=1,alpha=2", "hellinger:alpha",
                                        "renyi_gain:alpha=x"))),
    # markov
    "as_channel": _args(chains()),
    "bsc": _args(scalars),
    "noisy_typewriter": st.just(()),
    "stationary_distribution": _args(chains()),
    "structure": _args(chains()),
    "iterate": st.tuples(chain_inputs(1), counts).map(lambda a: (*a[0], a[1])),
    # contraction
    "eta_chi2": chain_inputs(1),
    "eta_f_estimate": st.tuples(chain_inputs(1, small=True), gens,
                                st.sampled_from(BUDGETS)).map(lambda a: (*a[0], *a[1:])),
    "eta_f_upper_bounds": st.tuples(chain_inputs(1), gens).map(lambda a: (*a[0], a[1])),
    "contraction_rate_profile": _args(chains(small=True), gens,
                                      st.sampled_from((2, 3, 1, 2.5)),
                                      st.sampled_from(BUDGETS)),
    "convergence_bound": st.tuples(stationary_inputs(), counts).map(lambda a: (*a[0], a[1])),
    "mixing_time_bounds": _args(chains(), st.sampled_from(DELTAS),
                                st.sampled_from((None, KL, PC, make_generator("reverse_kl")))),
    "SampleBudget": _args(st.sampled_from((100, 99, 100.5, 400)), st.sampled_from((0, -1, 2.5)),
                          st.sampled_from((0, 5, -1, 2.5))),
    # quantum
    "check_density_matrix": _args(states()),
    "trace_distance": state_pairs(),
    "hs_norm_sq": _args(states()),
    "min_positive_eigenvalue": _args(states()),
    "ns_distributions": state_pairs(),
    "petz_f_divergence": st.tuples(gens, state_pairs()).map(lambda a: (a[0], *a[1])),
    "petz_chi2": state_pairs(),
    "KrausChannel": _args(st.sampled_from(KRAUS_LISTS)),
    "identity_channel": _args(counts),
    "depolarizing_channel": _args(counts, scalars),
    "dephasing_channel": _args(counts),
    "replacer_channel": _args(states()),
    "classical_embedding": _args(chains(small=True)),
    "apply_channel": channel_states(),
    "compose": _args(channels(), channels()),
    "channel_structure": _args(channels()),
    "petz_bounds_report": st.tuples(gens, state_pairs()).map(lambda a: (a[0], *a[1])),
    "QuantumBudget": _args(st.sampled_from((100, 99, 100.5)), st.sampled_from((0, -1, 2.5)),
                           st.sampled_from((0, 5, -1))),
    "petz_eta_chi2": channel_states(),
    "quantum_eta_estimate": st.tuples(channel_states(), gens,
                                      st.sampled_from(QBUDGETS)).map(lambda a: (*a[0], *a[1:])),
    "quantum_eta_bounds": st.tuples(channel_states(), gens).map(lambda a: (*a[0], a[1])),
    "quantum_mixing_time_bounds": _args(channels(), st.sampled_from(DELTAS),
                                        st.sampled_from((None, KL, PC, JS))),
    # bregman
    "quadratic_fn": _args(st.sampled_from((np.eye(2), [[NAN, 0.0], [0.0, 1.0]], np.ones(2),
                                           np.zeros((0, 0)), [[1.0, 2.0]]))),
    "neg_entropy_fn": _args(counts),
    "bregman_divergence": bregman_args(),
    "bregman_integral": bregman_args(),
    "bregman_sandwich": bregman_args(),
}

# ---------------------------------------------------------------------------
# relations


def _nan_free(x, path="result"):
    """Every number reachable from x (containers, arrays, dataclass fields)
    is not NaN; a BoundCheck that does not apply carries NaN by design."""
    if isinstance(x, Generator):
        for key in ("f_at_zero", "fprime_at_inf", "pinsker_constant", "pinsker_lambda"):
            _nan_free(getattr(x, key), f"{path}.{key}")
        return
    if isinstance(x, quantum.BoundCheck) and not x.applicable:
        return
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        for field in dataclasses.fields(x):
            _nan_free(getattr(x, field.name), f"{path}.{field.name}")
    elif isinstance(x, dict):
        for k, v in x.items():
            _nan_free(v, f"{path}[{k!r}]")
    elif isinstance(x, (list, tuple)):
        for k, v in enumerate(x):
            _nan_free(v, f"{path}[{k}]")
    elif isinstance(x, np.ndarray) and x.dtype.kind in "fc":
        assert not np.isnan(x).any(), path
    elif isinstance(x, (float, complex, np.floating, np.complexfloating)):
        assert not np.isnan(x), path


def _is_prob(v, tol=1e-9) -> bool:
    v = np.asarray(v, dtype=float)
    return v.ndim == 1 and bool(np.all(v >= 0.0)) and abs(v.sum() - 1.0) <= tol


def _both_prob(p, q) -> bool:
    try:
        return _is_prob(p) and _is_prob(q) and len(p) == len(q)
    except TypeError:
        return False


def _is_state(rho, tol=1e-8) -> bool:
    rho = np.asarray(rho)
    return (np.max(np.abs(rho - rho.conj().T)) <= tol
            and np.linalg.eigvalsh(rho).min() >= -tol
            and abs(np.trace(rho).real - 1.0) <= tol)


def _dominates(p, q) -> bool:
    return float(np.asarray(p, dtype=float)[np.asarray(q, dtype=float) <= 0.0].sum()) == 0.0


def _stochastic(W) -> bool:
    return bool(np.all(W >= 0.0)) and np.allclose(W.sum(axis=0), 1.0, atol=1e-9)


def _relations(name, args, kwargs, out):
    """The docstring relations of each callable on a result."""
    a = args
    if name in ("as_weight_vec", "as_prob_vec"):
        assert out.ndim == 1 and np.all(out >= 0.0)
        if name == "as_prob_vec":
            assert _is_prob(out)
    elif name in ("total_variation", "chi_squared"):
        assert out >= 0.0
    elif name == "f_divergence":
        if _both_prob(a[1], a[2]):
            assert out >= -1e-12
    elif name == "f_divergence_rows":
        assert out.shape == (np.asarray(a[1]).shape[0],)
    elif name == "integral_representation":
        exact = divlab.f_divergence(a[0], a[1], a[2])
        if a[0] in (KL, PC) and _both_prob(a[1], a[2]) and np.all(np.asarray(a[1]) > 0):
            assert out == pytest.approx(exact, rel=1e-6, abs=1e-9)
    elif name == "kappa_bounds":
        assert 0.0 <= out.kappa_down <= out.kappa_up and out.finite == math.isfinite(out.kappa_up)
    elif name == "chi2_sandwich":
        if _both_prob(a[1], a[2]):
            assert out[3]
    elif name == "reverse_pinsker":
        if _both_prob(a[1], a[2]):
            value = divlab.f_divergence(*a)
            assert value <= out[0] * (1 + 1e-9) + 1e-12 and value <= out[1] * (1 + 1e-9) + 1e-12
    elif name == "chi2_tv_upper":
        chi2 = divlab.chi_squared(*a)
        assert chi2 <= out[0] * (1 + 1e-9) + 1e-12
        if out[1] is not None:
            assert chi2 <= out[1] * (1 + 1e-9) + 1e-12
    elif name == "f_lower_by_chi2":
        if _both_prob(a[1], a[2]) and _dominates(a[1], a[2]):
            assert out[1]
    elif name == "q_min_on_support":
        assert out > 0.0
    elif name == "h_lambda":
        assert np.all(np.asarray(out) >= 0.0)
    elif name == "certify_constant":
        assert out.verdict in ("certified", "violated", "inconclusive-boundary")
    elif name == "check_pinsker":
        assert out[2]
    elif name in ("make_generator", "custom_generator", "shift_generator", "from_spec"):
        assert isinstance(out, Generator)
    elif name in ("as_channel", "bsc"):
        assert _stochastic(out)
    elif name == "stationary_distribution":
        pi, _ = out
        assert _is_prob(pi) and np.abs(a[0] @ pi - pi).sum() <= 1e-9
    elif name == "structure":
        assert out.stationary is None or _is_prob(out.stationary)
        assert (out.positivity_index is not None) == (out.irreducible and out.aperiodic)
    elif name == "iterate":
        assert _is_prob(out)
    elif name == "eta_chi2":
        assert 0.0 <= out <= 1.0
    elif name == "eta_f_estimate":
        assert out[0] >= 0.0 and (out[1] is None or _is_prob(out[1]))
    elif name == "eta_f_upper_bounds":
        assert out[0] >= 0.0 and (out[1] is None or out[1] >= 0.0)
    elif name == "contraction_rate_profile":
        assert len(out) == a[2] and all(pt.within_envelope for pt in out)
    elif name == "convergence_bound":
        assert out[0] <= out[1] + 1e-9 and out[0] <= out[2] + 1e-9
    elif name == "mixing_time_bounds":
        assert out.tv_bound >= 0 and out.empirical_within_bound
    elif name in ("SampleBudget", "QuantumBudget"):
        assert out.n_samples >= 100 and out.seed >= 0 and out.refine_steps >= 0
    elif name == "check_density_matrix":
        assert _is_state(out)
    elif name == "trace_distance":
        assert np.all((out >= 0.0) & (out <= 1.0 + 1e-12))
    elif name == "hs_norm_sq":
        assert out >= 0.0
    elif name == "min_positive_eigenvalue":
        assert out >= quantum.EIG_CLAMP
    elif name == "ns_distributions":
        assert _is_prob(out.p_xy) and _is_prob(out.q_xy)
    elif name in ("petz_f_divergence", "petz_chi2"):
        assert out >= -1e-12
    elif name in ("KrausChannel", "identity_channel", "depolarizing_channel",
                  "dephasing_channel", "replacer_channel", "classical_embedding", "compose"):
        comp = sum(K.conj().T @ K for K in out.kraus)
        assert np.abs(comp - np.eye(out.dim_in)).max() <= 1e-9
    elif name == "apply_channel":
        assert _is_state(out)
    elif name == "channel_structure":
        assert out.fixed_point is None or _is_state(out.fixed_point)
        assert not out.strongly_mixing or out.mixing
    elif name == "petz_bounds_report":
        assert out.all_hold
    elif name == "petz_eta_chi2":
        assert 0.0 <= out <= 1.0
    elif name == "quantum_eta_estimate":
        assert out[0] >= 0.0 and (out[1] is None or _is_state(out[1]))
    elif name == "quantum_eta_bounds":
        assert out[0] >= 0.0 and (out[1] is None or out[1] >= 0.0)
    elif name == "quantum_mixing_time_bounds":
        assert out.td_bound >= 0
    elif name == "bregman_sandwich":
        assert out.holds


def test_every_public_callable_has_a_strategy():
    assert set(PUBLIC) == set(STRATEGIES), set(PUBLIC) ^ set(STRATEGIES)


def _split(drawn):
    """A drawn case as (args, kwargs)."""
    if len(drawn) == 2 and isinstance(drawn[0], tuple) and isinstance(drawn[1], dict):
        return drawn
    return tuple(drawn), {}


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_public_call_returns_or_raises_value_error(name):
    call = PUBLIC[name]

    @settings(max_examples=25, deadline=None, derandomize=True, database=None,
              suppress_health_check=list(HealthCheck))
    @given(STRATEGIES[name])
    def check(drawn):
        args, kwargs = _split(drawn)
        try:
            out = call(*args, **kwargs)
        except ValueError:
            return
        _nan_free(out)
        _relations(name, args, kwargs, out)

    check()


# ---------------------------------------------------------------------------
# what the contract found, each a regression row


def _raises(call, *args, match=""):
    return pytest.param(call, args, match, id=f"{call.__name__}-{match or 'error'}")


EYE2 = np.eye(2) / 2
NAN2 = np.full((2, 2), NAN)


@pytest.mark.parametrize("call,args,match", [
    _raises(divlab.trace_distance, EYE2, np.ones((1, 1)), match="dimension mismatch"),
    _raises(divlab.trace_distance, NAN2, EYE2, match="finite"),
    _raises(quantum.hs_norm_sq, NAN2, match="finite"),
    _raises(divlab.apply_channel, divlab.identity_channel(2), NAN2, match="finite"),
    _raises(divlab.h_lambda, KL, 0.5, NAN, 0.5, match="open interval"),
    _raises(divlab.f_divergence_rows, KL, [[NAN, 0.5]], [0.5, 0.5], match="finite"),
    _raises(divlab.f_divergence_rows, KL, [[-0.5, 1.5]], [0.5, 0.5], match="non-negative"),
    _raises(divlab.depolarizing_channel, 0, 0.5, match="d must be at least 1"),
    _raises(divlab.identity_channel, 0, match="d must be at least 1"),
    _raises(divlab.dephasing_channel, 2.5, match="d must be an integer"),
    _raises(divlab.iterate, divlab.bsc(0.1), [0.5, 0.5], 2.5, match="n must be an integer"),
    _raises(divlab.convergence_bound, divlab.bsc(0.1), [0.5, 0.5], [0.5, 0.5], 2.5,
            match="n must be an integer"),
    _raises(divlab.classical_embedding, [0.5, 0.5], match="non-empty 2-D"),
    _raises(divlab.classical_embedding, [[1.5, 0.0], [-0.5, 1.0]], match="non-negative"),
    _raises(divlab.eta_f_estimate, divlab.bsc(0.1), [0.2, 0.3, 0.5], KL,
            match="dimension mismatch between channel and input"),
    _raises(divlab.convergence_bound, divlab.bsc(0.1), [0.2, 0.3, 0.5], [0.5, 0.5], 2,
            match="dimension mismatch between channel and input"),
    _raises(divlab.custom_generator, "nan", lambda t: NAN * t, lambda t: t, lambda t: t,
            match="f\\(1\\) = 0"),
    _raises(divlab.generator_values, KL, INF, match="positive and finite"),
    _raises(divlab.shift_generator, KL, NAN, match="shift must be finite"),
    _raises(divlab.certify_constant, KL, None, 16, NAN, match="claimed constant"),
    _raises(divlab.certify_constant, KL, None, 16.5, match="grid_n must be an integer"),
    _raises(SampleBudget, 100.5, match="n_samples must be an integer"),
    _raises(QuantumBudget, 200, -1, match="seed must be at least 0"),
    _raises(divlab.quadratic_fn, [[NAN, 0.0], [0.0, 1.0]], match="finite"),
    _raises(divlab.neg_entropy_fn, 0, match="dim must be at least 1"),
    _raises(KrausChannel, (np.ones(2),), match="2-D"),
    _raises(KrausChannel, (np.zeros((0, 0)),), match="2-D"),
    _raises(divlab.check_density_matrix, NAN2, match="finite"),
    _raises(make_generator, "nope", match="unknown generator"),
])
def test_input_errors_are_value_errors(call, args, match):
    with pytest.raises(ValueError, match=match):
        call(*args)


@pytest.mark.parametrize("P,Q", [(np.zeros((0, 2)), [0.5, 0.5]), (np.zeros((0, 1)), [1.0])])
def test_f_divergence_rows_of_no_rows_is_empty(P, Q):
    out = divlab.f_divergence_rows(KL, P, Q)
    assert out.shape == (0,) and out.dtype == float


def test_eta_f_upper_bounds_rejects_a_nan_constant():
    with pytest.raises(ValueError, match="positive certified Pinsker constant"):
        divlab.eta_f_upper_bounds(divlab.bsc(0.1), [0.5, 0.5], KL, pinsker_constant=NAN)


def test_unknown_generator_is_a_key_and_a_value_error():
    with pytest.raises(KeyError):
        make_generator("nope")
    with pytest.raises(ValueError):
        divlab.from_spec("nope")


def test_rectangular_eta_f_estimate_pads_rows():
    # 0 f(0/0) = 0: the estimate on a 2 x 3 channel is the estimate on it
    # with a zero output row appended
    W = np.array([[0.5, 0.2, 0.1], [0.5, 0.8, 0.9]])
    q = [0.2, 0.3, 0.5]
    est, witness = divlab.eta_f_estimate(W, q, KL)
    square = divlab.eta_f_estimate(np.vstack([W, np.zeros(3)]), q, KL)
    assert est == square[0] == 0.1502225002165803
    assert np.array_equal(witness, square[1])
    nonlinear, linear = divlab.eta_f_upper_bounds(W, q, KL)
    assert divlab.eta_chi2(W, q) <= est <= linear <= nonlinear
    # more outputs than inputs: the inputs are padded
    T = W.T / W.T.sum(axis=0)
    est = divlab.eta_f_estimate(T, [0.4, 0.6], KL)[0]
    assert 0.0 < est <= min(b for b in divlab.eta_f_upper_bounds(T, [0.4, 0.6], KL) if b)


# ---------------------------------------------------------------------------
# the CLI twin


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except SystemExit as exc:  # argparse rejects a flag's type
        code = exc.code
    return code, out.getvalue(), err.getvalue()


def _matrix_text(W) -> str:
    W = np.atleast_2d(np.asarray(W, dtype=float))
    return "\n".join(",".join(repr(float(x)) for x in row) for row in W) + "\n"


def _kraus_json(ops) -> str:
    return json.dumps({"kraus": [{"re": np.real(K).tolist(), "im": np.imag(K).tolist()}
                                 for K in ops]})


CLI_KRAUS = {
    **{name: list(ch.kraus) for name, ch in CHANNELS.items()},
    "empty": [],
    "nan": [np.eye(2) * NAN],
    "not-cptp": [np.eye(2), np.eye(2)],
    "zero-size": [np.zeros((0, 0))],
    "vector": [np.ones(2)],
}


def _cli_cases(tmp):
    cases = []
    for name in SMALL_CHAINS:
        path = tmp / f"{name}.csv"
        path.write_text(_matrix_text(CHAINS[name]) if CHAINS[name].size else "")
        cases.append(["analyze-chain", "--matrix", str(path), "--generator", "kl",
                      "--profile-n", "2"])
        cases.append(["mixing-time", "--matrix", str(path), "--generator", "kl"])
    for name in ("sparse-256", "reducible-257"):
        path = tmp / f"{name}.csv"
        path.write_text(_matrix_text(CHAINS[name]))
        cases.append(["mixing-time", "--matrix", str(path), "--delta", "0.1"])
    (tmp / "bad.json").write_text('{"matrix": 5}')
    (tmp / "list.json").write_text("[1, 2]")
    (tmp / "number.json").write_text("5")
    (tmp / "text.csv").write_text("a,b\n1,x\n")
    for bad in ("bad.json", "list.json", "number.json", "text.csv", "missing.csv"):
        cases.append(["mixing-time", "--matrix", str(tmp / bad)])
    for name, ops in CLI_KRAUS.items():
        path = tmp / f"{name}.json"
        path.write_text(_kraus_json(ops))
        cases.append(["quantum-analyze", "--channel", str(path), "--generator", "kl"])
    (tmp / "kraus-5.json").write_text('{"kraus": 5}')
    (tmp / "kraus-dict.json").write_text('{"kraus": [{"im": [[1]]}]}')
    for bad in ("kraus-5.json", "kraus-dict.json", "missing.json"):
        cases.append(["quantum-analyze", "--channel", str(tmp / bad), "--generator", "kl"])
    good = str(tmp / "bsc.csv")
    vectors_text = ("0.5,0.5", "1,0", "0,0", "nan,1", "inf,0", "-0.5,1.5", "0.2,0.3,0.5",
                    "", "x,1", "1")
    for p in vectors_text:
        for q in ("0.5,0.5", "1,0", "0,0", "1"):
            cases.append(["divergence", "--g", "kl", "--p", p, "--q", q])
    cases += [
        ["divergence", "--g", "nope", "--p", "0.5,0.5", "--q", "0.5,0.5"],
        ["divergence", "--g", "hellinger:alpha=nan", "--p", "0.5,0.5", "--q", "0.5,0.5"],
        ["verify-constants", "--grid", "0"],
        ["verify-constants", "--grid", "2.5"],
        ["analyze-chain", "--matrix", good, "--generator", "kl", "--delta", "nan"],
        ["analyze-chain", "--matrix", good, "--generator", "kl", "--profile-n", "2.5"],
        ["analyze-chain", "--matrix", good, "--generator", "kl", "--seed", "-1"],
        ["analyze-chain", "--matrix", good, "--generator", "kl", "--profile-n", "-3"],
        ["mixing-time", "--matrix", good, "--delta", "0"],
        ["mixing-time", "--matrix", good, "--delta", "inf"],
        ["quantum-analyze", "--channel", str(tmp / "depolarizing.json"), "--generator", "kl",
         "--delta", "-1"],
        ["quantum-analyze", "--channel", str(tmp / "depolarizing.json"), "--generator", "kl",
         "--seed", "-1"],
    ]
    return cases


def test_cli_edge_inputs_exit_cleanly(tmp_path):
    for argv in _cli_cases(tmp_path):
        code, out, err = _run(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        if code == 1:
            assert err.startswith("error: ") and out == "", (argv, err)
        if code == 0:
            json.loads(out.splitlines()[0] if argv[0] == "verify-constants" else out)


# ---------------------------------------------------------------------------
# the gates, counted

GATES = {
    (divergence, "_vectors"), (markov, "_channel"), (quantum, "_states"),
    (divergence, "_as_count"),
}


@pytest.fixture
def gate_calls(monkeypatch):
    """Counts of every gate call, through every divlab module's binding."""
    calls: dict[str, int] = {}
    for home, name in GATES:
        original = getattr(home, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("divlab") and (
                getattr(module, name, None) is original
            ):
                monkeypatch.setattr(module, name, counted)
    post_init = KrausChannel.__post_init__

    def counted_kraus(self):
        calls["KrausChannel"] = calls.get("KrausChannel", 0) + 1
        return post_init(self)

    monkeypatch.setattr(KrausChannel, "__post_init__", counted_kraus)
    return calls


P, Q = [0.2, 0.3, 0.5], [0.3, 0.3, 0.4]
W3 = CHAINS["random-3"]
PI3 = divlab.stationary_distribution(W3)[0]
RHO, SIGMA = _state(2, "full"), np.eye(2) / 2
CHAN = CHANNELS["isometry-2"]
FAST = SampleBudget(n_samples=100, refine_steps=5)
VALID = {
    "as_weight_vec": (P,), "as_prob_vec": (P,), "f_divergence": (KL, P, Q),
    "f_divergence_rows": (KL, [P, Q], Q), "total_variation": (P, Q), "chi_squared": (P, Q),
    "integral_representation": (KL, P, Q), "kappa_bounds": (KL, P, Q),
    "chi2_sandwich": (KL, P, Q), "reverse_pinsker": (KL, P, Q), "chi2_tv_upper": (P, Q),
    "f_lower_by_chi2": (KL, P, Q), "q_min_on_support": (Q,), "h_lambda": (KL, 0.5, 0.3, 0.6),
    "certify_constant": (KL, None, 16), "check_pinsker": (KL, P, Q),
    "gilardoni_condition": (KL,), "make_generator": ("kl",),
    "custom_generator": ("sq", lambda t: (t - 1.0) ** 2, lambda t: 2 * (t - 1.0),
                         lambda t: 2.0 + 0.0 * t),
    "generator_values": (KL, 2.0), "shift_generator": (KL, 0.5), "registry_names": (),
    "default_registry": (), "from_spec": ("kl",), "as_channel": (W3,), "bsc": (0.1,),
    "noisy_typewriter": (), "stationary_distribution": (W3,), "structure": (W3,),
    "iterate": (W3, P, 3), "eta_chi2": (W3, PI3), "eta_f_estimate": (W3, PI3, KL, FAST),
    "eta_f_upper_bounds": (W3, PI3, KL), "contraction_rate_profile": (W3, KL, 3, FAST),
    "convergence_bound": (W3, PI3, P, 3), "mixing_time_bounds": (W3, 0.01, KL),
    "SampleBudget": (100, 0, 5), "check_density_matrix": (RHO,),
    "trace_distance": (RHO, SIGMA), "hs_norm_sq": (RHO,), "min_positive_eigenvalue": (RHO,),
    "ns_distributions": (RHO, SIGMA), "petz_f_divergence": (KL, RHO, SIGMA),
    "petz_chi2": (RHO, SIGMA), "KrausChannel": ((np.eye(2),),), "identity_channel": (2,),
    "depolarizing_channel": (2, 0.5), "dephasing_channel": (2,),
    "replacer_channel": (RHO,), "classical_embedding": (W3,), "apply_channel": (CHAN, RHO),
    "compose": (CHAN, CHAN), "channel_structure": (CHAN,),
    "petz_bounds_report": (KL, RHO, SIGMA), "QuantumBudget": (100, 0, 5),
    "petz_eta_chi2": (CHAN, SIGMA), "quantum_eta_estimate": (CHAN, SIGMA, KL, QBUDGETS[1]),
    "quantum_eta_bounds": (CHAN, SIGMA, KL),
    "quantum_mixing_time_bounds": (divlab.depolarizing_channel(2, 0.5), 0.01, KL),
    "quadratic_fn": (np.eye(2),), "neg_entropy_fn": (2,),
    "bregman_divergence": (divlab.neg_entropy_fn(2), [0.2, 0.8], [0.5, 0.5]),
    "bregman_integral": (divlab.neg_entropy_fn(2), [0.2, 0.8], [0.5, 0.5]),
    "bregman_sandwich": (divlab.neg_entropy_fn(2), [0.2, 0.8], [0.5, 0.5]),
}


@pytest.mark.parametrize("name", sorted(VALID))
def test_public_call_runs_each_gate_at_most_once(name, gate_calls):
    # a gate validates every argument of its kind, so one call per gate is
    # one validation per argument; a budget has three counts
    assert set(VALID) == set(PUBLIC)
    PUBLIC[name](*VALID[name])
    counts = {"_as_count": 3} if name.endswith("Budget") else {}
    assert all(n == counts.get(gate, 1) for gate, n in gate_calls.items()), gate_calls


# the budgets of the two sampling reports check their three counts, the
# seed among them
@pytest.mark.parametrize("command,gates", [
    ("analyze-chain", {"_channel": 1, "_as_count": 3}),
    ("mixing-time", {"_channel": 1}),
    ("divergence", {"_vectors": 1}),
    ("quantum-analyze", {"KrausChannel": 1, "_as_count": 3}),
    ("verify-constants", {"_as_count": 1}),
])
def test_cli_report_validates_each_argument_once(command, gates, tmp_path, gate_calls):
    chain = tmp_path / "chain.csv"
    chain.write_text(_matrix_text(CHAINS["asym"]))
    kraus = tmp_path / "kraus.json"
    kraus.write_text(_kraus_json(CHANNELS["depolarizing"].kraus))
    argv = {
        "analyze-chain": ["--matrix", str(chain), "--generator", "kl", "--profile-n", "3"],
        "mixing-time": ["--matrix", str(chain), "--generator", "kl"],
        "divergence": ["--g", "kl", "--p", "0.2,0.8", "--q", "0.5,0.5"],
        "quantum-analyze": ["--channel", str(kraus), "--generator", "kl"],
        "verify-constants": ["--grid", "16"],
    }[command]
    code, _, err = _run([command, *argv])
    assert code in (0, 2), err
    assert gate_calls == gates


def _gate_runners() -> set[str]:
    """The public functions whose bodies call a vector, channel or state
    gate."""
    gates = {"_vectors", "_channel", "_states"}
    public = set(PUBLIC)
    out = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in public:
                called = {c.func.id for c in ast.walk(node)
                          if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}
                if called & gates:
                    out.add(node.name)
    return out


def test_no_library_function_calls_a_checked_public_function():
    checked = _gate_runners()
    assert {"f_divergence", "as_channel", "eta_chi2", "petz_eta_chi2"} <= checked
    offenders = []
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in checked:
                    offenders.append(f"{path.name}: {getattr(node, 'name', 'lambda')} -> {name}")
    assert offenders == []
