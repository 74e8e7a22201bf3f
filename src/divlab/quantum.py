"""Petz f-divergences and quantum channel ergodics.

A Petz divergence is the classical f-divergence of the Nussbaum-Szkola (NS)
distributions: one batched NS builder turns stacks of states into rows for
the classical row kernel, scorer, kappa sup and mixing scanner.  NS rows are
not clamped at SUPPORT_EPSILON, as lam_x |<e_x|f_y>|^2 can fall below it
while lam_x does not; eigenvalues below EIG_CLAMP, overlaps below 1e-20 and
boundary masses below SUPPORT_EPSILON count as zero.  Channels are Kraus
operator lists, but every channel action -- on states, on fixed points and
in the exact chi-squared coefficient -- goes through the transition
superoperator, built once per channel and cached.  The Petz chi-squared
contraction coefficient is exact, and the bounds built on it sample
nothing.  A quadratic generator (f'' constant and positive) has Petz
divergence f''(1)/2 times the Petz chi^2, so its contraction coefficient is
that exact one too; other contraction coefficients are sampled lower
estimates on NS rows by the classical sampling engine
``contraction._sampled``.  One form builder serves
both: the exact coefficient with the chi^2 weights, and with the weights of
the Petz D_f's second-order form the exact local floor under eta_f, along
whose directions the sampled estimates are seeded, both from the classical
engine ``contraction._metric_eta``; one builder turns its singular vectors
into states: the seeds and the quadratic witness.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .chi2bounds import _f2_monotone, _kappa_pair
from .contraction import (
    BLEND_WEIGHTS,
    _block_rows,
    _certified_constant,
    _check_delta,
    _empirical_mixing,
    _linear_coeff,
    _metric_eta,
    _mixing_times,
    _pad,
    _quadratic,
    _sampled,
    _upper_bounds,
)
from .divergence import SUPPORT_EPSILON, _as_count, _divergence_rows
from .generators import Generator
from .markov import _channel

__all__ = [
    "check_density_matrix",
    "trace_distance",
    "hs_norm_sq",
    "min_positive_eigenvalue",
    "NSPair",
    "ns_distributions",
    "petz_f_divergence",
    "petz_chi2",
    "KrausChannel",
    "identity_channel",
    "depolarizing_channel",
    "dephasing_channel",
    "replacer_channel",
    "classical_embedding",
    "apply_channel",
    "compose",
    "channel_structure",
    "QuantumChannelStructure",
    "BoundCheck",
    "petz_bounds_report",
    "PetzBoundsReport",
    "petz_eta_chi2",
    "quantum_eta_estimate",
    "quantum_eta_bounds",
    "quantum_mixing_time_bounds",
    "QuantumMixingReport",
]

# eigenvalues below this count as zero, as masses below SUPPORT_EPSILON do
EIG_CLAMP = SUPPORT_EPSILON
# tolerance of the Hermiticity, positivity and trace checks of a state
DENSITY_ATOL = 1e-10
# eigenvector overlaps |<e_x|f_y>|^2 below this are rounding noise; any floor
# from 1e-24 to 1e-16 gives the spectral double sum's values and infinities
_OVERLAP_FLOOR = 1e-20


def check_density_matrix(rho) -> np.ndarray:
    """Validate Hermiticity, positivity (to -DENSITY_ATOL), and unit trace."""
    return _states(rho)[0]


def _states(*mats, channel=None, stack=False) -> list:
    """The gate of density matrices, alone, as a pair or as inputs of a
    channel: the matrices as complex arrays.  Shapes first: each d x d with
    d >= 1 (the first a stack of them with ``stack``), one d for all, the
    channel's d_in.  Then each one's values: finite, Hermitian, no
    eigenvalue below -DENSITY_ATOL and a unit trace, all to DENSITY_ATOL."""
    arrs = [np.asarray(m, dtype=complex) for m in mats]
    for k, m in enumerate(arrs):
        if m.size < 1 or m.ndim != 2 and not (stack and k == 0 and m.ndim > 2) or (
            m.shape[-1] != m.shape[-2]
        ):
            raise ValueError("density matrix must be square")
        if m.shape[-1] != arrs[0].shape[-1]:
            raise ValueError("dimension mismatch")
    if channel is not None and arrs[0].shape[-1] != channel.dim_in:
        raise ValueError("dimension mismatch between channel and state")
    for m in arrs:
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite")
        if abs(m - m.swapaxes(-1, -2).conj()).max() > DENSITY_ATOL:
            raise ValueError("density matrix must be Hermitian")
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -DENSITY_ATOL:
            raise ValueError(f"density matrix has negative eigenvalue {eigs.min()}")
        trace = np.trace(m, axis1=-2, axis2=-1).real
        off = abs(trace - 1.0) > DENSITY_ATOL
        if off.any():
            raise ValueError(f"density matrix trace is {np.ravel(trace)[np.ravel(off)][0]}")
    return arrs


def _square_matrix(A) -> np.ndarray:
    """A non-empty finite square matrix as a complex array."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size < 1:
        raise ValueError("matrix must be non-empty and square")
    if not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite")
    return A


def trace_distance(rho, sigma):
    """Half the Schatten 1-norm of the difference; an array of them for a
    stack of states rho."""
    return _trace_distance(*_states(rho, sigma, stack=True))


def _trace_distance(rho: np.ndarray, sigma: np.ndarray):
    """``trace_distance`` of checked states, unchecked."""
    diff = rho - sigma
    herm = 0.5 * (diff + np.swapaxes(diff, -1, -2).conj())
    td = 0.5 * np.abs(np.linalg.eigvalsh(herm)).sum(axis=-1)
    return float(td) if td.ndim == 0 else td


def hs_norm_sq(A) -> float:
    """Tr[A^dag A] of a square matrix."""
    A = _square_matrix(A)
    return float(np.real(np.trace(A.conj().T @ A)))


def min_positive_eigenvalue(rho) -> float:
    """Smallest eigenvalue of at least EIG_CLAMP of a Hermitian matrix."""
    return _min_positive(np.linalg.eigvalsh(_square_matrix(rho)))


def _min_positive(eigs: np.ndarray) -> float:
    """``min_positive_eigenvalue`` of a spectrum."""
    pos = eigs[eigs >= EIG_CLAMP]  # the spectrum _spectral keeps
    if pos.size == 0:
        raise ValueError("operator has no positive spectrum")
    return float(pos.min())


@dataclass(frozen=True)
class NSPair:
    """Nussbaum-Szkola joint distributions over X x Y, flattened to d^2."""

    p_xy: np.ndarray
    q_xy: np.ndarray


def _spectral(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh over the leading axes, eigenvalues below EIG_CLAMP set to zero."""
    eigs, vecs = np.linalg.eigh(rho)
    return np.where(eigs < EIG_CLAMP, 0.0, eigs), vecs


def _ns_rows(spec, ref):
    """NS rows (P, Q), each (N, d^2), of N states given by their
    ``_spectral`` pair (lam, e) -- lam (N, d) with e a stack (N, d, d) or
    one eigenbasis (d, d) shared by all N, or one state's (d,) and (d, d)
    -- against a reference sigma given as its ``_spectral`` pair (mu, f), so
    a caller scoring many stacks diagonalises it once: p(x,y) = lam_x
    |<e_x|f_y>|^2, q(x,y) = mu_y |<e_x|f_y>|^2, overlaps below
    _OVERLAP_FLOOR zeroed, for the unclamped kernel body.  The overlaps of a
    stack come from one (N d, d) @ (d, d) product, with the bits of the
    per-state products."""
    lam, e = spec
    mu, f = ref
    d = f.shape[-1]
    # rows <e_x| times f, each temporary freed as soon as it is used
    overlap = (np.abs(np.swapaxes(e, -1, -2).conj().reshape(-1, d) @ f) ** 2).reshape(e.shape)
    overlap[overlap < _OVERLAP_FLOOR] = 0.0  # overlap[..., x, y]
    overlap = np.broadcast_to(overlap, lam.shape + (d,))  # a shared eigenbasis
    P = lam[..., :, np.newaxis] * overlap
    Q = mu[np.newaxis, :] * overlap
    return P.reshape(-1, d * d), Q.reshape(-1, d * d)


def ns_distributions(rho, sigma) -> NSPair:
    """p(x,y) = lam_x |<e_x|f_y>|^2, q(x,y) = mu_y |<e_x|f_y>|^2."""
    rho, sigma = _states(rho, sigma)
    P, Q = _ns_rows(_spectral(rho), _spectral(sigma))
    return NSPair(p_xy=P[0], q_xy=Q[0])


def petz_f_divergence(g: Generator, rho, sigma) -> float:
    """The classical f-divergence of the NS distributions, with the f(0+)
    and f'(inf) boundary conventions."""
    rho, sigma = _states(rho, sigma)
    return float(_divergence_rows(g, *_ns_rows(_spectral(rho), _spectral(sigma)))[0])


def petz_chi2(rho, sigma) -> float:
    """Tr[sigma^+ (rho-sigma)^2] on supp(sigma); +inf when rho !<< sigma."""
    rho, sigma = _states(rho, sigma)
    return _petz_chi2(rho, sigma, _spectral(sigma))


def _petz_chi2(rho: np.ndarray, sigma: np.ndarray, ref) -> float:
    """``petz_chi2`` of checked states, with sigma's ``_spectral`` pair."""
    if not _supported(rho, ref):
        return math.inf
    mu, f = ref
    pos = mu > 0.0
    inv = np.zeros_like(mu)
    inv[pos] = 1.0 / mu[pos]
    pinv = (f * inv[np.newaxis, :]) @ f.conj().T
    diff = rho - sigma
    return float(np.real(np.trace(pinv @ diff @ diff)))


def _supported(rho: np.ndarray, ref) -> bool:
    """rho << sigma, sigma given by its ``_spectral`` pair: rho has at most
    1e-10 of trace off the support of sigma."""
    mu, f = ref
    pos = mu > 0.0
    if np.all(pos):
        return True
    proj_out = f[:, ~pos]
    return float(np.real(np.trace(proj_out.conj().T @ rho @ proj_out))) <= 1e-10


# ---------------------------------------------------------------------------
# channels


@dataclass(frozen=True)
class KrausChannel:
    """A completely positive trace-preserving map given by Kraus operators."""

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        """The gate of a Kraus list: one or more non-empty 2-D operators of
        one shape, then finite entries, then sum K^dag K = I to 1e-9."""
        ops = tuple(np.asarray(K, dtype=complex) for K in self.kraus)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        shape = ops[0].shape
        if len(shape) != 2 or 0 in shape:
            raise ValueError("Kraus operators must be non-empty 2-D matrices")
        if any(K.shape != shape for K in ops):
            raise ValueError("Kraus operators must share one shape")
        if not all(np.isfinite(K).all() for K in ops):
            raise ValueError("Kraus operators must have finite entries")
        object.__setattr__(self, "kraus", ops)
        comp = sum(K.conj().T @ K for K in ops)
        if np.max(np.abs(comp - np.eye(shape[1]))) > 1e-9:
            raise ValueError("Kraus operators must satisfy sum K^dag K = I")

    @property
    def dim_in(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def dim_out(self) -> int:
        return self.kraus[0].shape[0]

    def _require_square(self) -> None:
        """The check of the analyses that iterate the channel."""
        if self.dim_in != self.dim_out:
            raise ValueError("operation requires a square channel")

    @cached_property
    def _superoperator(self) -> np.ndarray:
        S = sum(np.kron(K, K.conj()) for K in self.kraus)
        S.setflags(write=False)
        return S

    def superoperator(self) -> np.ndarray:
        """Matrix S with vec(E(rho)) = S vec(rho) (row-major vec), the sum of
        kron(K, conj(K)) over the Kraus operators.

        Built on first use and cached on the channel, read-only, so every
        call returns the same array.  It holds d_out^2 d_in^2 complex
        entries: 4 KiB at d = 4, 16 MiB at d = 32.  Every analysis builds it
        (``channel_structure``) or a matrix of its size (``petz_eta_chi2``)
        anyway; only a lone ``apply_channel`` on a large channel with few
        Kraus operators pays more than a Kraus sum would.
        """
        return self._superoperator


def apply_channel(channel: KrausChannel, rho) -> np.ndarray:
    """E(rho) for one state or for a stack of states along the leading axes.

    One matrix product of the row-major vecs against the channel's cached
    superoperator, whatever the number of Kraus operators; the first call on
    a channel builds it (d_out^2 d_in^2 entries, see ``superoperator``).
    """
    return _apply(channel, *_states(rho, channel=channel, stack=True))


def _apply(channel: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """``apply_channel`` of checked states, unchecked."""
    d_in, d_out = channel.dim_in, channel.dim_out
    vecs = rho.reshape(-1, d_in * d_in)
    # BLAS takes a one-row product through gemv, which rounds differently
    # from gemm; a second row keeps each state's bits independent of its stack
    rows = np.repeat(vecs, 2, axis=0) if len(vecs) == 1 else vecs
    out = (rows @ channel.superoperator().T)[: len(vecs)]
    return out.reshape(rho.shape[:-2] + (d_out, d_out))


def compose(second: KrausChannel, first: KrausChannel) -> KrausChannel:
    """Channel ``second after first``; Kraus list is all pairwise products."""
    if first.dim_out != second.dim_in:
        raise ValueError("dimension mismatch in composition")
    ops = tuple(K2 @ K1 for K2 in second.kraus for K1 in first.kraus)
    return KrausChannel(kraus=ops)


def identity_channel(d: int) -> KrausChannel:
    return KrausChannel(kraus=(np.eye(_as_count(d, "d", 1), dtype=complex),))


def depolarizing_channel(d: int, lam: float) -> KrausChannel:
    """rho -> (1-lam) rho + lam I/d, in Kraus form via the unitary basis."""
    d = _as_count(d, "d", 1)
    if not 0.0 <= lam <= 1.0:
        raise ValueError("depolarizing weight must lie in [0, 1]")
    # Weyl (shift/clock) unitaries average any state to I/d
    omega = np.exp(2j * np.pi / d)
    shift = np.zeros((d, d), dtype=complex)
    for k in range(d):
        shift[(k + 1) % d, k] = 1.0
    clock = np.diag([omega**k for k in range(d)])
    ops = [math.sqrt(1.0 - lam) * np.eye(d, dtype=complex)] if lam < 1.0 else []
    for a in range(d):
        for b in range(d):
            if lam > 0.0:
                U = np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
                ops.append(math.sqrt(lam / (d * d)) * U)
    return KrausChannel(kraus=tuple(ops))


def dephasing_channel(d: int) -> KrausChannel:
    """Kills all off-diagonal elements in the computational basis."""
    d = _as_count(d, "d", 1)
    ops = []
    for i in range(d):
        P = np.zeros((d, d), dtype=complex)
        P[i, i] = 1.0
        ops.append(P)
    return KrausChannel(kraus=tuple(ops))


def replacer_channel(sigma) -> KrausChannel:
    """Traces out the input and prepares sigma."""
    (sigma,) = _states(sigma)
    d = sigma.shape[0]
    eigs, vecs = _spectral(sigma)
    ops = []
    for j in range(d):
        if eigs[j] <= 0.0:
            continue
        for i in range(d):
            K = math.sqrt(eigs[j]) * np.outer(vecs[:, j], np.eye(d)[i])
            ops.append(K)
    return KrausChannel(kraus=tuple(ops))


def classical_embedding(W) -> KrausChannel:
    """Kraus form of a square column-stochastic matrix: {sqrt(W(y|x)) |y><x|}."""
    W = _channel(W, square=True)
    n = W.shape[0]
    ops = []
    for x in range(n):
        for y in range(n):
            if W[y, x] <= 0.0:
                continue
            K = np.zeros((n, n), dtype=complex)
            K[y, x] = math.sqrt(W[y, x])
            ops.append(K)
    return KrausChannel(kraus=tuple(ops))


def _probe_states(d: int) -> np.ndarray:
    """A spanning set of pure states, stacked: basis vectors plus pairwise
    superpositions with and without a relative phase."""
    eye = np.eye(d, dtype=complex)
    vecs = list(eye) + [
        (eye[i] + phase * eye[j]) / math.sqrt(2.0)
        for i in range(d) for j in range(i + 1, d) for phase in (1.0, 1j)
    ]
    return np.array([np.outer(v, v.conj()) for v in vecs])


@dataclass(frozen=True)
class QuantumChannelStructure:
    fixed_point: np.ndarray | None
    unique: bool
    mixing: bool
    strongly_mixing: bool
    positivity_index: int | None


def channel_structure(channel: KrausChannel) -> QuantumChannelStructure:
    """Fixed point, uniqueness, and mixing predicates via the superoperator.

    A channel with a unique fixed point is mixing when every other eigenvalue
    of its superoperator has modulus below 1 - 1e-8, so that E^n(rho) tends
    to the fixed point for every rho; strong mixing asks additionally for
    strictly positive outputs (eigenvalues above 1e-8) on a spanning probe
    set within 64 steps (equivalent to a full-rank unique fixed point).
    """
    channel._require_square()
    return _channel_structure(channel)


def _channel_structure(channel: KrausChannel) -> QuantumChannelStructure:
    """``channel_structure`` of a square channel, unchecked."""
    d = channel.dim_in
    S = channel.superoperator()
    eigvals, eigvecs = np.linalg.eig(S)
    close = np.abs(eigvals - 1.0) < 1e-8
    unique = int(np.sum(close)) == 1
    fixed_point = None
    if np.any(close):
        idx = int(np.argmin(np.abs(eigvals - 1.0)))
        M = eigvecs[:, idx].reshape(d, d)
        M = 0.5 * (M + M.conj().T)
        tr = np.trace(M).real
        if abs(tr) > 1e-12:
            M = M / tr
            eigs = np.linalg.eigvalsh(M)
            if eigs.min() > -1e-9:
                fixed_point = M

    second = np.sort(np.abs(eigvals))[-2] if eigvals.size > 1 else 0.0
    mixing = fixed_point is not None and unique and bool(second < 1.0 - 1e-8)
    positivity_index = None
    if mixing:
        step = partial(_apply, channel)
        n = _empirical_mixing(
            step, step(_probe_states(d)), lambda S: np.linalg.eigvalsh(S).min() > 1e-8, 63
        )
        positivity_index = None if n is None else n + 1
    strongly_mixing = positivity_index is not None
    return QuantumChannelStructure(
        fixed_point=fixed_point,
        unique=unique,
        mixing=mixing,
        strongly_mixing=strongly_mixing,
        positivity_index=positivity_index,
    )


# ---------------------------------------------------------------------------
# bounds


@dataclass(frozen=True)
class BoundCheck:
    bound_id: str
    lhs: float
    rhs: float
    holds: bool
    applicable: bool
    note: str = ""


@dataclass(frozen=True)
class PetzBoundsReport:
    checks: tuple[BoundCheck, ...]
    divergence: float
    chi2: float
    td: float

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks if c.applicable)


def _check(bound_id: str, lhs: float, rhs: float) -> BoundCheck:
    """lhs <= rhs up to a slack of 1e-9 relative to rhs (absolute below 1)."""
    slack = 1e-9 * max(1.0, abs(rhs))
    return BoundCheck(
        bound_id=bound_id, lhs=lhs, rhs=rhs, holds=lhs <= rhs + slack, applicable=True
    )


def _skip(bound_id: str, note: str) -> BoundCheck:
    return BoundCheck(
        bound_id=bound_id, lhs=math.nan, rhs=math.nan, holds=True, applicable=False,
        note=note,
    )


def petz_bounds_report(g: Generator, rho, sigma) -> PetzBoundsReport:
    """Evaluate and check the Petz sandwich, quantum Pinsker, chi-squared vs
    trace-distance, and NS reverse-Pinsker bounds for one state pair.

    A check applies wherever its quantities are defined, as on the classical
    twins ``chi2_sandwich`` and ``reverse_pinsker``: every check but quantum
    Pinsker bounds chi^2 or reads chi^2, kappa or q_min and needs rho <<
    sigma, the two that read the certified constant L need an
    operator-convex f with one, and an infinite kappa_up gives a +inf right
    side, never inf * 0 = NaN."""
    rho, sigma = _states(rho, sigma)
    sigma_spec = _spectral(sigma)
    P, Q = _ns_rows(_spectral(rho), sigma_spec)
    value = float(_divergence_rows(g, P, Q)[0])
    chi2 = _petz_chi2(rho, sigma, sigma_spec)
    td = _trace_distance(rho, sigma)
    dominated = math.isfinite(chi2)  # rho << sigma, as petz_chi2 decides it
    convex = g.operator_convex and g.pinsker_constant is not None
    if dominated:  # the quantities only the checks that need rho << sigma read
        # kappa, q_min and TV read the NS rows unclamped, as the divergence does
        kp = _kappa_pair(g, P[0], Q[0])
        up = math.isfinite(kp.kappa_up)
        lmin = _min_positive(np.linalg.eigvalsh(sigma))
        diff = rho - sigma
        l2 = float(np.real(np.trace(diff.conj().T @ diff)))
        qmin = float(Q[0][Q[0] > 0.0].min())
        dns = P[0] - Q[0]
        l2_ns, tv_ns = float(np.dot(dns, dns)), 0.5 * float(np.abs(dns).sum())
    # (bound id, needs rho << sigma, needs convex, its (lhs, rhs)), in report order
    table = (
        ("petz-sandwich-lower", True, False, lambda: (0.5 * kp.kappa_down * chi2, value)),
        ("petz-sandwich-upper", True, False,
         lambda: (value, 0.5 * kp.kappa_up * chi2 if up else math.inf)),
        ("quantum-pinsker", False, True, lambda: (0.5 * g.pinsker_constant * td**2, value)),
        ("petz-chi2-l2", True, False, lambda: (chi2, l2 / lmin)),
        ("petz-chi2-td", True, False, lambda: (l2 / lmin, 4.0 * td**2 / lmin)),
        ("petz-f-lower-chi2", True, True,
         lambda: (g.pinsker_constant * lmin / 8.0 * chi2, value)),
        ("ns-reverse-pinsker-l2", True, False,
         lambda: (value, kp.kappa_up / (2 * qmin) * l2_ns if up else math.inf)),
        ("ns-reverse-pinsker-tv", True, False,
         lambda: (value, 2.0 * kp.kappa_up / qmin * tv_ns**2 if up else math.inf)),
    )
    checks = tuple(
        _skip(name, "rho not dominated by sigma") if needs_dom and not dominated
        else _skip(name, "needs operator-convex f") if needs_convex and not convex
        else _check(name, *sides())
        for name, needs_dom, needs_convex, sides in table
    )
    return PetzBoundsReport(checks=checks, divergence=value, chi2=chi2, td=td)


# ---------------------------------------------------------------------------
# contraction estimation


# Haar pure states in the cloud, each through its blends toward sigma, and
# the refine steps of the climb from it (README.md gives the measurements)
_N_HAAR = 200
_REFINE_STEPS = 120
# points per segment between two sigma-eigenbasis projectors in the cloud
_EIGENBASIS_GRID = 33
# weights w of the blends (1 - w) psi + w sigma of each Haar pure state psi
# in the cloud of an estimate with floor seeds; one without keeps psi itself
# and its blends at every one of BLEND_WEIGHTS
_SEEDED_BLEND_WEIGHTS = (0.3, 0.7)
# fractions of the positivity limit on each side at which the floor seeds
# sigma +- t H sit
_SEED_FRACTIONS = (0.001, 0.01, 0.05, 0.15, 0.3, 0.5, 0.7, 0.9, 0.99)
# relative eigenvalue gap below which an f weight takes its series limit
_SERIES_GAP = 1e-4
# the warning of a positive sampled Petz estimate where f''(1) = 0
UNBOUNDED_WARNING = ("Petz eta_f can be infinite where f''(1) = 0; the estimate is set by "
                     "how near sigma the candidate cloud reaches")


def _pure_states(raw: np.ndarray) -> np.ndarray:
    """The pure states |v><v|, stacked, of v = raw[k, 0] + i raw[k, 1]
    normalised, for an (n, 2, d) array of draws: Haar pure states when the
    draws are standard normals."""
    v = raw[:, 0] + 1j * raw[:, 1]

    def dot(x):
        return (x[:, np.newaxis, :] @ x[:, :, np.newaxis])[:, 0]

    # np.linalg.norm's dots of the strided real and imaginary views: the
    # same bits as the norm of each v alone, which a .sum() would not give
    v = v / np.sqrt(dot(v.real) + dot(v.imag))
    return v[:, :, np.newaxis] * v[:, np.newaxis, :].conj()


def _refine_draws(rng: np.random.Generator, steps: int, d: int):
    """The refine stream of ``quantum_eta_estimate``, two block draws: the
    shares u from ``random(steps)``, then the draws of the Haar pure states
    from ``normal(size=(steps, 2, d))``.  Step k reads share k and row k of
    the draws (for ``_pure_states``)."""
    return rng.random(steps), rng.normal(size=(steps, 2, d))


def _candidate_states(sigma: np.ndarray, seed: int, seeds: np.ndarray):
    """(states, lam): the candidate stack and the spectra of its tail.

    The stack holds the blends (1 - w) psi + w sigma of _N_HAAR Haar pure
    states psi (d real then d imaginary normals each, from one draw seeded
    with ``seed``), each psi's blends in turn: at w in
    _SEEDED_BLEND_WEIGHTS where there are ``seeds``, else psi itself and
    its blends at every one of BLEND_WEIGHTS.  Then come the ``seeds`` (a
    stack of states, see ``_floor_seeds``), then the _EIGENBASIS_GRID-point
    segments a |f_i><f_i| + (1 - a) |f_j><f_j| between sigma's ``_spectral``
    eigenvectors f, which make the suprema of classically embedded channels
    reachable.  A segment state is diagonal in f by construction, so its
    spectrum is a e_i + (1 - a) e_j with eigenvectors f, rank-deficient or
    degenerate sigma included: lam holds these rows, one per segment state,
    for the last len(lam) states of the stack.  README.md gives the
    measurements behind the blend weights of both kinds of stack."""
    d = sigma.shape[0]
    rng = np.random.default_rng(seed)
    pure = _pure_states(rng.normal(size=(_N_HAAR, 2, d)))[:, np.newaxis]
    weights = _SEEDED_BLEND_WEIGHTS if len(seeds) else (0.0,) + BLEND_WEIGHTS
    w = np.asarray(weights)[:, np.newaxis, np.newaxis]
    # each pure state's blends in turn (w = 0 is the pure state)
    out = [((1.0 - w) * pure + w * sigma).reshape(-1, d, d), seeds]
    v = _spectral(sigma)[1].T
    proj = v[:, :, np.newaxis] * v[:, np.newaxis, :].conj()  # |f_k><f_k| of sigma
    a = np.linspace(0.0, 1.0, _EIGENBASIS_GRID)[:, np.newaxis, np.newaxis]
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    out += [a * proj[i] + (1 - a) * proj[j] for i, j in pairs]
    eye = np.eye(d)
    lam = [a[:, 0] * eye[i] + (1 - a[:, 0]) * eye[j] for i, j in pairs]
    return np.concatenate(out), np.array(lam).reshape(-1, d)


def quantum_eta_estimate(
    channel: KrausChannel, sigma, g: Generator, seed: int = 0
) -> tuple[float, np.ndarray | None]:
    """Lower estimate of the Petz input-dependent contraction coefficient,
    with its witness state.

    For a quadratic generator (f'' constant and positive) the value is
    exact: ``petz_eta_chi2(channel, sigma)`` bit for bit, with the witness
    sigma + t H along its singular direction, at 1/2 of the positivity
    limit (``_along``); the seed is not used.

    Otherwise it is sampled by the classical engine ``_sampled`` on NS
    rows, padded to one width where d_in != d_out.  Where f''(1) = 0 and
    f'' is not flagged monotone (a monotone one vanishes on one side of 1
    only) the Petz eta_f can be infinite, and a positive estimate, set by
    how near sigma the stack reaches, comes with UNBOUNDED_WARNING.  The
    stack holds seeds sigma +- t H along the two leading directions of the
    exact local floor of eta_f (``_floor_seeds``), so where f''(1) is finite
    and positive and sigma is not pure the estimate is at least that floor
    less the seeds' O(t) and rounding losses (in tests, above 1 - 1e-4 of
    it).  Every input
    and output is diagonalised for its NS rows, except the sigma-eigenbasis
    segments of the stack, whose spectra ``_candidate_states`` gives in
    closed form; where such a state wins, the value is that of its exact
    spectrum, which can differ from an eigh of the state in the last bits.
    The stack's Haar states are drawn with ``seed``.  Each of _REFINE_STEPS
    refine steps k reads share u_k and Haar pure state psi_k of the stream
    seeded with seed + 1 (see ``_refine_draws``) and proposes the state
    (1 - w u_k) rho + (1 - Tr[(1 - w u_k) rho]) psi_k for the step's
    weight w.
    """
    return _eta_estimate(channel, *_states(sigma, channel=channel), g, _as_count(seed, "seed"))


def _eta_estimate(channel: KrausChannel, sigma: np.ndarray, g: Generator, seed: int):
    """``quantum_eta_estimate`` of a checked state, unchecked."""
    refs = _spectral(sigma), _spectral(_apply(channel, sigma))
    if _quadratic(g):
        T, e_in, l_in, v0 = _petz_form(channel, refs, _chi2_weights)
        eta, k = _metric_eta(T, v0), e_in.shape[1]
        if k < 2:
            warnings.warn("no feasible input found; estimate 0")
            return eta, None
        Z = _metric_eta(T, v0, _upper(k))[1][0].reshape(k, k)
        return eta, _along(sigma, Z, e_in, l_in.reshape(k, k), (0.5,))[0]
    ref_in, ref_out = refs
    # the NS rows of inputs and outputs share one width, for one kernel call
    width = max(channel.dim_in, channel.dim_out) ** 2

    def ns_rows(spec, ref):
        # the NS rows (P, Q) against ref of states given by their spectra
        return [_pad(A, width) for A in _ns_rows(spec, ref)]

    def build(current, draws, weights):
        u, psi = draws
        prop = (1.0 - weights * u)[:, np.newaxis, np.newaxis] * current
        trace = np.trace(prop, axis1=1, axis2=2).real
        # a mixture of two exactly Hermitian states with weights in [0, 1]:
        # no rebuild needed, _spectral clips the rounding below EIG_CLAMP
        return prop + (1.0 - trace)[:, np.newaxis, np.newaxis] * psi

    cloud, seg_lam = _candidate_states(sigma, seed, _floor_seeds(sigma, channel, refs, g)[1])
    # the Haar blocks, then the segment blocks, whose zeros take the kernel's
    # masks; half the kernel's rows each, as a block's eigh vectors and NS
    # overlaps ride on its rows, so the build peaks no higher than the engine
    block, haar = max(1, _block_rows(cloud) // 2), len(cloud) - len(seg_lam)
    cuts = [*range(0, haar, block), *range(haar, len(cloud), block), len(cloud)]
    num = np.empty((2, len(cloud), width))

    def in_spectra(a, b):
        # the segment states' spectra in closed form, the others' by eigh
        return (seg_lam[a - haar : b - haar], ref_in[1]) if a >= haar else _spectral(cloud[a:b])

    def block_rows(a, b):
        # a block's denominators, valued before its outputs are built; its
        # numerator rows go into num, and nothing else outlives the block
        den = _divergence_rows(g, *ns_rows(in_spectra(a, b), ref_in), rounding_error=True)
        num[0, a:b], num[1, a:b] = ns_rows(_spectral(_apply(channel, cloud[a:b])), ref_out)
        return den

    den = [block_rows(a, b) for a, b in zip(cuts[:-1], cuts[1:])]
    # an iterator, so the numerator rows die once the engine takes their start
    num_rows = iter([num])
    del num
    u, raw = _refine_draws(np.random.default_rng(seed + 1), _REFINE_STEPS, sigma.shape[0])

    def window(P, _):
        # each side stacks the denominators' rows, then the numerators'
        rows = ns_rows(_spectral(P), ref_in), ns_rows(_spectral(_apply(channel, P)), ref_out)
        return [np.stack(side) for side in zip(*rows)]

    est = _sampled(g, cloud, den, num_rows, window, (u, _pure_states(raw)), build, 0.3)[0]
    with np.errstate(all="ignore"):  # f''(1) can be infinite
        flat = not _f2_monotone(g) and float(g.f2(1.0)) == 0.0
    if flat and est[0] > 0.0:
        warnings.warn(UNBOUNDED_WARNING)
    return est


def petz_eta_chi2(channel: KrausChannel, sigma) -> float:
    """Exact input-dependent Petz chi-squared contraction coefficient: the
    sup over rho << sigma of chi2(E(rho) || E(sigma)) / chi2(rho || sigma).

    chi2 is the form Tr[sigma^-1 X^2] in X = rho - sigma, diagonal in the
    eigenbasis of sigma with entries (1/mu_i + 1/mu_j) / 2 (L_in).  With S
    the channel from supp sigma to supp E(sigma) in the two eigenbases, the
    coefficient is the squared second singular value of
    L_out^(1/2) S L_in^(-1/2); the top one, 1, belongs to X = sigma
    (``contraction._metric_eta``, 0 at rounding level).
    """
    return _petz_eta_chi2(channel, *_states(sigma, channel=channel))


def _petz_eta_chi2(channel: KrausChannel, sigma: np.ndarray) -> float:
    """``petz_eta_chi2`` of a checked state, unchecked."""
    refs = _spectral(sigma), _spectral(_apply(channel, sigma))
    T, _, _, v0 = _petz_form(channel, refs, _chi2_weights)
    return _metric_eta(T, v0)


def _chi2_weights(mu: np.ndarray) -> np.ndarray:
    """The Petz chi^2 weights (1/mu_i + 1/mu_j) / 2 of a positive spectrum."""
    form = 0.5 / mu
    return np.add.outer(form, form)


def _f_weights(g: Generator, mu: np.ndarray) -> np.ndarray:
    """The weights of the Petz D_f's second-order form at a positive
    spectrum mu (Lesniewski and Ruskai 1999): D_f(sigma + e X || sigma) =
    e^2 sum_ij w_ij |X_ij|^2 + O(e^3) in sigma's eigenbasis, with w_ij =
    [mu_j f(mu_i/mu_j) + mu_i f(mu_j/mu_i)] / (2 (mu_i - mu_j)^2).  Where
    mu_i and mu_j lie within _SERIES_GAP of each other, relative, that
    quotient cancels; it is taken as its limit f''(1) (1/mu_i + 1/mu_j) / 4,
    off by a relative O(gap^2) (f''(1) = 2 gives the chi^2 weights)."""
    mi, mj = np.meshgrid(mu, mu, indexing="ij")
    apart = np.abs(mi - mj) > _SERIES_GAP * np.maximum(mi, mj)
    a, b = mi[apart], mj[apart]
    # an f''(1) of 0 or inf gives weights that _petz_form refuses
    with np.errstate(all="ignore"):
        w = 0.25 * float(g.f2(1.0)) * (1.0 / mi + 1.0 / mj)
        w[apart] = (b * g.f(a / b) + a * g.f(b / a)) / (2.0 * (a - b) ** 2)
    return w


def _petz_form(channel: KrausChannel, refs, weights):
    """(T, e_in, l_in, v0): T = L_out^(1/2) S L_in^(-1/2), with S the
    channel from supp sigma to supp E(sigma) in their eigenbases, refs the
    ``_spectral`` pairs of sigma and E(sigma) and L = ``weights(mu)`` of
    each support's spectrum mu (``_chi2_weights`` for ``petz_eta_chi2``);
    the eigenvectors e_in of supp sigma, the weights L_in, whose entry
    (i, j) in row-major order weighs X_ij of X = e_in Y e_in^dag, and
    sigma's vector L_in^(1/2) vec(diag mu), of value 1 for every weight
    rule (unnormalised).  None where a weight is not finite and positive."""

    def support(ref):
        eigs, vecs = ref
        keep = eigs > 0.0
        return vecs[:, keep], weights(eigs[keep]).ravel(), eigs[keep]

    (e_in, l_in, mu), (e_out, l_out, _) = support(refs[0]), support(refs[1])
    if not all(np.all(np.isfinite(l) & (l > 0.0)) for l in (l_in, l_out)):
        return None
    # kron(A K B, conj(A K B)) = kron(A, conj A) kron(K, conj K) kron(B, conj B)
    left, right = np.kron(e_out.conj().T, e_out.T), np.kron(e_in, e_in.conj())
    S = left @ channel.superoperator() @ right
    T = np.sqrt(l_out)[:, np.newaxis] * S / np.sqrt(l_in)
    return T, e_in, l_in, np.sqrt(l_in) * np.diag(mu).ravel()


def _upper(k: int) -> np.ndarray:
    """The row-major indices of the upper triangle of a k x k matrix, which
    fix a direction's phase, as |Z_ij| = |Z_ji| up to rounding."""
    return np.flatnonzero(np.triu(np.ones((k, k))))


def _along(sigma: np.ndarray, Z: np.ndarray, e_in: np.ndarray, L: np.ndarray, fractions):
    """The states sigma + t H, t at each of ``fractions`` of the positivity
    limit on the + side, then on the - side, along a right singular vector
    Z of a ``_petz_form`` T as a k x k matrix on supp sigma, with weights L
    scaled so that L_ii = 1/mu_i.  The channel and the weights commute with
    Y -> Y^dag, so Z's Hermitian part and its anti-Hermitian part over i
    share its value: H = e_in Y e_in^dag, Y the larger one through L less
    its sigma component (Tr Y = 0), and a state is positive where 1 + t lam
    >= 0 at each eigenvalue lam of D^(-1/2) Y D^(-1/2), D = diag(mu)."""
    parts = (0.5 * (Z + Z.conj().T), -0.5j * (Z - Z.conj().T))
    Y = max(parts, key=np.linalg.norm) / np.sqrt(L)
    mu = 1.0 / np.diag(L)  # L_ii = 1 / mu_i
    Y -= np.trace(Y).real / mu.sum() * np.diag(mu)
    root = np.sqrt(np.diag(L))
    # Y != 0 and Tr Y = 0: lo < 0 < hi up to rounding
    lo, hi = np.linalg.eigvalsh(root[:, np.newaxis] * Y * root)[[0, -1]]
    if not lo < 0.0 < hi:
        return np.empty((0,) + sigma.shape, dtype=complex)
    f = np.asarray(fractions)[:, np.newaxis, np.newaxis]
    t = np.concatenate([f / -lo, f / -hi])
    rho = sigma + t * (e_in @ Y @ e_in.conj().T)
    return 0.5 * (rho + np.swapaxes(rho, -1, -2).conj())


def _floor_seeds(sigma: np.ndarray, channel: KrausChannel, refs, g: Generator):
    """(floor, seeds): the exact local floor of the Petz eta_f at sigma and
    the candidate states along its two leading directions.

    With T = ``_petz_form`` of the f weights (``_f_weights``), sigma's
    vector v0 is a right singular vector of T of value 1 for every f, and
    the ratio D_f(E(rho) || E(sigma)) / D_f(rho || sigma) tends, as rho ->
    sigma along X = rho - sigma (Tr X = 0), to |T x|^2 / |x|^2, x =
    L_in^(1/2) vec(X).  So the sup of these limits, the floor under eta_f,
    is the squared top singular value of T off v0 (``_metric_eta``).  Each
    of its two leading right singular vectors gives the seeds sigma +- t H,
    t at each of _SEED_FRACTIONS of the positivity limit on that side
    (``_along``); a floor of 0 gives none.  A pure sigma, or an f whose
    weights are not all finite and positive (f''(1) = 0 or inf), gives
    (None, no seeds)."""
    none = np.empty((0,) + sigma.shape, dtype=complex)
    k = int(np.sum(refs[0][0] > 0.0))
    form = _petz_form(channel, refs, partial(_f_weights, g)) if k > 1 else None
    if form is None:
        return None, none
    T, e_in, l_in, v0 = form
    floor, vectors = _metric_eta(T, v0, _upper(k))
    L = l_in.reshape(k, k) / (0.5 * float(g.f2(1.0)))  # L_ii = 1 / mu_i
    seeds = [_along(sigma, z.reshape(k, k), e_in, L, _SEED_FRACTIONS)
             for z in (vectors if floor > 0.0 else ())]
    return floor, np.concatenate([none] + seeds)


def quantum_eta_bounds(
    channel: KrausChannel, sigma, g: Generator
) -> tuple[float, float | None]:
    """Nonlinear and linear upper bounds on the Petz eta_f.

    nonlinear = 8/(L lmin(sigma)) * kappa_up * eta_chi2, with kappa_up over
    [0, 1/lmin(E(sigma))], which holds every NS output ratio;
    linear = 8 (f'(1) + f(0)) / (L lmin(sigma)) * eta_chi2, needing operator
    convexity, (f(t)-f(0))/t concave, finite f(0+), and full-rank sigma.
    """
    (sigma,) = _states(sigma, channel=channel)
    L = _certified_constant(g)
    if not g.operator_convex:
        raise ValueError("Petz contraction bounds require operator-convex f")
    return _petz_upper(g, channel, sigma, L, _petz_eta_chi2(channel, sigma))


def _petz_upper(g: Generator, channel: KrausChannel, sigma, L: float, eta2: float):
    """``quantum_eta_bounds`` for a checked state sigma, with L and
    petz_eta_chi2(channel, sigma) given; the kappa sup is kappa_up over
    [0, 1/lmin(E(sigma))], inf unless f''(0+) is finite."""

    def kappa_sup():
        if not g.f2_at_zero_finite:
            return math.inf
        out_min = _min_positive(np.linalg.eigvalsh(_apply(channel, sigma)))
        return _kappa_pair(g, np.array([0.0, 1.0 / out_min]), np.ones(2)).kappa_up

    return _upper_bounds(g, 8.0, L, np.linalg.eigvalsh(sigma), eta2, kappa_sup)


@dataclass(frozen=True)
class QuantumMixingReport:
    """``quantum_mixing_time_bounds``: the bounds, the probes' empirical
    times (None where a scan did not reach delta or did not run), Petz
    eta_chi2 and lmin at the fixed point, and whether the td scan met its
    bound."""

    td_bound: int
    f_bound: int | None
    empirical_td: int | None
    empirical_f: int | None
    eta_chi2: float
    lambda_min: float
    empirical_within_bound: bool


def quantum_mixing_time_bounds(
    channel: KrausChannel, delta: float, g: Generator | None = None
) -> QuantumMixingReport:
    """Mixing-time bounds from the exact Petz chi-squared coefficient eta.

    td_bound = ceil(ln(1/(lmin(pi) delta^2)) / ln(1/eta)); the f-divergence
    bound multiplies in the linear coefficient f'(1) + f(0).  A rank-deficient
    pi raises, as a chain's pi without full support does: a start off supp
    pi has an infinite chi^2, so eta bounds nothing.  empirical_td and
    empirical_f scan probe states when delta is at least SUPPORT_EPSILON.
    """
    channel._require_square()
    _check_delta(delta)
    if g is not None and not (g.operator_convex and _linear_coeff(g) is not None):
        raise ValueError(
            "f-divergence bound needs operator-convex f with finite f(0+) "
            "and (f(t)-f(0))/t concave"
        )
    info = _channel_structure(channel)
    if not info.mixing:
        raise ValueError("mixing times require a mixing channel with unique fixed point")
    pi = info.fixed_point
    return _petz_mixing(channel, delta, g, pi, partial(_petz_eta_chi2, channel, pi))


def _petz_mixing(
    channel: KrausChannel, delta: float, g: Generator | None, pi, eta
) -> QuantumMixingReport:
    """``quantum_mixing_time_bounds`` with a checked delta and the fixed
    point pi of a mixing channel given; ``eta()`` returns
    petz_eta_chi2(channel, pi).  The f bound only where g is operator convex
    and has a linear coefficient."""
    coeff = _linear_coeff(g) if g is not None and g.operator_convex else None
    ref = _spectral(pi)
    return QuantumMixingReport(*_mixing_times(
        np.linalg.eigvalsh(pi), (1.0, 4.0), coeff, eta, delta, partial(_apply, channel),
        _probe_states(channel.dim_in), lambda S: _trace_distance(S, pi).max(),
        lambda S: _divergence_rows(g, *_ns_rows(_spectral(S), ref)).max(),
    ))
