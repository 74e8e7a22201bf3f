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
nothing; other contraction coefficients are sampled lower estimates, scored
net of their rounding bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .chi2bounds import _kappa_pair
from .contraction import (
    BLEND_WEIGHTS,
    SampleBudget,
    _certified_constant,
    _block_rows,
    _check_delta,
    _climbs,
    _empirical_mixing,
    _linear_coeff,
    _mixing_times,
    _ratio_scores,
    _second_singular_value_sq,
    _upper_bounds,
)
from .divergence import _as_count, _divergence_rows
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
    "QuantumBudget",
    "petz_eta_chi2",
    "quantum_eta_estimate",
    "quantum_eta_bounds",
    "quantum_mixing_time_bounds",
    "QuantumMixingReport",
]

EIG_CLAMP = 1e-12
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
    """NS rows (P, Q), each (N, d^2), of a stack (N, d, d) of states or one
    state given as its ``_spectral`` pair (lam, e), against a reference
    sigma given as its ``_spectral`` pair (mu, f), so a caller scoring many
    stacks diagonalises it once: p(x,y) = lam_x |<e_x|f_y>|^2, q(x,y) =
    mu_y |<e_x|f_y>|^2, overlaps below _OVERLAP_FLOOR zeroed, for the
    unclamped kernel body."""
    lam, e = spec
    mu, f = ref
    overlap = np.abs(np.swapaxes(e, -1, -2).conj() @ f) ** 2  # overlap[x, y]
    overlap = np.where(overlap < _OVERLAP_FLOOR, 0.0, overlap)
    d = overlap.shape[-1]
    P = lam[..., :, np.newaxis] * overlap
    Q = mu[..., np.newaxis, :] * overlap
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
    mu, f = ref
    pos = mu > 0.0
    if not np.all(pos):
        proj_out = f[:, ~pos]
        if float(np.real(np.trace(proj_out.conj().T @ rho @ proj_out))) > 1e-10:
            return math.inf
    inv = np.zeros_like(mu)
    inv[pos] = 1.0 / mu[pos]
    pinv = (f * inv[np.newaxis, :]) @ f.conj().T
    diff = rho - sigma
    return float(np.real(np.trace(pinv @ diff @ diff)))


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
    trace-distance, and NS reverse-Pinsker bounds for one state pair."""
    rho, sigma = _states(rho, sigma)
    rho_spec, sigma_spec = _spectral(rho), _spectral(sigma)
    P, Q = _ns_rows(rho_spec, sigma_spec)
    value = float(_divergence_rows(g, P, Q)[0])
    chi2 = _petz_chi2(rho, sigma, sigma_spec)
    td = _trace_distance(rho, sigma)
    ns = NSPair(p_xy=P[0], q_xy=Q[0])
    checks: list[BoundCheck] = []

    dominated = math.isfinite(chi2)
    sigma_dom_rho = _petz_chi2(sigma, rho, rho_spec) < math.inf
    # kappa, q_min and TV read the NS rows unclamped, as the divergence does
    # (rho << sigma is decided by petz_chi2)
    kp = _kappa_pair(g, ns.p_xy, ns.q_xy) if dominated else None
    if dominated and (g.f2_at_zero_finite or sigma_dom_rho):
        checks.append(_check("petz-sandwich-lower", 0.5 * kp.kappa_down * chi2, value))
        upper = 0.5 * kp.kappa_up * chi2 if math.isfinite(kp.kappa_up) else math.inf
        checks.append(_check("petz-sandwich-upper", value, upper))
    else:
        checks.append(_skip("petz-sandwich-lower", "needs rho << sigma and finite kappa"))
        checks.append(_skip("petz-sandwich-upper", "needs rho << sigma and finite kappa"))

    if g.operator_convex and g.pinsker_constant is not None:
        checks.append(
            _check("quantum-pinsker", 0.5 * g.pinsker_constant * td**2, value)
        )
    else:
        checks.append(_skip("quantum-pinsker", "needs operator-convex f"))

    if dominated:
        lmin = _min_positive(np.linalg.eigvalsh(sigma))
        diff = rho - sigma
        l2 = float(np.real(np.trace(diff.conj().T @ diff)))
        checks.append(_check("petz-chi2-l2", chi2, l2 / lmin))
        checks.append(_check("petz-chi2-td", l2 / lmin, 4.0 * td**2 / lmin))
        if g.operator_convex and g.pinsker_constant is not None:
            checks.append(
                _check(
                    "petz-f-lower-chi2",
                    g.pinsker_constant * lmin / 8.0 * chi2,
                    value,
                )
            )
        else:
            checks.append(_skip("petz-f-lower-chi2", "needs operator-convex f"))
        if math.isfinite(kp.kappa_up):
            qmin = float(ns.q_xy[ns.q_xy > 0.0].min())
            dns = ns.p_xy - ns.q_xy
            l2_ns = float(np.dot(dns, dns))
            checks.append(
                _check("ns-reverse-pinsker-l2", value, kp.kappa_up / (2 * qmin) * l2_ns)
            )
            tv_ns = 0.5 * float(np.abs(dns).sum())
            checks.append(
                _check(
                    "ns-reverse-pinsker-tv", value, 2.0 * kp.kappa_up / qmin * tv_ns**2
                )
            )
        else:
            checks.append(_skip("ns-reverse-pinsker-l2", "kappa_up infinite"))
            checks.append(_skip("ns-reverse-pinsker-tv", "kappa_up infinite"))
    else:
        for name in ("petz-chi2-l2", "petz-chi2-td", "petz-f-lower-chi2",
                     "ns-reverse-pinsker-l2", "ns-reverse-pinsker-tv"):
            checks.append(_skip(name, "rho not dominated by sigma"))

    return PetzBoundsReport(
        checks=tuple(checks), divergence=value, chi2=chi2, td=td
    )


# ---------------------------------------------------------------------------
# contraction estimation


@dataclass(frozen=True)
class QuantumBudget(SampleBudget):
    """Sampling configuration for quantum contraction estimates: the
    classical budget with smaller defaults."""

    n_samples: int = 200
    refine_steps: int = 120


# points per segment between two sigma-eigenbasis projectors in the cloud
_EIGENBASIS_GRID = 257


def _haar_pure(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """n Haar pure states |v><v|, stacked; each v takes d real then d
    imaginary normals from rng, in one draw."""
    raw = rng.normal(size=(n, 2, d))
    v = raw[:, 0] + 1j * raw[:, 1]

    def dot(x):
        return (x[:, np.newaxis, :] @ x[:, :, np.newaxis])[:, 0]

    # np.linalg.norm's dots of the strided real and imaginary views: the
    # same bits as the norm of each v alone, which a .sum() would not give
    v = v / np.sqrt(dot(v.real) + dot(v.imag))
    return v[:, :, np.newaxis] * v[:, np.newaxis, :].conj()


def _candidate_states(sigma: np.ndarray, budget: QuantumBudget) -> np.ndarray:
    """Stack of Haar pure states blended toward sigma, plus sigma-eigenbasis
    mixtures (the latter make classically-embedded suprema grid-exact)."""
    d = sigma.shape[0]
    pure = _haar_pure(budget.n_samples, d, np.random.default_rng(budget.seed))[:, np.newaxis]
    w = np.asarray(BLEND_WEIGHTS)[:, np.newaxis, np.newaxis]
    # each pure state, then its blends
    out = [np.concatenate([pure, (1.0 - w) * pure + w * sigma], axis=1).reshape(-1, d, d)]
    v = _spectral(sigma)[1].T
    proj = v[:, :, np.newaxis] * v[:, np.newaxis, :].conj()  # |f_k><f_k| of sigma
    a = np.linspace(0.0, 1.0, _EIGENBASIS_GRID)[:, np.newaxis, np.newaxis]
    out += [a * proj[i] + (1 - a) * proj[j] for i in range(d) for j in range(i + 1, d)]
    return np.concatenate(out)


def quantum_eta_estimate(
    channel: KrausChannel, sigma, g: Generator, budget: QuantumBudget | None = None
) -> tuple[float, np.ndarray | None]:
    """Sampled lower estimate of the Petz input-dependent contraction
    coefficient, with its witness state.

    Scores D_f(E(rho) || E(sigma)) / D_f(rho || sigma) on NS rows with the
    classical scorer, net of its rounding bound, over the candidate stack
    block by block and then per window of refine proposals (see
    ``_climbs``).  A refine step draws a share u and a Haar pure state psi
    from the stream seeded with seed + 1 and proposes the state
    (1 - w u) rho + (1 - Tr[(1 - w u) rho]) psi for the step's weight w.
    """
    return _eta_estimate(channel, *_states(sigma, channel=channel), g, budget or QuantumBudget())


def _eta_estimate(channel: KrausChannel, sigma: np.ndarray, g: Generator, budget):
    """``quantum_eta_estimate`` of a checked state, unchecked."""
    ref_in, ref_out = _spectral(sigma), _spectral(_apply(channel, sigma))
    d = sigma.shape[0]

    def scores(states: np.ndarray) -> np.ndarray:
        den = _divergence_rows(g, *_ns_rows(_spectral(states), ref_in), rounding_error=True)
        outputs = _spectral(_apply(channel, states))
        return _ratio_scores(g, den, _ns_rows(outputs, ref_out))

    def build(current, draws, weights):
        u, psi = draws
        prop = (1.0 - weights * u)[:, np.newaxis, np.newaxis] * current
        trace = np.trace(prop, axis1=1, axis2=2).real
        # a mixture of two exactly Hermitian states with weights in [0, 1]:
        # no rebuild needed, _spectral clips the rounding below EIG_CLAMP
        return prop + (1.0 - trace)[:, np.newaxis, np.newaxis] * psi

    cloud = _candidate_states(sigma, budget)
    block = _block_rows(cloud)
    cloud_scores = np.concatenate(
        [scores(cloud[s : s + block]) for s in range(0, len(cloud), block)]
    )
    rng = np.random.default_rng(budget.seed + 1)
    steps = [(rng.random(), _haar_pure(1, d, rng)) for _ in range(budget.refine_steps)]
    u = np.array([step[0] for step in steps])
    psi = np.array([step[1] for step in steps], dtype=complex).reshape(-1, d, d)
    return _climbs(cloud, [cloud_scores], (u, psi), build, lambda P, _: scores(P), 0.3)[0]


def petz_eta_chi2(channel: KrausChannel, sigma) -> float:
    """Exact input-dependent Petz chi-squared contraction coefficient: the
    sup over rho << sigma of chi2(E(rho) || E(sigma)) / chi2(rho || sigma).

    chi2 is the form Tr[sigma^-1 X^2] in X = rho - sigma, diagonal in the
    eigenbasis of sigma with entries (1/mu_i + 1/mu_j) / 2 (L_in).  With S
    the channel from supp sigma to supp E(sigma) in the two eigenbases, the
    coefficient is the squared second singular value of
    L_out^(1/2) S L_in^(-1/2); the top one, 1, belongs to X = sigma.
    """
    return _petz_eta_chi2(channel, *_states(sigma, channel=channel))


def _petz_eta_chi2(channel: KrausChannel, sigma: np.ndarray) -> float:
    """``petz_eta_chi2`` of a checked state, unchecked."""

    def support(rho):
        eigs, vecs = _spectral(rho)
        keep = eigs > 0.0
        form = 0.5 / eigs[keep]
        return vecs[:, keep], np.add.outer(form, form).ravel()

    e_in, l_in = support(sigma)
    e_out, l_out = support(_apply(channel, sigma))
    # kron(A K B, conj(A K B)) = kron(A, conj A) kron(K, conj K) kron(B, conj B)
    left, right = np.kron(e_out.conj().T, e_out.T), np.kron(e_in, e_in.conj())
    S = left @ channel.superoperator() @ right
    return _second_singular_value_sq(np.sqrt(l_out)[:, np.newaxis] * S / np.sqrt(l_in))


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
    petz_eta_chi2(channel, sigma) given."""
    eigs = np.linalg.eigvalsh(sigma)
    sigma_full, lmin = bool(eigs.min() >= EIG_CLAMP), _min_positive(eigs)
    kappa_sup = math.inf
    if g.f2_at_zero_finite and (sigma_full or math.isinf(g.fprime_at_inf)):
        out_min = _min_positive(np.linalg.eigvalsh(_apply(channel, sigma)))
        kappa_sup = _kappa_pair(g, np.array([0.0, 1.0 / out_min]), np.ones(2)).kappa_up
    return _upper_bounds(g, 8.0, L * lmin, eta2, kappa_sup, sigma_full)


@dataclass(frozen=True)
class QuantumMixingReport:
    td_bound: int
    f_bound: int | None
    empirical_td: int | None
    empirical_f: int | None
    eta_chi2: float
    lambda_min: float


def quantum_mixing_time_bounds(
    channel: KrausChannel, delta: float, g: Generator | None = None
) -> QuantumMixingReport:
    """Mixing-time bounds from the exact Petz chi-squared coefficient eta.

    td_bound = ceil(ln(1/(lmin(pi) delta^2)) / ln(1/eta)); the f-divergence
    bound multiplies in the linear coefficient f'(1) + f(0).  empirical_td
    and empirical_f scan probe states when delta is at least SUPPORT_EPSILON.
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
    return _petz_mixing(channel, delta, g, pi, _petz_eta_chi2(channel, pi))


def _petz_mixing(
    channel: KrausChannel, delta: float, g: Generator | None, pi, eta: float
) -> QuantumMixingReport:
    """``quantum_mixing_time_bounds`` with a checked delta, the fixed point
    pi of a mixing channel and eta = petz_eta_chi2(channel, pi) given; the
    f bound only where g is operator convex and has a linear coefficient."""
    lmin = _min_positive(np.linalg.eigvalsh(pi))
    # ln(1/(lmin delta^2)), without forming delta^2
    log_td = -(math.log(lmin) + 2.0 * math.log(delta))
    coeff = _linear_coeff(g) if g is not None and g.operator_convex else None
    log_f = None
    if coeff is not None:
        log_f = math.log(4.0 * coeff) - math.log(lmin) - math.log(delta)
    ref = _spectral(pi)
    td_bound, f_bound, empirical_td, empirical_f, _ = _mixing_times(
        eta, delta, log_td, log_f, partial(_apply, channel),
        _probe_states(channel.dim_in), lambda S: _trace_distance(S, pi).max(),
        lambda S: _divergence_rows(g, *_ns_rows(_spectral(S), ref)).max(),
    )
    return QuantumMixingReport(
        td_bound=td_bound,
        f_bound=f_bound,
        empirical_td=empirical_td,
        empirical_f=empirical_f,
        eta_chi2=eta,
        lambda_min=lmin,
    )
