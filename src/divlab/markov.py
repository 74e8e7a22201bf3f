"""Finite Markov chains as column-stochastic channels.

The matrix convention follows the channel convention: outputs are W @ p, so
every column of W sums to one.  Structural predicates (irreducible, aperiodic,
scrambling, indecomposable) are decided on the support graph of W with
graph algorithms: strongly connected components, BFS levels for the period,
one column-overlap product for scrambling, and a step-by-step reachability
walk capped at Wielandt's bound for the positivity index.  No matrix power
is stored.  Stationary distributions come from the eigenvalue-1 eigenspace
with a non-negative least-squares fallback when that eigenspace is
degenerate.

Only those two routes need scipy: ``structure`` imports scipy.sparse.csgraph
and the fallback scipy.optimize, each on first use, so that importing divlab
and every route that does not reach them load numpy alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .divergence import SUPPORT_EPSILON, as_prob_vec

__all__ = [
    "as_channel",
    "bsc",
    "noisy_typewriter",
    "stationary_distribution",
    "structure",
    "iterate",
    "ChainStructure",
]

_COLUMN_SUM_TOL = 1e-10
# eigenvalues within this distance of 1 count as 1 in the stationary solve
_UNIQUE_GAP = 1e-8


def as_channel(W, column_sum_tol: float = _COLUMN_SUM_TOL) -> np.ndarray:
    """Validate a column-stochastic matrix; output is W @ p."""
    W = np.asarray(W, dtype=float).copy()
    if W.ndim != 2 or W.shape[0] < 1 or W.shape[1] < 1:
        raise ValueError("channel must be a non-empty 2-D matrix")
    if not np.all(np.isfinite(W)):
        raise ValueError("channel entries must be finite")
    if np.any(W < -1e-14):
        raise ValueError("channel entries must be non-negative")
    W[W < 0.0] = 0.0
    colsums = W.sum(axis=0)
    if np.any(np.abs(colsums - 1.0) > column_sum_tol):
        raise ValueError(f"columns must sum to one; sums are {colsums}")
    return W


def bsc(p: float) -> np.ndarray:
    """Binary symmetric channel with flip probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("flip probability must lie in [0, 1]")
    return np.array([[1.0 - p, p], [p, 1.0 - p]])


def noisy_typewriter() -> np.ndarray:
    """Four-symbol chain mapping each input to itself or its successor."""
    return 0.5 * np.array(
        [
            [1.0, 1.0, 0.0, 0.0],
            [0.0, 1.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 1.0],
            [1.0, 0.0, 0.0, 1.0],
        ]
    )


def _require_square(W: np.ndarray) -> None:
    if W.shape[0] != W.shape[1]:
        raise ValueError("operation requires a square channel")


def stationary_distribution(W) -> tuple[np.ndarray, bool]:
    """A distribution with W pi = pi, and whether it is unique.

    Uniqueness is decided by the dimension of the eigenvalue-1 eigenspace
    (eigenvalues within _UNIQUE_GAP of 1 are counted as 1).
    """
    W = as_channel(W)
    _require_square(W)
    n = W.shape[0]
    eigvals, eigvecs = np.linalg.eig(W)
    close = np.abs(eigvals - 1.0) < _UNIQUE_GAP
    if not np.any(close):
        raise ValueError("no eigenvalue-1 eigenvector found")
    unique = int(np.sum(close)) == 1
    idx = int(np.argmin(np.abs(eigvals - 1.0)))
    v = np.real(eigvecs[:, idx])
    s = v.sum()
    if abs(s) > 1e-12:
        v = v / s
    if np.any(v < -1e-9) or abs(s) <= 1e-12:
        # degenerate eigenspace: find a non-negative stationary vector directly
        import scipy.optimize

        A = np.vstack([W - np.eye(n), np.ones((1, n))])
        b = np.zeros(n + 1)
        b[-1] = 1.0
        v, _ = scipy.optimize.nnls(A, b)
    # rounding mass on transient states is no support
    v = np.where(v < SUPPORT_EPSILON, 0.0, v)
    v = v / v.sum()
    if float(np.abs(W @ v - v).sum()) > 1e-9:
        raise ValueError("stationary solve failed to converge")
    return v, unique


@dataclass(frozen=True)
class ChainStructure:
    scrambling: bool
    irreducible: bool
    aperiodic: bool
    indecomposable: bool
    stationary: np.ndarray | None
    stationary_unique: bool
    positivity_index: int | None


def structure(W) -> ChainStructure:
    """Structural report: scrambling, irreducibility, aperiodicity,
    indecomposability, stationary distribution, and positivity index.

    The support graph has an edge between x and y whenever W(y|x) is
    positive.  A state with no return has period 0, so aperiodic means that
    every state lies on a cycle and every strongly connected component has
    period 1.  The positivity index is the least k with W^k entrywise
    positive; it exists exactly for irreducible aperiodic (primitive) chains,
    and Wielandt's bound (n-1)^2 + 1 caps it (Seneta, *Non-negative Matrices
    and Markov Chains*).
    """
    import scipy.sparse
    import scipy.sparse.csgraph

    W = as_channel(W)
    _require_square(W)
    n = W.shape[0]
    adj = scipy.sparse.csr_matrix(W > SUPPORT_EPSILON, dtype=float)

    # scrambling: every pair of columns shares a positive output; the
    # overlap counts are float64 (exact far beyond any n that fits in memory)
    # and the sparse product stores only the positive ones
    scrambling = bool(np.count_nonzero((adj.T @ adj).data) == n * n)

    # period of each strongly connected component: the gcd of
    # level[u] + 1 - level[v] over its internal edges, with BFS levels from
    # one root per component; a component without internal edges (a state
    # with no return) keeps period 0
    n_comp, labels = scipy.sparse.csgraph.connected_components(
        adj, directed=True, connection="strong"
    )
    src, dst = adj.nonzero()
    inner = labels[src] == labels[dst]
    src, dst = src[inner], dst[inner]
    roots = np.unique(labels, return_index=True)[1]
    level = scipy.sparse.csgraph.dijkstra(
        scipy.sparse.csr_matrix((np.ones(src.size), (src, dst)), shape=(n, n)),
        indices=roots,
        unweighted=True,
        min_only=True,
    ).astype(np.int64)
    period = np.zeros(n_comp, dtype=np.int64)
    np.gcd.at(period, labels[src], level[src] + 1 - level[dst])
    irreducible = n_comp == 1  # a lone state always has its self-loop
    aperiodic = bool(np.all(period == 1))

    positivity_index = None
    if irreducible and aperiodic:
        reach = adj.toarray()  # support of W^k, as 0/1
        for k in range(1, (n - 1) ** 2 + 2):
            if np.all(reach > 0.0):
                positivity_index = k
                break
            reach = np.minimum(adj @ reach, 1.0)

    try:
        pi, unique = stationary_distribution(W)
    except ValueError:
        pi, unique = None, False

    indecomposable = False
    if pi is not None:
        joint = W * pi[np.newaxis, :]  # joint[y, x] = W(y|x) pi(x)
        x_keep = np.flatnonzero(pi > SUPPORT_EPSILON)
        y_keep = np.flatnonzero(joint.sum(axis=1) > SUPPORT_EPSILON)
        edges = joint[np.ix_(y_keep, x_keep)] > SUPPORT_EPSILON
        ny, nx = edges.shape
        bip = np.zeros((nx + ny, nx + ny), dtype=bool)
        bip[:nx, nx:] = edges.T
        bip[nx:, :nx] = edges
        n_comp, _ = scipy.sparse.csgraph.connected_components(
            scipy.sparse.csr_matrix(bip), directed=False
        )
        indecomposable = n_comp == 1

    return ChainStructure(
        scrambling=scrambling,
        irreducible=irreducible,
        aperiodic=aperiodic,
        indecomposable=indecomposable,
        stationary=pi,
        stationary_unique=unique,
        positivity_index=positivity_index,
    )


def iterate(W, p, n: int) -> np.ndarray:
    """Apply the channel n times; renormalizes (with a warning) on drift."""
    W = as_channel(W)
    p = as_prob_vec(p)
    if W.shape[1] != p.shape[0]:
        raise ValueError("dimension mismatch between channel and input")
    if n < 0:
        raise ValueError("n must be non-negative")
    out = p.copy()
    for _ in range(n):
        out = W @ out
    drift = abs(out.sum() - 1.0)
    if drift > 1e-9:
        warnings.warn(f"iterate drifted off the simplex by {drift:g}; renormalized")
        out = np.maximum(out, 0.0)
        out /= out.sum()
    return out
