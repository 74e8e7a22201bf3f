"""Finite Markov chains as column-stochastic channels.

The matrix convention follows the channel convention: outputs are W @ p, so
every column of W sums to one.  Structural predicates (irreducible, aperiodic,
scrambling, indecomposable) are decided on the support graph of W, which has
an edge x -> y whenever W(y|x) exceeds SUPPORT_EPSILON, with numpy and short
Python loops:

- one iterative Tarjan pass (Tarjan 1972) gives the strongly connected
  components and a depth-first depth per state; the closed classes are the
  components that no edge leaves, and the period of a component is the gcd
  of depth[x] + 1 - depth[y] over its internal edges x -> y;
- one float32 column-overlap product of the 0/1 support decides scrambling;
- the positivity index of a primitive chain comes from squaring the 0/1
  support until it is positive, then lifting back down to the least power
  with the stored squares: about 2 log2 of the index products, against the
  (n-1)^2 + 1 steps of Wielandt's bound.

The stationary distribution is unique exactly when there is one closed
class.  It comes from one linear solve per closed class C, the balance
equations (W_CC - I) pi_C = 0 with the last replaced by sum(pi_C) = 1
(Stewart, *Introduction to the Numerical Solution of Markov Chains*, ch. 2);
with several closed classes it is the uniform mixture of the per-class
solves.  Transient states get zero.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .divergence import SUPPORT_EPSILON, _as_count, _weigh

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


def as_channel(W) -> np.ndarray:
    """Validate a column-stochastic matrix; output is W @ p."""
    return _channel(W)


def _channel(W, *inputs, square=False, column_sum_tol=_COLUMN_SUM_TOL):
    """The gate of a channel, alone or with probability vectors on its
    inputs: the validated copy W, or (W, *inputs).  Shapes first: W
    non-empty and 2-D (square with ``square``), each input non-empty and
    1-D with one entry per column.  Then W's values: finite, none below
    -1e-14 (negatives become zero), unit column sums to ``column_sum_tol``;
    then each input's (``divergence._weigh``, with a unit sum)."""
    W = np.array(W, dtype=float)
    if W.ndim != 2 or W.shape[0] < 1 or W.shape[1] < 1:
        raise ValueError("channel must be a non-empty 2-D matrix")
    if square and W.shape[0] != W.shape[1]:
        raise ValueError("operation requires a square channel")
    vs = [np.array(v, dtype=float) for v in inputs]
    for v in vs:
        if v.ndim != 1 or v.size < 1:
            raise ValueError("weight vector must be a non-empty 1-D array")
        if v.shape[0] != W.shape[1]:
            raise ValueError("dimension mismatch between channel and input")
    if not np.all(np.isfinite(W)):
        raise ValueError("channel entries must be finite")
    if np.any(W < -1e-14):
        raise ValueError("channel entries must be non-negative")
    W[W < 0.0] = 0.0
    _check_column_sums(W, column_sum_tol)
    for v in vs:
        _weigh(v, prob=True)
    return (W, *vs) if vs else W


def _check_column_sums(W: np.ndarray, tol: float = _COLUMN_SUM_TOL) -> None:
    """The column-sum check of the channel gate, also the drift check of
    computed powers of a channel."""
    colsums = W.sum(axis=0)
    if np.any(np.abs(colsums - 1.0) > tol):
        raise ValueError(f"columns must sum to one; sums are {colsums}")


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


def stationary_distribution(W) -> tuple[np.ndarray, bool]:
    """A distribution with W pi = pi, and whether it is unique.

    It is unique exactly when the support graph has one closed class.  With
    several, pi is the uniform mixture of the stationary distributions of
    the closed classes.  Each class's distribution is one linear solve of
    its balance equations with the last replaced by the normalisation, and
    transient states get exact zeros (see the module docstring).
    """
    return _stationary_of(_channel(W, square=True))


def _stationary_of(W: np.ndarray) -> tuple[np.ndarray, bool]:
    """``stationary_distribution`` of a validated square W, unchecked."""
    pos = W > SUPPORT_EPSILON
    return _stationary(W, _closed_classes(pos, _components(pos)[0]))


def _stationary(W: np.ndarray, classes: list[np.ndarray]) -> tuple[np.ndarray, bool]:
    """``stationary_distribution`` of a validated square W whose closed
    classes, as arrays of states, are given: one solve of |C| equations per
    class C, entries below SUPPORT_EPSILON set to zero, renormalised, and
    a ValueError where ||W pi - pi||_1 exceeds 1e-9."""
    # each closed class is irreducible: (W_CC - I) pi_C = 0 has rank |C| - 1,
    # and a row of ones in place of the last equation fixes sum(pi_C) = 1, so
    # the normalisation below mixes several classes uniformly
    v = np.zeros(W.shape[0])
    for C in classes:
        A = W[np.ix_(C, C)] - np.eye(C.size)
        A[-1, :] = 1.0
        b = np.zeros(C.size)
        b[-1] = 1.0
        v[C] = np.linalg.solve(A, b)
    # rounding mass on transient states is no support
    v = np.where(v < SUPPORT_EPSILON, 0.0, v)
    v = v / v.sum()
    if float(np.abs(W @ v - v).sum()) > 1e-9:
        raise ValueError("stationary solve failed to converge")
    return v, len(classes) == 1


def _components(pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Strongly connected components of the graph with an edge x -> y
    wherever pos[y, x], by an iterative Tarjan pass: the component label of
    each state and its depth in the depth-first forest.  The states of one
    component form a subtree of that forest, so the depth difference of two
    of them is the length of a walk inside their component."""
    n = pos.shape[0]
    xs, ys = np.nonzero(pos.T)
    ends = np.searchsorted(xs, np.arange(n + 1)).tolist()
    ys = ys.tolist()
    succ = [ys[ends[x] : ends[x + 1]] for x in range(n)]
    index, low, depth, label = [-1] * n, [0] * n, [0] * n, [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    count = n_comp = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            x, edges = work[-1]
            for y in edges:
                if index[y] < 0:
                    index[y] = low[y] = count
                    count += 1
                    depth[y] = depth[x] + 1
                    stack.append(y)
                    on_stack[y] = True
                    work.append((y, iter(succ[y])))
                    break
                if on_stack[y] and index[y] < low[x]:
                    low[x] = index[y]
            else:
                work.pop()
                if work and low[x] < low[work[-1][0]]:
                    low[work[-1][0]] = low[x]
                if low[x] == index[x]:
                    y = -1
                    while y != x:
                        y = stack.pop()
                        on_stack[y] = False
                        label[y] = n_comp
                    n_comp += 1
    return np.array(label), np.array(depth)


def _closed_classes(pos: np.ndarray, labels: np.ndarray) -> list[np.ndarray]:
    """The components that no edge leaves, each as an array of states."""
    ys, xs = np.nonzero(pos)
    closed = np.ones(labels.max() + 1, dtype=bool)
    closed[labels[xs[labels[xs] != labels[ys]]]] = False
    return [np.flatnonzero(labels == c) for c in np.flatnonzero(closed)]


def _positivity_index(pos: np.ndarray) -> int:
    """The least k with pos^k all true, for the support of a primitive chain.

    Squares pos until it is all true, keeping the squares pos^(2^j) as bool.
    Positivity is monotone in k (no column of pos is empty, so pos^k > 0
    gives pos^(k+1) = pos^k pos > 0), so the largest power that is not all
    true is built from the squares one bit at a time, from the top.  The
    products count paths in float32: at most n, so exact.
    """

    def product(a, b):
        return (a.astype(np.float32) @ b.astype(np.float32)) > 0.0

    squares = [pos]
    while not squares[-1].all():
        # the index is at most (n-1)^2 + 1 <= 4^(bit length of n)
        if len(squares) > 2 * pos.shape[0].bit_length():
            raise ValueError("support is not primitive")
        squares.append(product(squares[-1], squares[-1]))
    if len(squares) == 1:
        return 1
    k, below = 1 << (len(squares) - 2), squares[-2]
    for j in range(len(squares) - 3, -1, -1):
        trial = product(below, squares[j])
        if not trial.all():
            k, below = k + (1 << j), trial
    return k + 1


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
    return _structure(_channel(W, square=True))


def _structure(W: np.ndarray) -> ChainStructure:
    """``structure`` of a validated square W, unchecked."""
    pos = W > SUPPORT_EPSILON  # pos[y, x]: the edge x -> y

    # scrambling: every pair of columns shares a positive output
    ones = pos.astype(np.float32)
    scrambling = bool(np.all(ones.T @ ones > 0.0))

    # period of each strongly connected component: the gcd of
    # depth[x] + 1 - depth[y] over its internal edges x -> y; a component
    # without internal edges (a state with no return) keeps period 0
    labels, depth = _components(pos)
    ys, xs = np.nonzero(pos)
    inner = labels[xs] == labels[ys]
    xs, ys = xs[inner], ys[inner]
    period = np.zeros(labels.max() + 1, dtype=np.int64)
    np.gcd.at(period, labels[xs], depth[xs] + 1 - depth[ys])
    irreducible = period.size == 1  # a lone state always has its self-loop
    aperiodic = bool(np.all(period == 1))

    positivity_index = None
    if irreducible and aperiodic:
        positivity_index = _positivity_index(pos)

    try:
        pi, unique = _stationary(W, _closed_classes(pos, labels))
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
        # bip is symmetric: its strongly connected components are the
        # connected components of the bipartite joint-support graph
        indecomposable = bool(np.all(_components(bip)[0] == 0))

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
    """Apply the square channel n times; renormalizes (with a warning) on
    drift."""
    W, p = _channel(W, p, square=True)
    return _iterate(W, p, _as_count(n, "n"))


def _iterate(W: np.ndarray, p: np.ndarray, n: int) -> np.ndarray:
    """``iterate`` of a validated square W, input p and count n, unchecked."""
    out = p.copy()
    for _ in range(n):
        out = W @ out
    drift = abs(out.sum() - 1.0)
    if drift > 1e-9:
        warnings.warn(f"iterate drifted off the simplex by {drift:g}; renormalized")
        out = np.maximum(out, 0.0)
        out /= out.sum()
    return out
