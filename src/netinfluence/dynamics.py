"""Opinion propagation: the mixing operator, evolution, and influence measures.

Opinions toward each player live on the nodes of a validated graph and evolve
by repeated weighted averaging: at every step a node keeps a ``1 - alpha``
share of its own opinion and absorbs an ``alpha`` share from its in-neighbors.
Everything starts from one initial opinion matrix (``seeded_opinions``) and
applies one influence operator to it: ``evolve`` applies the mixing operator
step by step, the horizon table ``diffusion_centrality_matrix`` is its
``t``-th power (column ``u``: how much source ``u`` shapes everyone after
``t`` steps), and ``eigenvector_weights`` gives the stationary weights every
opinion converges toward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse as _sparse

from .graph import Graph, validate

SPARSE_NODE_THRESHOLD = 2000
DEFAULT_EIGEN_TOL = 1e-12
DEFAULT_EIGEN_MAX_ITER = 1_000_000


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge or produced a bad fixed point."""


@dataclass(frozen=True, eq=False)
class InfluenceMatrix:
    """One-step mixing operator ``(1 - alpha) I + alpha W``.

    ``W`` is the transposed weight matrix of the graph, so entry ``(v, u)``
    holds ``alpha * w(u, v)`` plus the retention term on the diagonal.  Rows
    sum to one; the diagonal is at least ``1 - alpha``, which keeps the
    long-run behavior aperiodic.  ``entries`` is a dense array for graphs of
    at most ``SPARSE_NODE_THRESHOLD`` nodes and a compressed sparse row
    matrix above that.
    """

    n: int
    alpha: float
    entries: np.ndarray | _sparse.csr_matrix

    def row_sums(self) -> np.ndarray:
        return np.asarray(self.entries.sum(axis=1)).ravel()


def influence_matrix(g: Graph, alpha: float) -> InfluenceMatrix:
    """Build the mixing operator for a validated graph.

    Args:
        g: graph whose incoming weights sum to one; validated here.
        alpha: blending weight in (0, 1) given to in-neighbors.

    Raises:
        ValueError: if ``alpha`` is out of range or the graph fails validation.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie strictly between 0 and 1")
    report = validate(g)
    if not report.ok:
        raise ValueError(
            "graph fails validation "
            f"(stochastic={report.stochastic}, strongly_connected={report.strongly_connected}, "
            f"offending_nodes={report.offending_nodes[:5]})"
        )
    n = g.node_count
    if n > SPARSE_NODE_THRESHOLD:
        rows = [v for _, v, _ in g.edges] + list(range(n))
        cols = [u for u, _, _ in g.edges] + list(range(n))
        data = [alpha * w for _, _, w in g.edges] + [1.0 - alpha] * n
        entries = _sparse.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    else:
        entries = np.eye(n) * (1.0 - alpha)
        for u, v, w in g.edges:
            entries[v, u] = alpha * w
    return InfluenceMatrix(n, alpha, entries)


@dataclass(frozen=True, eq=False)
class OpinionState:
    """Opinion matrix at a fixed time: one row per node, one column per player.

    Entries stay within the spanned box of the initial opinions, so they are
    always in ``[0, 1]`` for states produced by ``initialize``.
    """

    t: int
    opinions: np.ndarray


def seeded_opinions(n: int, seed_sets, epsilon: float) -> np.ndarray:
    """The ``n x m`` initial opinion matrix, unchecked; see ``initialize``.

    A node seeded by ``k`` players splits its unit of opinion equally among
    them and holds zero toward everyone else; a node seeded by nobody starts
    at ``epsilon`` toward every player.  Empty seed sets are allowed.
    """
    x = np.zeros((n, len(seed_sets)))
    for i, s in enumerate(seed_sets):
        x[list(s), i] = 1.0
    counts = x.sum(axis=1, keepdims=True)
    return np.where(counts > 0, x / np.maximum(counts, 1.0), epsilon)


def initialize(g: Graph, seed_sets, epsilon: float) -> OpinionState:
    """Checked initial opinions for the given per-player seed sets.

    Builds ``seeded_opinions`` once the inputs pass.  ``epsilon`` must stay
    well below the smallest seeded share, hence the ``1 / (2m)`` bound.

    Args:
        g: the graph the opinions live on.
        seed_sets: per-player iterables of node ids.
        epsilon: background opinion in (0, 1/(2m)).
    """
    seed_sets = [frozenset(s) for s in seed_sets]
    m = len(seed_sets)
    if m < 1:
        raise ValueError("need at least one player")
    if not 0 < epsilon < 1.0 / (2 * m):
        raise ValueError(f"epsilon must lie in (0, 1/(2m)) = (0, {1.0 / (2 * m)})")
    n = g.node_count
    for i, s in enumerate(seed_sets):
        for v in s:
            if not 0 <= v < n:
                raise ValueError(f"player {i} seeds unknown node id {v}")
    return OpinionState(0, seeded_opinions(n, seed_sets, epsilon))


def evolve(state: OpinionState, gamma: InfluenceMatrix, t_steps: int) -> OpinionState:
    """Run ``t_steps`` averaging steps by repeated products.

    Repeated matrix-vector products keep memory flat and error growth mild,
    so this never forms an explicit matrix power.
    """
    if t_steps < 0:
        raise ValueError("t_steps must be non-negative")
    if state.opinions.shape[0] != gamma.n:
        raise ValueError(
            f"state carries {state.opinions.shape[0]} nodes but the operator has {gamma.n}"
        )
    x = state.opinions
    for _ in range(t_steps):
        x = gamma.entries @ x
    return OpinionState(state.t + t_steps, x)


def diffusion_centrality_matrix(gamma: InfluenceMatrix, t_steps: int) -> np.ndarray:
    """Influence table after ``t_steps`` steps: the dense ``t``-th operator power.

    Column ``u`` is how much source ``u``'s initial opinion shapes every node;
    each row sums to one.  ``table @ x`` equals ``evolve`` of the opinion
    matrix ``x`` for ``t_steps``.  Built by ``t_steps`` successive products
    with the operator.
    """
    if t_steps < 0:
        raise ValueError("t_steps must be non-negative")
    table = np.eye(gamma.n)
    for _ in range(t_steps):
        table = gamma.entries @ table
    return table


@dataclass(frozen=True, eq=False)
class ConsensusWeights:
    """Stationary influence shares: the left fixed point of the mixing operator.

    Strictly positive and summing to one; every opinion converges to its
    weighted average of the initial opinions under these weights.
    """

    weights: np.ndarray


def eigenvector_weights(
    gamma: InfluenceMatrix,
    tol: float = DEFAULT_EIGEN_TOL,
    max_iter: int = DEFAULT_EIGEN_MAX_ITER,
) -> ConsensusWeights:
    """Power iteration for the stationary weights ``c`` with ``c = c @ entries``.

    Starts from the uniform vector, renormalizes to unit sum each round, and
    stops when two successive iterates agree within ``tol`` in max-norm.  The
    result is checked to satisfy the fixed-point equation within ``10 * tol``.

    Raises:
        PowerIterationError: when the iteration budget runs out or the
            residual check fails; never silently returns a bad vector.
    """
    transposed = gamma.entries.T
    c = np.full(gamma.n, 1.0 / gamma.n)
    delta = np.inf
    for _ in range(max_iter):
        nxt = transposed @ c
        nxt /= nxt.sum()
        delta = np.max(np.abs(nxt - c))
        c = nxt
        if delta < tol:
            break
    else:
        raise PowerIterationError(
            f"no convergence after {max_iter} iterations (last delta {delta:.3e})"
        )
    residual = np.max(np.abs(transposed @ c - c))
    if not residual < 10 * tol:
        raise PowerIterationError(
            f"converged iterate fails the fixed-point check (residual {residual:.3e})"
        )
    return ConsensusWeights(c)


def consensus_reached(state: OpinionState, tol: float) -> bool:
    """True when every player's opinion column is flat across nodes within ``tol``."""
    spread = state.opinions.max(axis=0) - state.opinions.min(axis=0)
    return bool(np.all(spread < tol))
