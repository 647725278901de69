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

Operators are dense numpy arrays up to ``SPARSE_NODE_THRESHOLD`` nodes and
``scipy.sparse`` matrices above it.  scipy is imported only when a graph
above the threshold builds its operator, so small-graph runs never load it;
code elsewhere tells the formats apart with ``isinstance(x, np.ndarray)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .graph import Graph, check_seed_ids, validate

if TYPE_CHECKING:
    from scipy import sparse as _sparse

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
    n = g.node_count
    if n > 1 and g.src.size < n:
        # Every node of a strongly connected graph has an in-edge; checked
        # first so a huge node count costs nothing before it is rejected.
        raise ValueError(
            f"graph fails validation ({n} nodes need at least {n} edges to be "
            f"strongly connected, got {g.src.size})"
        )
    report = validate(g)
    if not report.ok:
        raise ValueError(
            "graph fails validation "
            f"(stochastic={report.stochastic}, strongly_connected={report.strongly_connected}, "
            f"offending_nodes={report.offending_nodes[:5]})"
        )
    if n > SPARSE_NODE_THRESHOLD:
        diagonal = np.arange(n)
        data = np.concatenate((alpha * g.weight, np.full(n, 1.0 - alpha)))
        coords = (np.concatenate((g.dst, diagonal)), np.concatenate((g.src, diagonal)))
        entries = _scipy_sparse().coo_matrix((data, coords), shape=(n, n)).tocsr()
    else:
        # Validated edges have no repeats and no self-loops, so no entry is written twice.
        entries = np.zeros((n, n))
        entries[g.dst, g.src] = alpha * g.weight
        np.fill_diagonal(entries, 1.0 - alpha)
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
    for i, s in enumerate(seed_sets):
        check_seed_ids(g.node_count, i, s)
    return OpinionState(0, seeded_opinions(g.node_count, seed_sets, epsilon))


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


def _scipy_sparse():
    """``scipy.sparse``, imported on first use: only operators above the threshold need it."""
    from scipy import sparse

    return sparse


def _identity(gamma: InfluenceMatrix) -> np.ndarray | _sparse.csr_matrix:
    """The identity in the operator's format."""
    if isinstance(gamma.entries, np.ndarray):
        return np.eye(gamma.n)
    return _scipy_sparse().identity(gamma.n, format="csr")


def diffusion_centrality_matrix(
    gamma: InfluenceMatrix, t_steps: int
) -> np.ndarray | _sparse.csc_matrix:
    """Influence table after ``t_steps`` steps: the ``t``-th operator power.

    Column ``u`` is how much source ``u``'s initial opinion shapes every node;
    each row sums to one.  ``table @ x`` equals ``evolve`` of the opinion
    matrix ``x`` for ``t_steps``.  Built by ``t_steps`` successive products
    with the operator, starting from the identity.  A dense operator gives a
    dense table.  A sparse operator starts from the sparse identity and
    returns a compressed sparse column matrix, unless the power fills in: once
    more than a quarter of its entries are nonzero it turns dense and the
    remaining products are dense.  Either way the entries equal those of the
    dense products.
    """
    if t_steps < 0:
        raise ValueError("t_steps must be non-negative")
    n = gamma.n
    table = _identity(gamma)
    for _ in range(t_steps):
        table = gamma.entries @ table
        if not isinstance(table, np.ndarray) and 4 * table.nnz > n * n:
            table = table.toarray()
    return table if isinstance(table, np.ndarray) else table.tocsc()


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

    The operator ``(1 - alpha) I + alpha W`` shares its left fixed point with
    the lazy walk ``(I + W) / 2``, which converges at a rate independent of
    ``alpha``; the iteration runs on the lazy walk, with ``W`` recovered from
    ``entries``.  It starts from the uniform vector, renormalizes to unit sum
    each round, and stops once the step (the max-norm change of the last
    round) is below ``tol`` and so is the estimated distance to the fixed
    point, ``step * rate / (1 - rate)`` with ``rate`` the ratio of the step to
    the one before, or once a step below ``tol`` is no smaller than the one
    before, which leaves only rounding noise; either must hold on three
    rounds running.  The result is checked to satisfy the fixed-point
    equation of ``entries`` within ``10 * tol``.

    Raises:
        PowerIterationError: when the iteration budget runs out or the
            residual check fails; never silently returns a bad vector.
    """
    entries = gamma.entries
    identity = _identity(gamma)
    walk = (entries - (1.0 - gamma.alpha) * identity) / gamma.alpha
    transposed = ((identity + walk) / 2).T
    c = np.full(gamma.n, 1.0 / gamma.n)
    delta = np.nan  # no step yet, so the first round has no rate and no estimate
    settled = 0  # rounds in a row that passed the stopping test
    for _ in range(max_iter):
        nxt = transposed @ c
        nxt /= nxt.sum()
        step = np.max(np.abs(nxt - c))
        rate, delta, c = step / delta, step, nxt
        # Steps shrinking at rate r < 1 leave about step * r / (1 - r) to go;
        # steps below tol that stop shrinking are rounding noise.  The rate can
        # sag below the settled one for twenty rounds, so that the estimate
        # reads a third low; two more passing rounds shrink the error by that.
        passed = step < tol and (rate >= 1 or step * rate < tol * (1 - rate))
        settled = settled + 1 if passed else 0
        if step == 0 or settled == 3:
            break
    else:
        raise PowerIterationError(
            f"no convergence after {max_iter} iterations (last delta {delta:.3e})"
        )
    residual = np.max(np.abs(entries.T @ c - c))
    if not residual < 10 * tol:
        raise PowerIterationError(
            f"converged iterate fails the fixed-point check (residual {residual:.3e})"
        )
    return ConsensusWeights(c)


def consensus_reached(state: OpinionState, tol: float) -> bool:
    """True when every player's opinion column is flat across nodes within ``tol``."""
    spread = state.opinions.max(axis=0) - state.opinions.min(axis=0)
    return bool(np.all(spread < tol))
