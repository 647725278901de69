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
above the threshold builds its operator, so small-graph runs never load it.
Only this module tells the formats apart (``_columns``, ``_entries``, ``_held_entries``, ``_table_bytes``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .graph import Graph, _integer, _spans, _tolerance, check_seed_ids, seed_set, validate

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
        seed_sets: per-player iterables of node ids, none listed twice or
            out of range; empty sets are allowed.
        epsilon: background opinion in (0, 1/(2m)).
    """
    seed_sets = [seed_set(i, s) for i, s in enumerate(seed_sets)]
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
    t_steps = _integer(t_steps, "non-integer t_steps")
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


def _identity(gamma: InfluenceMatrix) -> np.ndarray | _sparse.csc_matrix:
    """The identity: dense for a dense operator, else compressed sparse column."""
    if isinstance(gamma.entries, np.ndarray):
        return np.eye(gamma.n)
    return _scipy_sparse().identity(gamma.n, format="csc")


def diffusion_centrality_matrix(
    gamma: InfluenceMatrix, t_steps: int, _start=None
) -> np.ndarray | _sparse.csc_matrix:
    """Influence table after ``t_steps`` steps: the ``t``-th operator power.

    Column ``u`` is how much source ``u``'s initial opinion shapes every node;
    each row sums to one.  ``table @ x`` equals ``evolve`` of the opinion
    matrix ``x`` for ``t_steps``.  Built from a copy of the operator by
    ``t_steps - 1`` products with it (the identity for no steps), or by
    ``t_steps`` products from ``_start``, a table this function built from the
    same operator at a lower horizon, which is never changed and gives the
    entries a build from scratch would.  A dense operator gives a dense table.
    A sparse operator is multiplied in compressed sparse column form, so the
    table is compressed sparse column, unless the power fills in: once more
    than a quarter of its entries are nonzero (the copy's included) it turns
    dense and the remaining products are dense.  Either way the entries equal
    those of the dense products within rounding.
    """
    t_steps = _integer(t_steps, "non-integer t_steps")
    if t_steps < 0:
        raise ValueError("t_steps must be non-negative")
    n, op = gamma.n, gamma.entries
    if not isinstance(op, np.ndarray):
        op = op.tocsc()  # a product of two compressed sparse column matrices is one too
    table = _start
    for _ in range(t_steps):
        table = op.copy() if table is None else op @ table
        if not isinstance(table, np.ndarray) and 4 * table.nnz > n * n:
            table = table.toarray()
    return _identity(gamma) if table is None else table


def _columns(table, nodes: np.ndarray) -> np.ndarray:
    """Columns ``nodes`` of a dense or compressed sparse column ``table`` as one dense
    ``nodes.shape + (rows,)`` array; a sparse table's straight from ``indptr``, ``indices`` and ``data``."""
    if isinstance(table, np.ndarray):
        return table.T[nodes]
    height, flat = table.shape[0], nodes.ravel()
    # column v's entries sit at indptr[v] .. indptr[v + 1] - 1
    starts, sizes = table.indptr[flat], table.indptr[flat + 1] - table.indptr[flat]
    at = _spans(starts, sizes)
    cells = np.repeat(np.arange(flat.size) * height, sizes) + table.indices[at]
    block = np.bincount(cells, weights=table.data[at], minlength=flat.size * height)
    return block.reshape(nodes.shape + (height,))


def _entries(table, items: int):
    """A dense or compressed sparse column ``table``'s nonzero entries as ``(columns, rows, values)`` arrays, in blocks
    of whole columns of about ``items`` entries (dense: ``items // 4`` cells, as a block makes four arrays its size)."""
    height, width = table.shape
    if isinstance(table, np.ndarray):
        for first in range(0, width, step := max(1, items // (4 * height))):
            block = np.ascontiguousarray(table.T[first : first + step])
            cols, rows = np.divmod(at := np.flatnonzero(block != 0), height)
            yield cols + first, rows, block.ravel()[at]
        return
    indptr = table.indptr  # cut before the column holding every items-th entry
    cuts = np.unique(np.append(np.searchsorted(indptr, np.arange(0, table.nnz, items), "right") - 1, width))
    for first, last in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        at = slice(indptr[first], indptr[last])
        yield np.repeat(np.arange(first, last), np.diff(indptr[first : last + 1])), table.indices[at], table.data[at]


def _held_entries(table, items: int):
    """Entries in a list of ``items``-cell blocks if dense, under a third full (24 B an entry, 8 a cell); else None."""
    sparse_enough = isinstance(table, np.ndarray) and 3 * np.count_nonzero(table) < table.size
    return list(_entries(table, 4 * items)) if sparse_enough else None


def _table_bytes(table) -> int:
    """Memory held by a dense table, a compressed sparse table's three arrays, or an operator's entries."""
    table = getattr(table, "entries", table)
    if isinstance(table, np.ndarray):
        return table.nbytes
    return table.data.nbytes + table.indices.nbytes + table.indptr.nbytes


@dataclass(frozen=True, eq=False)
class ConsensusWeights:
    """Stationary influence shares: the left fixed point of the mixing operator.

    Strictly positive and summing to one; every opinion converges to its
    weighted average of the initial opinions under these weights.
    ``iterations`` counts the power-iteration rounds run and ``residual`` is
    the max-norm fixed-point error of ``weights`` (see ``eigenvector_weights``).
    """

    weights: np.ndarray
    iterations: int = 0
    residual: float = np.nan


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
    each round, and stops once the step (the largest change of the last
    round relative to its weight, as payoffs move with the relative error of
    weights near ``1 / n``) is below ``tol`` and so is the estimated distance
    to the fixed point, ``step * rate / (1 - rate)`` with ``rate`` the ratio of
    the step to the smallest one before, or once that ratio is at least one,
    which leaves only rounding noise; either must hold on three rounds
    running.  The result is checked to satisfy the fixed-point
    equation of ``entries`` within ``10 * tol``.

    Raises:
        ValueError: when ``tol`` is not positive and finite.
        PowerIterationError: when the iteration budget runs out or the
            residual check fails; never silently returns a bad vector.
    """
    max_iter = _integer(max_iter, "non-integer max_iter")
    tol = _tolerance(tol)
    entries = gamma.entries
    identity = _identity(gamma)  # the sparse lazy walk is then CSC, and its transpose CSR: faster products
    walk = (entries - (1.0 - gamma.alpha) * identity) / gamma.alpha
    transposed = ((identity + walk) / 2).T
    c = np.full(gamma.n, 1.0 / gamma.n)
    floor = np.nan  # the smallest step so far; none yet, so the first round has no rate and no estimate
    settled = 0  # rounds in a row that passed the stopping test
    for iterations in range(1, max_iter + 1):
        nxt = transposed @ c
        nxt /= nxt.sum()
        step = np.max(np.abs(nxt - c) / nxt)
        rate, floor, c = step / floor, min(step, floor), nxt  # min skips the first round's nan
        # Steps shrinking at rate r < 1 leave about step * r / (1 - r) to go;
        # steps below tol that set no new low are rounding noise, which can
        # alternate in the last bit.  The rate can sag below the settled one
        # for twenty rounds, so that the estimate reads a third low; two more
        # passing rounds shrink the error by that.
        passed = step < tol and (rate >= 1 or step * rate < tol * (1 - rate))
        settled = settled + 1 if passed else 0
        if step == 0 or settled == 3:
            break
    else:
        raise PowerIterationError(
            f"no convergence after {max_iter} iterations (smallest step {floor:.3e})"
        )
    residual = np.max(np.abs(entries.T @ c - c))
    if not residual < 10 * tol:
        raise PowerIterationError(
            f"converged iterate fails the fixed-point check (residual {residual:.3e})"
        )
    return ConsensusWeights(c, iterations, float(residual))


def consensus_reached(state: OpinionState, tol: float) -> bool:
    """True when every player's opinion column is flat across nodes within ``tol``,
    which must be positive and finite (``graph._tolerance``)."""
    tol = _tolerance(tol)
    spread = state.opinions.max(axis=0) - state.opinions.min(axis=0)
    return bool(np.all(spread < tol))
