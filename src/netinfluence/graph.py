"""Weighted digraphs with unit incoming weight: parsing, validation, generators.

The model convention throughout the package is that edge weights are positive
and the weights *entering* each node sum to one, so that a node's in-neighbors
describe how it blends the opinions around it.  Graphs are immutable; node ids
are dense integers ``0 .. node_count - 1``.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

STOCHASTIC_TOL = 1e-9


class GraphFormatError(ValueError):
    """Raised when an edge-list document cannot be parsed.

    Carries the one-based line number of the offending line when available.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class _EdgeError(ValueError):
    """A bad entry in a graph's edge list; ``index`` is its position there."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class Graph:
    """Immutable weighted digraph on dense node ids.

    ``edges`` holds ``(source, target, weight)`` triples.  Duplicate edges,
    self-loops and weights that are not finite and positive are rejected: a
    node's retention of its own opinion is a dynamics parameter, not an edge.
    """

    node_count: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("graph must have at least one node")
        seen: set[tuple[int, int]] = set()
        for k, (u, v, w) in enumerate(self.edges):
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise _EdgeError(f"edge ({u}, {v}) references an unknown node id", k)
            if u == v:
                raise _EdgeError(f"self-loop at node {u} is not allowed", k)
            if not 0 < w < math.inf:
                kind = "non-finite" if not math.isfinite(w) else "non-positive"
                raise _EdgeError(f"edge ({u}, {v}) has {kind} weight {w}", k)
            if (u, v) in seen:
                raise _EdgeError(f"duplicate edge ({u}, {v})", k)
            seen.add((u, v))


def _edge_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``g.edges`` as integer source and target arrays and a weight array, in edge order."""
    fields = [("src", np.intp), ("dst", np.intp), ("weight", float)]
    edges = np.fromiter(g.edges, dtype=fields, count=len(g.edges))
    return edges["src"], edges["dst"], edges["weight"]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the model-contract checks on a graph.

    ``offending_nodes`` pairs each failing node with a defect magnitude: the
    deviation of its incoming weight from one, or ``inf`` when the node breaks
    strong connectivity (unreachable from node 0, or unable to reach it).
    """

    stochastic: bool
    strongly_connected: bool
    offending_nodes: tuple[tuple[int, float], ...]

    @property
    def ok(self) -> bool:
        return self.stochastic and self.strongly_connected


def _reached_from_zero(n: int, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """Mask of the nodes reachable from node 0 along the edges ``heads[k] -> tails[k]``."""
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(heads, minlength=n), out=indptr[1:])
    indptr, targets = indptr.tolist(), memoryview(tails[np.argsort(heads)])
    reached = bytearray(n)
    reached[0] = 1
    stack = [0]
    while stack:
        node = stack.pop()
        for nxt in targets[indptr[node] : indptr[node + 1]]:
            if not reached[nxt]:
                reached[nxt] = 1
                stack.append(nxt)
    return np.frombuffer(reached, dtype=bool)


def validate(g: Graph, tol: float = STOCHASTIC_TOL) -> ValidationReport:
    """Check unit incoming weight per node and strong connectivity.

    Incoming weights are summed per node in edge order.  A node breaks strong
    connectivity when it is unreachable from node 0 or cannot reach it.

    Args:
        g: the graph under test.
        tol: allowed absolute deviation of each incoming weight sum from one.
    """
    return _validate_edges(g.node_count, *_edge_arrays(g), tol)


def _validate_edges(
    n: int, src: np.ndarray, dst: np.ndarray, weight: np.ndarray, tol: float = STOCHASTIC_TOL
) -> ValidationReport:
    """``validate`` on a graph already converted by ``_edge_arrays``."""
    gaps = np.abs(np.bincount(dst, weights=weight, minlength=n) - 1.0)
    bad = np.flatnonzero(gaps > tol)
    cut_off = np.flatnonzero(~(_reached_from_zero(n, src, dst) & _reached_from_zero(n, dst, src)))
    defects = dict(zip(bad.tolist(), gaps[bad].tolist()))
    defects |= dict.fromkeys(cut_off.tolist(), math.inf)
    return ValidationReport(not len(bad), not len(cut_off), tuple(sorted(defects.items())))


def load_graph(source, normalize: bool = False) -> Graph:
    """Parse the line-oriented edge-list format.

    ``source`` may be a string holding the whole document or any iterable of
    lines (an open file works).  Lines starting with ``#`` and blank lines are
    skipped.  The first payload line must be ``nodes <count>``; every further
    payload line must be ``edge <source> <target> <weight>``.

    Args:
        source: document text or iterable of lines.
        normalize: rescale each node's incoming weights to sum to one after
            parsing and checking the raw weights and their finite sums
            (nodes with no incoming edges are left untouched).

    Raises:
        GraphFormatError: on any malformed line or edge ``Graph`` rejects,
            with its line number.
    """
    if isinstance(source, str):
        source = source.splitlines()

    node_count: int | None = None
    edges: list[tuple[int, int, float]] = []
    edge_lines = array("q")
    for line_no, raw in enumerate(source, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        tokens = text.split()
        if node_count is None:
            if tokens[0] != "nodes" or len(tokens) != 2:
                raise GraphFormatError("expected 'nodes <count>' header", line_no)
            try:
                node_count = int(tokens[1])
            except ValueError:
                raise GraphFormatError(f"bad node count {tokens[1]!r}", line_no) from None
            if node_count < 1:
                raise GraphFormatError("graph must have at least one node", line_no)
            continue
        if tokens[0] != "edge" or len(tokens) != 4:
            raise GraphFormatError("expected 'edge <source> <target> <weight>'", line_no)
        try:
            u, v = int(tokens[1]), int(tokens[2])
            w = float(tokens[3])
        except ValueError:
            raise GraphFormatError(f"bad edge tokens {tokens[1:]!r}", line_no) from None
        edges.append((u, v, w))
        edge_lines.append(line_no)

    if node_count is None:
        raise GraphFormatError("empty document: missing 'nodes <count>' header")

    try:
        if normalize:
            Graph(node_count, tuple(edges))  # checks the raw weights
            # Sized by the largest target, so a huge header allocates nothing.
            sums = [0.0] * (max((v for _, v, _ in edges), default=-1) + 1)
            for k, (_, v, w) in enumerate(edges):
                sums[v] += w
                if not math.isfinite(sums[v]):
                    raise _EdgeError(f"incoming weights of node {v} overflow to a non-finite sum", k)
            edges = [(u, v, w / sums[v]) for u, v, w in edges]
        return Graph(node_count, tuple(edges))
    except _EdgeError as exc:
        raise GraphFormatError(str(exc), edge_lines[exc.index]) from None


def dump_graph(g: Graph) -> str:
    """Serialize a graph to the edge-list format accepted by ``load_graph``.

    Weights are written with 12 significant digits, which round-trips well
    inside the validation tolerance.
    """
    lines = [f"nodes {g.node_count}"]
    for u, v, w in g.edges:
        lines.append(f"edge {u} {v} {format(w, '#.12g')}")
    return "\n".join(lines) + "\n"


def build_counterexample(m: int, b: int) -> Graph:
    """Ring-with-petals graph on which short-horizon seeding games never settle.

    ``mu = m * (b + 1) + 1`` central nodes ``0 .. mu-1`` form a ring in which
    node ``i`` feeds ``i+1 .. i+b`` (indices wrapping modulo ``mu``).  Each
    central node ``i`` carries two petal nodes, left ``mu + 2i`` and right
    ``mu + 2i + 1``, wired ``i -> left``, ``i -> right``, ``left -> right``,
    ``right -> i``.  Every edge into a node receives weight ``1 / in-degree``,
    so incoming weights sum to one and the graph is strongly connected.

    The construction is sized for ``m`` players of budget ``b``.  With two
    players, mixing weight one half and horizon ``b``, best responses chase
    each other around the ring forever and no pure Nash equilibrium exists;
    larger player counts can leave enough room on the ring for play to
    settle.

    Args:
        m: number of players the construction is sized for (at least 2).
        b: per-player budget the construction is sized for (at least 1).
    """
    if m < 2:
        raise ValueError("construction needs at least two players")
    if b < 1:
        raise ValueError("construction needs budget at least one")
    mu = m * (b + 1) + 1
    n = 3 * mu

    pairs: list[tuple[int, int]] = []
    for i in range(mu):
        for k in range(1, b + 1):
            pairs.append((i, (i + k) % mu))
    for i in range(mu):
        left, right = mu + 2 * i, mu + 2 * i + 1
        pairs.extend([(i, left), (i, right), (left, right), (right, i)])

    in_degree = np.zeros(n, dtype=int)
    for _, v in pairs:
        in_degree[v] += 1
    edges = tuple(
        (u, v, 1.0 / int(in_degree[v])) for u, v in sorted(pairs)
    )
    return Graph(n, edges)


def random_graph(n: int, out_degree: int, seed: int) -> Graph:
    """Random strongly connected digraph with normalized incoming weights.

    A random ring through all nodes guarantees strong connectivity; every
    node then receives extra random out-edges until it has ``out_degree`` of
    them.  Raw weights are drawn uniformly and rescaled so each node's
    incoming weights sum to one.  The result is a pure function of the
    arguments: the same seed always yields the identical edge list.

    Args:
        n: number of nodes (at least 2).
        out_degree: out-edges per node, between 1 and ``n - 1``.
        seed: seed for the random number generator.
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    if not 1 <= out_degree < n:
        raise ValueError("out_degree must lie in [1, n - 1]")
    rng = np.random.default_rng(seed)

    order = rng.permutation(n)
    targets: list[set[int]] = [set() for _ in range(n)]
    for k in range(n):
        targets[order[k]].add(int(order[(k + 1) % n]))
    for u in range(n):
        missing = out_degree - len(targets[u])
        if missing > 0:
            # Draw positions among the allowed ids; the k-th excluded id has k
            # fewer allowed ids below it, which locates each position's id.
            excluded = sorted(targets[u] | {u})
            picked = rng.choice(n - len(excluded), size=missing, replace=False)
            below = np.array(excluded) - np.arange(len(excluded))
            targets[u].update((picked + np.searchsorted(below, picked, side="right")).tolist())

    raw = {}
    for u in range(n):
        for v in sorted(targets[u]):
            raw[(u, v)] = rng.uniform(0.5, 1.5)
    sums = np.zeros(n)
    for (_, v), w in raw.items():
        sums[v] += w
    edges = tuple(
        (u, v, float(w / sums[v])) for (u, v), w in sorted(raw.items())
    )
    return Graph(n, edges)
