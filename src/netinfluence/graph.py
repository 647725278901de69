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
_MAX_NODE_COUNT = int(np.iinfo(np.int64).max)


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


def _node_count_problem(node_count: int) -> str | None:
    if node_count < 1:
        return "graph must have at least one node"
    if node_count > _MAX_NODE_COUNT:
        return f"graph must have at most {_MAX_NODE_COUNT} nodes"
    return None


def _id_array(ids, node_count: int) -> np.ndarray:
    """Node ids (anything ``int`` accepts) as int64.

    Ids outside int64 are stored as -1 or ``node_count``, which are out of
    range just as they are.
    """
    try:
        return np.fromiter(map(int, ids), dtype=np.int64, count=len(ids))
    except OverflowError:
        clipped = (min(max(int(x), -1), node_count) for x in ids)
        return np.fromiter(clipped, dtype=np.int64, count=len(ids))


def check_seed_ids(n: int, i: int, seeds) -> None:
    """Raise ValueError at the first of player ``i``'s seed ids outside ``0 .. n - 1``."""
    for v in seeds:
        if not 0 <= v < n:
            raise ValueError(f"player {i} seeds unknown node id {v}")


def _repeats(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Mask of the edges whose (source, target) pair an earlier edge already has."""
    repeat = np.zeros(src.size, dtype=bool)
    order = np.lexsort((dst, src))  # stable, so each pair's first edge sorts first
    later, earlier = order[1:], order[:-1]
    repeat[later[(src[later] == src[earlier]) & (dst[later] == dst[earlier])]] = True
    return repeat


def _check_edges(
    n: int, src: np.ndarray, dst: np.ndarray, weight: np.ndarray, ends, ids_checked: bool = False
) -> None:
    """Raise ``_EdgeError`` for the first edge a graph rejects, naming its first failed check.

    The checks, in order: both node ids in range, no self-loop, a finite
    positive weight, no earlier edge with the same source and target.
    ``ids_checked`` keeps only the weight check, for ids that passed the
    others already.  ``ends(k)`` gives edge ``k``'s ids as written, for the
    message.
    """
    bad_weight = ~((weight > 0) & (weight < math.inf))
    if ids_checked:
        unknown = loop = repeat = np.zeros_like(bad_weight)
    else:
        unknown = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
        loop, repeat = src == dst, _repeats(src, dst)
    bad = np.flatnonzero(unknown | loop | bad_weight | repeat)
    if not bad.size:
        return
    k = int(bad[0])
    u, v = ends(k)
    w = float(weight[k])
    if unknown[k]:
        message = f"edge ({u}, {v}) references an unknown node id"
    elif loop[k]:
        message = f"self-loop at node {u} is not allowed"
    elif bad_weight[k]:
        kind = "non-finite" if not math.isfinite(w) else "non-positive"
        message = f"edge ({u}, {v}) has {kind} weight {w}"
    else:
        message = f"duplicate edge ({u}, {v})"
    raise _EdgeError(message, k)


class Graph:
    """Immutable weighted digraph on dense node ids.

    Stored as ``node_count`` and three read-only arrays in edge order:
    ``src`` and ``dst`` (int64) and ``weight`` (float64).  ``edges`` builds
    the ``(source, target, weight)`` triples from them on each access.
    Duplicate edges, self-loops and weights that are not finite and positive
    are rejected: a node's retention of its own opinion is a dynamics
    parameter, not an edge.  Two graphs are equal when their node counts and
    arrays are; the hash is computed once, when the graph is made.
    """

    __slots__ = ("node_count", "src", "dst", "weight", "_hash")

    def __init__(self, node_count: int, edges):
        problem = _node_count_problem(node_count)
        if problem:
            raise ValueError(problem)
        edges = tuple(edges)
        us, vs, ws = zip(*edges, strict=True) if edges else ((), (), ())
        src, dst = _id_array(us, node_count), _id_array(vs, node_count)
        weight = np.array(ws, dtype=float)
        _check_edges(node_count, src, dst, weight, lambda k: edges[k][:2])
        self._fill(node_count, src, dst, weight)

    @classmethod
    def _from_arrays(cls, node_count: int, src, dst, weight) -> "Graph":
        """A graph on arrays that passed ``_check_edges``, with a node count already checked."""
        g = cls.__new__(cls)
        g._fill(node_count, src, dst, weight)
        return g

    def _fill(self, node_count, src, dst, weight):
        for array_ in (src, dst, weight):
            array_.flags.writeable = False
        fingerprint = (node_count, src.tobytes(), dst.tobytes(), weight.tobytes())
        object.__setattr__(self, "node_count", node_count)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "_hash", hash(fingerprint))

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """``(source, target, weight)`` triples in edge order, built on each access."""
        return tuple(zip(self.src.tolist(), self.dst.tolist(), self.weight.tolist()))

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self is other or (
            self._hash == other._hash
            and self.node_count == other.node_count
            and np.array_equal(self.src, other.src)
            and np.array_equal(self.dst, other.dst)
            and np.array_equal(self.weight, other.weight)
        )

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"Graph is immutable: cannot set {name!r}")

    def __reduce__(self):
        return Graph, (self.node_count, self.edges)

    def __repr__(self) -> str:
        return f"Graph(node_count={self.node_count}, edges={self.edges})"


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
    n, src, dst = g.node_count, g.src, g.dst
    gaps = np.abs(np.bincount(dst, weights=g.weight, minlength=n) - 1.0)
    bad = np.flatnonzero(gaps > tol)
    cut_off = np.flatnonzero(~(_reached_from_zero(n, src, dst) & _reached_from_zero(n, dst, src)))
    defects = dict(zip(bad.tolist(), gaps[bad].tolist()))
    defects |= dict.fromkeys(cut_off.tolist(), math.inf)
    return ValidationReport(not len(bad), not len(cut_off), tuple(sorted(defects.items())))


def _edge_columns(node_count: int, us: list, vs: list, ws: list, edge_lines) -> tuple:
    """Edge token strings as id and weight arrays.

    Raises:
        GraphFormatError: at the first edge line with a token ``int`` or
            ``float`` rejects.
    """
    try:
        weight = np.fromiter(map(float, ws), dtype=float, count=len(ws))
        return _id_array(us, node_count), _id_array(vs, node_count), weight
    except ValueError:
        for k, tokens in enumerate(zip(us, vs, ws)):
            try:
                int(tokens[0]), int(tokens[1]), float(tokens[2])
            except ValueError:
                raise GraphFormatError(f"bad edge tokens {list(tokens)!r}", edge_lines[k]) from None
        raise


def _in_weight_sums(dst: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Incoming weight per node, summed in edge order, up to the largest target.

    Raises:
        _EdgeError: at the first edge whose node's running sum leaves the
            float range.
    """
    sums = np.bincount(dst, weights=weight)
    if not np.isfinite(sums).all():
        running: dict[int, float] = {}
        for k in np.flatnonzero(~np.isfinite(sums[dst])).tolist():
            v = int(dst[k])
            running[v] = running.get(v, 0.0) + float(weight[k])
            if not math.isfinite(running[v]):
                raise _EdgeError(f"incoming weights of node {v} overflow to a non-finite sum", k)
    return sums


def load_graph(source, normalize: bool = False) -> Graph:
    """Parse the line-oriented edge-list format.

    ``source`` may be a string holding the whole document or any iterable of
    lines (an open file works).  Lines starting with ``#`` and blank lines are
    skipped.  The first payload line must be ``nodes <count>``; every further
    payload line must be ``edge <source> <target> <weight>``.  One pass over
    the lines collects the edge tokens as strings; they are then converted
    and checked as arrays.

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
    # Strings, unlike tuples, are not tracked by the garbage collector.
    us: list[str] = []
    vs: list[str] = []
    ws: list[str] = []
    edge_lines = array("q")
    add_u, add_v, add_w, add_line = us.append, vs.append, ws.append, edge_lines.append
    for line_no, raw in enumerate(source, start=1):
        tokens = raw.split()
        if len(tokens) == 4 and tokens[0] == "edge" and node_count is not None:
            add_u(tokens[1])
            add_v(tokens[2])
            add_w(tokens[3])
            add_line(line_no)
            continue
        if not tokens or tokens[0].startswith("#"):
            continue
        if node_count is not None:
            _edge_columns(node_count, us, vs, ws, edge_lines)  # a bad token on an earlier line wins
            raise GraphFormatError("expected 'edge <source> <target> <weight>'", line_no)
        if tokens[0] != "nodes" or len(tokens) != 2:
            raise GraphFormatError("expected 'nodes <count>' header", line_no)
        try:
            node_count = int(tokens[1])
        except ValueError:
            raise GraphFormatError(f"bad node count {tokens[1]!r}", line_no) from None
        problem = _node_count_problem(node_count)
        if problem:
            raise GraphFormatError(problem, line_no)

    if node_count is None:
        raise GraphFormatError("empty document: missing 'nodes <count>' header")

    src, dst, weight = _edge_columns(node_count, us, vs, ws, edge_lines)

    def ends(k):
        return int(us[k]), int(vs[k])

    try:
        _check_edges(node_count, src, dst, weight, ends)
        if normalize:
            # Sized by the largest target, so a huge header allocates nothing.
            weight = weight / _in_weight_sums(dst, weight)[dst]
            # Of the checks, only the weight's can newly fail: it may underflow to zero.
            _check_edges(node_count, src, dst, weight, ends, ids_checked=True)
    except _EdgeError as exc:
        raise GraphFormatError(str(exc), edge_lines[exc.index]) from None
    return Graph._from_arrays(node_count, src, dst, weight)


def dump_graph(g: Graph) -> str:
    """Serialize a graph to the edge-list format accepted by ``load_graph``.

    Weights are written with 12 significant digits, which round-trips well
    inside the validation tolerance.
    """
    lines = [f"nodes {g.node_count}"]
    for u, v, w in zip(g.src.tolist(), g.dst.tolist(), g.weight.tolist()):
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
