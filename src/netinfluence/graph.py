"""Weighted digraphs with unit incoming weight: parsing, validation, generators.

The model convention throughout the package is that edge weights are positive
and the weights *entering* each node sum to one, so that a node's in-neighbors
describe how it blends the opinions around it.  Graphs are immutable; node ids
are dense integers ``0 .. node_count - 1``.
"""

from __future__ import annotations

import math
import operator
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice

import numpy as np

STOCHASTIC_TOL = 1e-9
_MAX_NODE_COUNT = int(np.iinfo(np.int64).max)
_CHUNK_LINES = 16384  # lines read, or edges converted, at a time
_FRONTIER_LEVELS = 64  # frontier rounds _reached_from_zero takes before counting them against nodes reached
_FRONTIER_MIN_NODES = 300  # below this, a node-by-node walk beats a round's fixed numpy calls
# An edge line as numpy's C line reader stores it; a longer keyword keeps a fifth character.
_EDGE_ROW = np.dtype([("keyword", "U5"), ("src", np.int64), ("dst", np.int64), ("weight", np.float64)])


class _LineError(ValueError):
    """A document that cannot be parsed; ``line`` is the one-based number of the offending line, or None."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class GraphFormatError(_LineError):
    """Raised when an edge-list document cannot be parsed."""


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
    """Node ids (integers: what ``operator.index`` takes) as int64.

    Ids outside int64 are stored as -1 or ``node_count``, which are out of
    range just as they are.  Any other id is a TypeError.
    """
    try:
        return np.fromiter(map(operator.index, ids), dtype=np.int64, count=len(ids))
    except OverflowError:
        clipped = (min(max(operator.index(x), -1), node_count) for x in ids)
        return np.fromiter(clipped, dtype=np.int64, count=len(ids))


def _weight(u, v, w) -> float:
    """Edge ``(u, v)``'s weight ``w`` as a float, if ``float`` takes it and it is not text; else a ValueError."""
    try:
        if not isinstance(w, (str, bytes, bytearray)):
            return float(w)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"edge ({u}, {v}) has a non-numeric weight {w!r}")


def seed_set(i: int, seeds) -> frozenset[int]:
    """Player ``i``'s seed ids as a frozenset; an id listed twice is a ValueError, not a double weight."""
    seeds = list(seeds)
    unique = frozenset(seeds)
    if len(unique) != len(seeds):
        raise ValueError(f"player {i} lists a seed node more than once")
    return unique


def _integer(value, what: str) -> int:
    """``operator.index(value)``: ints and numpy integers pass, anything else is a ValueError ``<what> <value!r>``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r}") from None


def _count(value, what: str, least: int = 0) -> int:
    """``value`` as an integer (``_integer``) of at least ``least``, 0 or 1; else a ValueError naming ``what``."""
    value = _integer(value, f"non-integer {what}")
    if value < least:
        raise ValueError(f"{what} must be {'at least one' if least else 'non-negative'}")
    return value


def _tolerance(tol: float, what: str = "tol") -> float:
    """``tol`` when positive and finite, else a ValueError ``<what> must be positive and finite``."""
    if not 0 < tol < math.inf:
        raise ValueError(f"{what} must be positive and finite, got {tol!r}")
    return tol


def check_seed_ids(n: int, i: int, seeds) -> None:
    """Raise ValueError at player ``i``'s first seed id not an integer (``_integer``) in ``0 .. n - 1``."""
    non_integer = f"player {i} seeds non-integer node id"
    for v in seeds:
        if not 0 <= _integer(v, non_integer) < n:
            raise ValueError(f"player {i} seeds unknown node id {v}")


def _repeats(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Mask of the edges whose (source, target) pair an earlier edge already has.

    Strictly increasing pairs, as dumped and generated graphs have, skip the sort."""
    repeat = np.zeros(src.size, dtype=bool)
    if ((src[1:] > src[:-1]) | ((src[1:] == src[:-1]) & (dst[1:] > dst[:-1]))).all():
        return repeat
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


@dataclass(frozen=True, eq=False, repr=False)
class EdgeView(Sequence):
    """A graph's ``(source, target, weight)`` triples from its ``_columns``: O(1) ``len``; Python ``int, int,
    float`` by index, a tuple of triples by slice, ``_CHUNK_LINES`` at a time by iteration, the float ``E x 3``
    array by ``np.asarray``.  Equal to any sequence of the same triples; reprs and pickles as their tuple."""

    _columns: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __len__(self) -> int:
        return self._columns[0].size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(zip(*(column[index].tolist() for column in self._columns)))
        return tuple(column[operator.index(index)].item() for column in self._columns)

    def __iter__(self):
        for first in range(0, len(self), _CHUNK_LINES):
            yield from zip(*(column[first : first + _CHUNK_LINES].tolist() for column in self._columns))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("a graph's edges are stored as columns: their E x 3 array is a copy")
        return np.column_stack(self._columns).astype(dtype or float, copy=False)

    def __eq__(self, other):
        if isinstance(other, EdgeView):
            return all(map(np.array_equal, self._columns, other._columns))
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __reduce__(self):
        return tuple, (tuple(self),)

    def __repr__(self) -> str:
        return repr(tuple(self))


class Graph:
    """Immutable weighted digraph on dense node ids.

    Stored as ``node_count`` and three read-only arrays in edge order:
    ``src`` and ``dst`` (int64) and ``weight`` (float64), and ``edges``, an
    ``EdgeView`` of the ``(source, target, weight)`` triples they hold.
    The node count and ids are integers (what ``operator.index`` takes), and
    weights are numbers (what ``float`` takes, bar text).
    Duplicate edges, self-loops and weights that are not finite and positive
    are rejected: a node's retention of its own opinion is a dynamics
    parameter, not an edge.  Two graphs are equal when their node counts and
    arrays are; the hash is computed once, when the graph is made.
    """

    __slots__ = ("node_count", "src", "dst", "weight", "edges", "_hash")

    def __init__(self, node_count: int, edges):
        node_count = _integer(node_count, "non-integer node count")
        problem = _node_count_problem(node_count)
        if problem:
            raise ValueError(problem)
        edges = tuple(edges)
        us, vs, ws = zip(*edges, strict=True) if edges else ((), (), ())
        try:
            src, dst = _id_array(us, node_count), _id_array(vs, node_count)
        except TypeError:
            for u, v in zip(us, vs):
                try:
                    operator.index(u), operator.index(v)
                except TypeError:
                    raise ValueError(f"edge ({u!r}, {v!r}) has a non-integer node id") from None
            raise
        weight = np.fromiter(map(_weight, us, vs, ws), dtype=float, count=len(ws))
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
        object.__setattr__(self, "edges", EdgeView((src, dst, weight)))
        object.__setattr__(self, "_hash", hash(fingerprint))

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self is other or (
            self._hash == other._hash and self.node_count == other.node_count and self.edges == other.edges
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


def _spans(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Positions ``starts[k] .. starts[k] + sizes[k] - 1`` for every ``k``, in one array."""
    return np.repeat(starts - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())


def _reached_from_zero(n: int, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """Mask of the nodes reachable from node 0 along the edges ``heads[k] -> tails[k]``.

    From ``_FRONTIER_MIN_NODES`` nodes up, expands whole frontiers while the
    rounds stay within ``_FRONTIER_LEVELS`` plus one per 64 nodes reached,
    then walks on from the last node by node.
    """
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(heads, minlength=n), out=indptr[1:])
    targets = tails[np.argsort(heads)]
    reached, slot = np.zeros(n, dtype=bool), np.empty(n, dtype=np.intp)
    reached[0] = True
    frontier, rounds, count = np.zeros(1, dtype=np.intp), 0, 1
    while n >= _FRONTIER_MIN_NODES and frontier.size and rounds <= _FRONTIER_LEVELS + count // 64:
        nxt = targets[_spans(indptr[frontier], indptr[frontier + 1] - indptr[frontier])]
        nxt = nxt[~reached[nxt]]
        # Keep one copy of each node: the one whose position its slot ends up holding.
        slot[nxt] = position = np.arange(nxt.size)
        frontier = nxt[slot[nxt] == position]
        reached[frontier] = True
        rounds, count = rounds + 1, count + frontier.size
    if not frontier.size:
        return reached
    indptr, targets, reached, stack = indptr.tolist(), memoryview(targets), bytearray(reached), frontier.tolist()
    while stack:
        node = stack.pop()
        for nxt in targets[indptr[node] : indptr[node + 1]]:
            if not reached[nxt]:
                reached[nxt] = 1
                stack.append(nxt)
    return np.frombuffer(reached, dtype=bool)


def validate(g: Graph) -> ValidationReport:
    """Check unit incoming weight per node and strong connectivity.

    Incoming weights are summed per node in edge order, and each sum may
    miss one by at most ``STOCHASTIC_TOL``.  A node breaks strong
    connectivity when it is unreachable from node 0 or cannot reach it; each
    search costs at most a node-by-node walk plus O(n / 64) array rounds.
    """
    n, src, dst = g.node_count, g.src, g.dst
    gaps = np.abs(np.bincount(dst, weights=g.weight, minlength=n) - 1.0)
    bad = np.flatnonzero(gaps > STOCHASTIC_TOL)
    cut_off = np.flatnonzero(~(_reached_from_zero(n, src, dst) & _reached_from_zero(n, dst, src)))
    defects = dict(zip(bad.tolist(), gaps[bad].tolist()))
    defects |= dict.fromkeys(cut_off.tolist(), math.inf)
    return ValidationReport(not len(bad), not len(cut_off), tuple(sorted(defects.items())))


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


def _plain_columns(chunk: list, first: int) -> tuple | None:
    """``_chunk_columns`` of a non-empty chunk of plain edge lines, by numpy's C line reader; else None.

    ``loadtxt`` rejects comments, other token counts, ``1_0`` and ids beyond int64, and skips
    blank lines, which the row count shows.  A chunk opening with another line could hold no
    data, on which ``loadtxt`` warns; a NUL would vanish from the end of the keyword field.
    """
    if not chunk[0].startswith("edge") or "\0" in "".join(chunk):
        return None
    try:
        rows = np.loadtxt(chunk, dtype=_EDGE_ROW, comments=None, ndmin=1)
    except ValueError:
        return None
    if len(rows) != len(chunk) or (rows["keyword"] != "edge").any():
        return None
    lines = np.arange(first, first + len(chunk), dtype=np.int64)
    return rows["src"].copy(), rows["dst"].copy(), rows["weight"].copy(), lines  # copies free the records


def _chunk_columns(chunk: list, first: int, node_count: int, written: dict) -> tuple:
    """Edge arrays and line numbers of the lines ``chunk``, numbered from ``first``, converted line by line.

    Ids beyond int64 are stored as -1 or ``node_count``; the document's first such edge, the only one
    that can be the first bad edge, keeps its ids as written in ``written[line]``, for the message.
    """
    ids, weight, lines = array("q"), array("d"), array("q")
    for line_no, raw in enumerate(chunk, start=first):
        row = raw.split()
        if len(row) == 4 and row[0] == "edge":
            try:
                u, v, w = int(row[1]), int(row[2]), float(row[3])
                ids.append(u)
                ids.append(v)
            except ValueError:
                raise GraphFormatError(f"bad edge tokens {row[1:]!r}", line_no) from None
            except OverflowError:  # an id beyond int64, out of range all the same
                ids[2 * len(lines) :] = array("q", [min(max(x, -1), node_count) for x in (u, v)])
                if not written:
                    written[line_no] = u, v
            weight.append(w)
            lines.append(line_no)
        elif row and not row[0].startswith("#"):
            raise GraphFormatError("expected 'edge <source> <target> <weight>'", line_no)
    ends = np.frombuffer(ids, dtype=np.int64)
    return ends[0::2].copy(), ends[1::2].copy(), np.array(weight, dtype=float), np.array(lines, dtype=np.int64)


def load_graph(source, normalize: bool = False) -> Graph:
    """Parse the line-oriented edge-list format.

    ``source`` may be a string holding the whole document or any iterable of
    lines (an open file works).  Lines starting with ``#`` and blank lines are
    skipped.  The first payload line must be ``nodes <count>``; every further
    payload line must be ``edge <source> <target> <weight>``.  The lines after
    the header are read by numpy's C line reader (``np.loadtxt``),
    ``_CHUNK_LINES`` at a time; a chunk with a comment, a blank line or a
    token numpy reads differently from ``int`` or ``float`` is converted
    line by line instead.  Each chunk becomes arrays before the next is
    read, so one chunk's strings are alive at a time.  The arrays are then
    checked as a whole.

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
    lines = iter(source)
    for line_no, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0] != "nodes" or len(tokens) != 2:
            raise GraphFormatError("expected 'nodes <count>' header", line_no)
        try:
            node_count = int(tokens[1])
        except ValueError:
            raise GraphFormatError(f"bad node count {tokens[1]!r}", line_no) from None
        problem = _node_count_problem(node_count)
        if problem:
            raise GraphFormatError(problem, line_no)
        break
    else:
        raise GraphFormatError("empty document: missing 'nodes <count>' header")

    written: dict = {}
    parts = [_chunk_columns([], 0, node_count, written)]  # so that no chunk still gives typed arrays
    while chunk := list(islice(lines, _CHUNK_LINES)):
        parts.append(_plain_columns(chunk, line_no + 1) or _chunk_columns(chunk, line_no + 1, node_count, written))
        line_no += len(chunk)
    src, dst, weight, edge_lines = map(np.concatenate, zip(*parts))
    del parts

    def ends(k):
        return written.get(int(edge_lines[k])) or (int(src[k]), int(dst[k]))

    try:
        _check_edges(node_count, src, dst, weight, ends)
        if normalize:
            # Sized by the largest target, so a huge header allocates nothing.
            weight = weight / _in_weight_sums(dst, weight)[dst]
            # Of the checks, only the weight's can newly fail: it may underflow to zero.
            _check_edges(node_count, src, dst, weight, ends, ids_checked=True)
    except _EdgeError as exc:
        raise GraphFormatError(str(exc), int(edge_lines[exc.index])) from None
    return Graph._from_arrays(node_count, src, dst, weight)


def dump_graph(g: Graph) -> str:
    """Serialize a graph to the edge-list format accepted by ``load_graph``.

    Weights are written with 12 significant digits, which round-trips well
    inside the validation tolerance.  Edges are formatted ``_CHUNK_LINES`` at a time.
    """
    blocks = ([c[k : k + _CHUNK_LINES].tolist() for c in g.edges._columns] for k in range(0, g.src.size, _CHUNK_LINES))
    lines = ("".join(map("edge {} {} {:#.12g}\n".format, *block)) for block in blocks)
    return "".join([f"nodes {g.node_count}\n", *lines])


def _generated(n: int, src: np.ndarray, dst: np.ndarray, raw: np.ndarray) -> Graph:
    """A generated graph: edges sorted by (source, target), raw weights scaled to unit incoming sums."""
    order = np.lexsort((dst, src))
    src, dst, raw = src[order], dst[order], raw[order]
    weight = raw / np.bincount(dst, weights=raw, minlength=n)[dst]
    _check_edges(n, src, dst, weight, lambda k: (int(src[k]), int(dst[k])))
    return Graph._from_arrays(n, src, dst, weight)


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
    m, b = _integer(m, "non-integer player count"), _integer(b, "non-integer budget")
    if m < 2:
        raise ValueError("construction needs at least two players")
    if b < 1:
        raise ValueError("construction needs budget at least one")
    mu = m * (b + 1) + 1
    ring = np.arange(mu, dtype=np.int64)
    left, chord = mu + 2 * ring, np.repeat(ring, b)
    src = np.concatenate([chord, ring, ring, left, left + 1])
    dst = np.concatenate([(chord + np.tile(np.arange(1, b + 1), mu)) % mu, left, left + 1, left + 1, ring])
    return _generated(3 * mu, src, dst, np.ones(src.size))


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
        seed: seed for the random number generator (at least 0).
    """
    n, out_degree = _integer(n, "non-integer node count"), _integer(out_degree, "non-integer out_degree")
    seed = _count(seed, "seed")
    if n < 2:
        raise ValueError("need at least two nodes")
    if not 1 <= out_degree < n:
        raise ValueError("out_degree must lie in [1, n - 1]")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    succ = np.empty(n, dtype=np.int64)
    succ[order] = np.roll(order, -1)
    # Extra targets: positions among the ids other than the node and its ring
    # successor, drawn node by node, then shifted past those two ids.
    picked = np.stack([rng.choice(n - 2, size=out_degree - 1, replace=False) for _ in range(n)])
    for end in np.sort([np.arange(n), succ], axis=0):
        picked += picked >= end[:, None]
    dst = np.sort(np.column_stack([succ, picked]), axis=1).ravel()
    src = np.repeat(np.arange(n, dtype=np.int64), out_degree)
    return _generated(n, src, dst, rng.uniform(0.5, 1.5, dst.size))
