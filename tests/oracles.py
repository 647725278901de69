"""Independent reference computations used to check the library from outside.

Everything here is built straight from a graph's edge list with plain numpy,
on purpose sharing no code with the package: the mixing operator is assembled
entry by entry, the stationary weights come from a dense least-squares or linear
solve instead of power iteration, and payoffs come from an explicit simulation of
the averaging recurrence.  ``random_graph_edges_oracle`` is the random
generator written the plain quadratic way, and ``counterexample_edges_oracle``
builds the ring-with-petals graph as Python edge tuples; they pin the
package's array-built generators.
``validate_oracle`` checks a graph with adjacency lists and two graph searches.
``load_graph_oracle`` parses an edge list one line and one edge at a time, the
way the package did before it stored graphs as arrays.
``scan_best_oracle``, ``consensus_best_oracle``, ``greedy_oracle``, ``dynamics_oracle`` and
``exhaustive_nash_oracle`` are the exceptions: they are the solver loops that
score one candidate or one profile per ``table_payoffs`` call, kept to pin the
batched scoring kernel, the sorting consensus responder, the support-scoring
greedy and the dynamics' reuse of repeated responses to them.
"""

from __future__ import annotations

import itertools
import math
from array import array

import numpy as np

from netinfluence.game import assemble_profile, payoff_table, table_payoffs
from netinfluence.graph import STOCHASTIC_TOL, GraphFormatError, ValidationReport
from netinfluence.solver import IMPROVEMENT_TOL


def build_mixing(g, alpha: float) -> np.ndarray:
    """Dense mixing operator assembled directly from the edge list."""
    n = g.node_count
    gamma = (1.0 - alpha) * np.eye(n)
    for u, v, w in g.edges:
        gamma[v, u] += alpha * w
    return gamma


def _reachable(adjacency, start):
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for nxt in adjacency[node]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def validate_oracle(g, tol: float = STOCHASTIC_TOL) -> ValidationReport:
    """``validate`` by per-node weight sums in edge order and searches from node 0 both ways."""
    n = g.node_count
    out_adj = [[] for _ in range(n)]
    in_adj = [[] for _ in range(n)]
    sums = np.zeros(n)
    for u, v, w in g.edges:
        out_adj[u].append(v)
        in_adj[v].append(u)
        sums[v] += w

    defects = {}
    for v in range(n):
        gap = abs(sums[v] - 1.0)
        if gap > tol:
            defects[v] = gap
    stochastic = not defects

    everyone = set(range(n))
    cut_off = (everyone - _reachable(out_adj, 0)) | (everyone - _reachable(in_adj, 0))
    for v in cut_off:
        defects[v] = math.inf
    return ValidationReport(stochastic, not cut_off, tuple(sorted(defects.items())))


class _EdgeOracleError(ValueError):
    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def _check_edges_oracle(node_count, edges):
    """``Graph``'s edge checks, one edge at a time: the first bad edge raises."""
    seen = set()
    for k, (u, v, w) in enumerate(edges):
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise _EdgeOracleError(f"edge ({u}, {v}) references an unknown node id", k)
        if u == v:
            raise _EdgeOracleError(f"self-loop at node {u} is not allowed", k)
        if not 0 < w < math.inf:
            kind = "non-finite" if not math.isfinite(w) else "non-positive"
            raise _EdgeOracleError(f"edge ({u}, {v}) has {kind} weight {w}", k)
        if (u, v) in seen:
            raise _EdgeOracleError(f"duplicate edge ({u}, {v})", k)
        seen.add((u, v))


def load_graph_oracle(source, normalize: bool = False):
    """``(node_count, edges)`` of ``load_graph(source, normalize)``, parsed line by line.

    Raises the same ``GraphFormatError`` messages at the same lines.
    """
    if isinstance(source, str):
        source = source.splitlines()
    node_count = None
    edges = []
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
        _check_edges_oracle(node_count, edges)
        if normalize:
            sums = {}
            for k, (_, v, w) in enumerate(edges):
                sums[v] = sums.get(v, 0.0) + w
                if not math.isfinite(sums[v]):
                    raise _EdgeOracleError(
                        f"incoming weights of node {v} overflow to a non-finite sum", k
                    )
            edges = [(u, v, w / sums[v]) for u, v, w in edges]
            _check_edges_oracle(node_count, edges)
    except _EdgeOracleError as exc:
        raise GraphFormatError(str(exc), edge_lines[exc.index]) from None
    return node_count, tuple(edges)


def stationary_oracle(g, alpha: float) -> np.ndarray:
    """Stationary weights via a dense linear solve of the fixed-point system.

    Solves ``(gamma^T - I) c = 0`` together with ``sum(c) = 1`` by
    least squares, which is exact to machine precision for these sizes.
    """
    gamma = build_mixing(g, alpha)
    n = g.node_count
    system = np.vstack([gamma.T - np.eye(n), np.ones(n)])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    c, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    return c


def stationary_solve_oracle(g, alpha: float) -> np.ndarray:
    """Stationary weights via ``np.linalg.solve``.

    The fixed-point system ``(gamma^T - I) c = 0`` with its last equation
    replaced by ``sum(c) = 1``; its error does not grow as ``alpha`` shrinks.
    """
    n = g.node_count
    system = build_mixing(g, alpha).T  # a view: no second n x n array
    system[np.diag_indices(n)] -= 1.0
    system[-1] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    return np.linalg.solve(system, rhs)


def initial_opinions_oracle(g, seed_sets, epsilon: float) -> np.ndarray:
    """Initial opinion matrix built directly from the seeding rule."""
    n = g.node_count
    m = len(seed_sets)
    x = np.full((n, m), epsilon)
    for v in range(n):
        holders = [i for i, s in enumerate(seed_sets) if v in s]
        if holders:
            x[v, :] = 0.0
            for i in holders:
                x[v, i] = 1.0 / len(holders)
    return x


def payoffs_oracle(g, alpha: float, epsilon: float, horizon: int, seed_sets) -> np.ndarray:
    """Payoffs by explicit simulation of the averaging recurrence."""
    gamma = build_mixing(g, alpha)
    x = initial_opinions_oracle(g, seed_sets, epsilon)
    for _ in range(horizon):
        x = gamma @ x
    shares = x / x.sum(axis=1, keepdims=True)
    return shares.mean(axis=0)


def singleton_equilibria_oracle(g, alpha, epsilon, horizon, m):
    """All pure equilibria of the budget-one game by direct enumeration.

    Brute force over every assignment of one seed per player, checking every
    single-node deviation with the simulated payoffs above.
    """
    n = g.node_count
    equilibria = []
    for assignment in itertools.product(range(n), repeat=m):
        sets = [frozenset([v]) for v in assignment]
        base = payoffs_oracle(g, alpha, epsilon, horizon, sets)
        stable = True
        for i in range(m):
            for dv in range(n):
                if dv == assignment[i]:
                    continue
                trial = list(sets)
                trial[i] = frozenset([dv])
                if payoffs_oracle(g, alpha, epsilon, horizon, trial)[i] > base[i] + 1e-12:
                    stable = False
                    break
            if not stable:
                break
        if stable:
            equilibria.append(tuple(sets))
    return equilibria


def random_graph_edges_oracle(n: int, out_degree: int, seed: int):
    """Edge list of ``random_graph(n, out_degree, seed)``, drawn the plain way.

    Same random draws in the same order as the package's generator, but each
    node's extra targets are picked from an explicitly built sorted list of
    the allowed ids, which costs O(n) per node.
    """
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    targets = [set() for _ in range(n)]
    for k in range(n):
        targets[order[k]].add(int(order[(k + 1) % n]))
    for u in range(n):
        missing = out_degree - len(targets[u])
        if missing > 0:
            allowed = sorted(set(range(n)) - {u} - targets[u])
            picked = rng.choice(len(allowed), size=missing, replace=False)
            targets[u].update(allowed[j] for j in picked)
    raw = {}
    for u in range(n):
        for v in sorted(targets[u]):
            raw[(u, v)] = rng.uniform(0.5, 1.5)
    sums = np.zeros(n)
    for (_, v), w in raw.items():
        sums[v] += w
    return tuple((u, v, float(w / sums[v])) for (u, v), w in sorted(raw.items()))


def counterexample_edges_oracle(m: int, b: int):
    """``(node_count, edges)`` of ``build_counterexample(m, b)``, built as sorted edge tuples."""
    mu = m * (b + 1) + 1
    pairs = [(i, (i + k) % mu) for i in range(mu) for k in range(1, b + 1)]
    for i in range(mu):
        left, right = mu + 2 * i, mu + 2 * i + 1
        pairs.extend([(i, left), (i, right), (left, right), (right, i)])
    in_degree = np.zeros(3 * mu, dtype=int)
    for _, v in pairs:
        in_degree[v] += 1
    return 3 * mu, tuple((u, v, 1.0 / int(in_degree[v])) for u, v in sorted(pairs))


def scan_best_oracle(table, i, others, epsilon, blocks):
    """``solver._scan_best`` with one ``table_payoffs`` call per candidate; earliest wins ties.

    ``blocks`` are ``C x b`` arrays of node ids; their rows are flattened into tuples in order.
    """
    best_pay = -math.inf
    best = None
    total = 0
    for cand in (tuple(row) for nodes in blocks for row in nodes.tolist()):
        pay = table_payoffs(table, assemble_profile(i, cand, others), epsilon)[i]
        total += 1
        if pay > best_pay + IMPROVEMENT_TOL:
            best_pay, best = pay, cand
    return best_pay, best, total


def greedy_oracle(table, i, others, epsilon, b):
    """``solver.greedy_best_response``'s payoff, seed set and evaluations: each step scores
    every free node added to the chosen ones by ``scan_best_oracle``, lowest id winning ties."""
    chosen, evaluations = (), 0
    for _ in range(b):
        free = [v for v in range(table.shape[1]) if v not in chosen]
        nodes = np.array([chosen + (v,) for v in free], dtype=np.intp)
        payoff, chosen, count = scan_best_oracle(table, i, others, epsilon, [nodes])
        evaluations += count
    return payoff, chosen, evaluations


def consensus_best_oracle(table, i, others, epsilon, b):
    """``solver._consensus_best`` by ``scan_best_oracle`` over every ``b``-set, in lexicographic order."""
    combos = np.array(list(itertools.combinations(range(table.shape[1]), b)), dtype=np.intp)
    return scan_best_oracle(table, i, others, epsilon, [combos])


def exhaustive_nash_oracle(cfg, regime: str = "horizon"):
    """Canonical forms of ``exhaustive_nash_check``'s equilibria, one ``table_payoffs`` call per profile."""
    options = [
        list(itertools.combinations(range(cfg.n), min(b, cfg.n))) for b in cfg.budgets
    ]
    shape = tuple(len(o) for o in options)
    table = payoff_table(cfg, regime)
    payoffs = np.empty(shape + (cfg.m,))
    for idx in itertools.product(*(range(k) for k in shape)):
        sets = tuple(frozenset(options[j][idx[j]]) for j in range(cfg.m))
        payoffs[idx] = table_payoffs(table, sets, cfg.epsilon)

    stable = np.ones(shape, dtype=bool)
    for j in range(cfg.m):
        per_player = payoffs[..., j]
        stable &= per_player >= per_player.max(axis=j, keepdims=True) - IMPROVEMENT_TOL
    return [tuple(options[j][int(idx[j])] for j in range(cfg.m)) for idx in np.argwhere(stable)]


def dynamics_oracle(cfg, initial, max_rounds: int = 100, use_exact: bool = True, regime: str = "horizon"):
    """``solver.best_response_dynamics`` as ``(kind, canonical profile, moves, rounds)``, every move a
    ``(player, old, new, delta)`` tuple: each query answered afresh, with no memo, by ``scan_best_oracle``
    over every full-budget set (``greedy_oracle`` with ``use_exact`` off)."""
    table = payoff_table(cfg, regime)
    strategies = [frozenset(s) for s in initial]
    seen, trace, kind = set(), [], "max_rounds_exhausted"
    for rounds in range(1, max_rounds + 1):
        seen.add(tuple(strategies))
        changed = False
        for i in range(cfg.m):
            others = [s for j, s in enumerate(strategies) if j != i]
            b = min(cfg.budgets[i], cfg.n)
            if use_exact:
                combos = np.array(list(itertools.combinations(range(cfg.n), b)), dtype=np.intp)
                pay, best, _ = scan_best_oracle(table, i, others, cfg.epsilon, [combos])
            else:
                pay, best, _ = greedy_oracle(table, i, others, cfg.epsilon, b)
            current = table_payoffs(table, tuple(strategies), cfg.epsilon)[i]
            if pay > current + IMPROVEMENT_TOL:
                trace.append((i, strategies[i], frozenset(best), float(pay - current)))
                strategies[i] = frozenset(best)
                changed = True
        if not changed:
            kind = "equilibrium"
            break
        if tuple(strategies) in seen:
            kind = "cycle_detected"
            break
    return kind, tuple(tuple(sorted(s)) for s in strategies), trace, rounds
