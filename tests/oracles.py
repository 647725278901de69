"""Independent reference computations used to check the library from outside.

Everything here is built straight from a graph's edge list with plain numpy,
on purpose sharing no code with the package: the mixing operator is assembled
entry by entry, the stationary weights come from a dense least-squares solve
instead of power iteration, and payoffs come from an explicit simulation of
the averaging recurrence.  ``random_graph_edges_oracle`` is the random
generator written the plain quadratic way, to pin the package's faster one.
"""

from __future__ import annotations

import numpy as np


def build_mixing(g, alpha: float) -> np.ndarray:
    """Dense mixing operator assembled directly from the edge list."""
    n = g.node_count
    gamma = (1.0 - alpha) * np.eye(n)
    for u, v, w in g.edges:
        gamma[v, u] += alpha * w
    return gamma


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
    import itertools

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
