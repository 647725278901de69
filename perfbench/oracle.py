"""Reference computations that check the library from outside.

Built from edge lists with numpy and scipy alone and sharing no code with
``netinfluence``: the mixing operator is assembled from edge arrays, payoffs
come from explicitly simulating the averaging recurrence (batched over many
seed sets at once where a check scores many), and stationary weights come
from a dense least-squares solve on small graphs.  Large graphs' stationary
weights are checked by their fixed-point residual against the independently
assembled operator.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy import sparse

PAYOFF_TOL = 1e-10
SUM_TOL = 1e-9
RESIDUAL_TOL = 1e-10
GREEDY_FACTOR = 1.0 - 1.0 / np.e


def edge_arrays(edges):
    """``(src, dst, weight)`` arrays from a sequence of ``(u, v, w)`` triples."""
    arr = np.asarray(edges, dtype=float).reshape(-1, 3)
    return arr[:, 0].astype(np.int64), arr[:, 1].astype(np.int64), arr[:, 2]


def mixing(n: int, src, dst, weight, alpha: float) -> sparse.csr_matrix:
    """``(1 - alpha) I + alpha W`` with entry ``(v, u) = alpha * w(u, v)``."""
    rows = np.concatenate([dst, np.arange(n)])
    cols = np.concatenate([src, np.arange(n)])
    data = np.concatenate([alpha * np.asarray(weight, dtype=float), np.full(n, 1.0 - alpha)])
    return sparse.csr_matrix((data, (rows, cols)), shape=(n, n))


def initial(n: int, seed_sets, epsilon: float) -> np.ndarray:
    """Opinion matrix at time 0: seeded nodes split one unit among their seeders."""
    x = np.zeros((n, len(seed_sets)))
    for i, s in enumerate(seed_sets):
        x[list(s), i] = 1.0
    held = x.sum(axis=1)
    x[held > 0] /= held[held > 0, None]
    x[held == 0] = epsilon
    return x


def simulate(gamma, seed_sets, epsilon: float, horizon: int) -> np.ndarray:
    """Payoffs after ``horizon`` averaging steps: mean relative opinion share."""
    x = initial(gamma.shape[0], seed_sets, epsilon)
    for _ in range(horizon):
        x = gamma @ x
    return (x / x.sum(axis=1, keepdims=True)).mean(axis=0)


def simulate_batch(gamma, profiles, epsilon: float, horizon: int) -> np.ndarray:
    """Payoffs of many profiles at once, shape ``(len(profiles), m)``."""
    dense = gamma.toarray() if sparse.issparse(gamma) else np.asarray(gamma)
    x = np.stack([initial(dense.shape[0], p, epsilon) for p in profiles])
    for _ in range(horizon):
        x = np.einsum("vu,pum->pvm", dense, x)
    return (x / x.sum(axis=2, keepdims=True)).mean(axis=1)


def stationary(gamma) -> np.ndarray:
    """Left fixed point ``c = c @ gamma`` with ``sum(c) = 1``, by a dense solve.

    Solves ``(gamma^T - I) c = 0`` together with ``sum(c) = 1`` by least
    squares, exact to machine precision at the sizes it is used for.
    """
    n = gamma.shape[0]
    dense = gamma.toarray() if sparse.issparse(gamma) else np.asarray(gamma)
    system = np.vstack([dense.T - np.eye(n), np.ones(n)])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    return np.linalg.lstsq(system, rhs, rcond=None)[0]


def residual(gamma, c) -> float:
    """Max-norm fixed-point residual ``|c @ gamma - c|``."""
    return float(np.max(np.abs(gamma.T @ c - c)))


def stationary_payoffs(c, seed_sets, epsilon: float) -> np.ndarray:
    strengths = c @ initial(c.size, seed_sets, epsilon)
    return strengths / strengths.sum()


def check_weights(gamma, weights) -> list[str]:
    """Stationary weights: positive, unit sum, fixed point of the operator."""
    problems = []
    w = np.asarray(weights, dtype=float)
    if w.shape != (gamma.shape[0],):
        return [f"weight vector has shape {w.shape}, expected ({gamma.shape[0]},)"]
    if not np.all(w > 0):
        problems.append("a stationary weight is not positive")
    if abs(w.sum() - 1.0) > SUM_TOL:
        problems.append(f"stationary weights sum to {w.sum()!r}")
    r = residual(gamma, w)
    if not r <= RESIDUAL_TOL:
        problems.append(f"stationary fixed-point residual {r:.3e} above {RESIDUAL_TOL:g}")
    return problems


def check_payoffs(got, expected, label: str) -> list[str]:
    """A payoff vector sums to one and matches the reference."""
    got = np.asarray(got, dtype=float)
    if got.shape != np.shape(expected):
        return [f"{label}: payoff vector has shape {got.shape}, expected {np.shape(expected)}"]
    problems = []
    if abs(got.sum() - 1.0) > SUM_TOL:
        problems.append(f"{label}: payoffs sum to {got.sum()!r}")
    gap = float(np.max(np.abs(got - expected)))
    if not gap <= PAYOFF_TOL:
        problems.append(f"{label}: payoffs differ from the reference by {gap:.3e}")
    return problems


def pure_equilibria(gamma, budgets, epsilon: float, horizon: int, tol: float = 1e-12) -> int:
    """Number of pure equilibria of a two-player game, by scoring every profile."""
    n = gamma.shape[0]
    if len(budgets) != 2:
        raise ValueError("the reference enumeration covers two players")
    options = [list(itertools.combinations(range(n), b)) for b in budgets]
    profiles = [(a, b) for a in options[0] for b in options[1]]
    pay = simulate_batch(gamma, profiles, epsilon, horizon)
    pay = pay.reshape(len(options[0]), len(options[1]), 2)
    stable0 = pay[..., 0] >= pay[..., 0].max(axis=0, keepdims=True) - tol
    stable1 = pay[..., 1] >= pay[..., 1].max(axis=1, keepdims=True) - tol
    return int(np.count_nonzero(stable0 & stable1))


def random_subsets(rng, n: int, k: int, count: int) -> list[tuple[int, ...]]:
    """``count`` random ``k``-subsets of ``range(n)``, as sorted tuples."""
    return [tuple(sorted(int(v) for v in rng.choice(n, size=k, replace=False)))
            for _ in range(count)]
