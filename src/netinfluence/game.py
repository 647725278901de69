"""The seeding game: configurations, strategy profiles, and payoff routes.

Each of ``m`` players plants their opinion at a budgeted set of seed nodes;
opinions then mix for a fixed horizon and a player's payoff is the population
average of the relative opinion toward them.  Payoffs can be obtained three
ways that agree to numerical precision: direct simulation, a closed form over
the horizon influence table, and the stationary-regime shortcut via the
consensus weights.  All three apply an influence operator to the same initial
opinion matrix and read the same relative shares off the result.  The game is
constant-sum: payoffs always total one.  Searches over it, and the batched
kernel that scores their candidate seed sets, are in ``solver``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import wraps
from typing import TYPE_CHECKING, Iterable

import numpy as np

from . import dynamics
from .dynamics import (
    OpinionState,
    diffusion_centrality_matrix,
    eigenvector_weights,
    evolve,
    influence_matrix,
    seeded_opinions,
)
from .graph import Graph, _count, _integer, check_seed_ids, seed_set

if TYPE_CHECKING:
    from scipy import sparse as _sparse


@dataclass(frozen=True)
class GameConfig:
    """Everything that pins down one game instance.

    ``budgets`` gives each player's maximum seed-set size (player count is its
    length) and ``horizon`` the number of mixing steps before payoffs are read,
    all integers; ``epsilon`` is the background opinion implanted in unseeded
    nodes and must stay below ``1 / (2m)`` so it never rivals a real seed.
    """

    graph: Graph
    budgets: tuple[int, ...]
    horizon: int
    alpha: float = 0.5
    epsilon: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "budgets", tuple(_integer(b, "non-integer budget") for b in self.budgets))
        object.__setattr__(self, "horizon", _integer(self.horizon, "non-integer horizon"))
        if len(self.budgets) < 2:
            raise ValueError("need at least two players")
        if any(b < 1 for b in self.budgets):
            raise ValueError("every budget must be at least one")
        _count(self.horizon, "horizon", 1)
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if not 0 < self.epsilon < 1.0 / (2 * self.m):
            raise ValueError(f"epsilon must lie in (0, 1/(2m)) = (0, {1.0 / (2 * self.m)})")

    @property
    def m(self) -> int:
        return len(self.budgets)

    @property
    def n(self) -> int:
        return self.graph.node_count


class StrategyProfile(tuple):
    """Per-player seed sets: a tuple of frozensets.

    Accepts any iterable of per-player node iterables, and returns a profile
    as it is; a player listing the same node twice is an input error rather
    than a double weight (``graph.seed_set``).  Profiles compare and hash as
    their tuple, so they can key caches and cycle-detection tables.
    """

    __slots__ = ()

    def __new__(cls, seed_sets: Iterable[Iterable[int]]):
        if isinstance(seed_sets, StrategyProfile):
            return seed_sets
        return super().__new__(cls, (seed_set(i, s) for i, s in enumerate(seed_sets)))

    @property
    def strategies(self) -> tuple[frozenset[int], ...]:
        """The seed sets as a plain tuple."""
        return tuple(self)

    def __repr__(self) -> str:
        return f"StrategyProfile({[sorted(s) for s in self]})"

    def canonical(self) -> tuple[tuple[int, ...], ...]:
        """Hashable canonical form: per-player sorted node tuples."""
        return tuple(tuple(sorted(s)) for s in self)

    def replace(self, i: int, strategy: Iterable[int]) -> "StrategyProfile":
        """Copy of the profile with player ``i``'s seed set swapped out, checked as the constructor checks."""
        sets = list(self)
        sets[i] = strategy
        return StrategyProfile(sets)


def check_seed_set(cfg: GameConfig, i: int, s) -> frozenset[int]:
    """Player ``i``'s seed ids as a frozenset, validated against a configuration.

    Raises ValueError, in this order, on a node listed twice, an empty seed
    set (payoffs are defined for seeded players only), a busted budget, or a
    non-integer or unknown node id (``graph.check_seed_ids``).
    """
    s = seed_set(i, s)
    if not s:
        raise ValueError(f"player {i} has an empty seed set")
    if len(s) > cfg.budgets[i]:
        raise ValueError(f"player {i} seeds {len(s)} nodes, over their budget {cfg.budgets[i]}")
    check_seed_ids(cfg.n, i, s)
    return s


def check_profile(cfg: GameConfig, profile) -> StrategyProfile:
    """``StrategyProfile(profile)``, its player count validated, then each seed set via ``check_seed_set``."""
    profile = StrategyProfile(profile)
    if len(profile) != cfg.m:
        raise ValueError(f"profile has {len(profile)} players but the game has {cfg.m}")
    for i, s in enumerate(profile):
        check_seed_set(cfg, i, s)
    return profile


def check_opponents(cfg: GameConfig, i: int, s_minus_i) -> tuple[frozenset[int], ...]:
    """Player ``i``'s index checked, an integer; its opponents (player order, ``i`` skipped) by ``check_seed_set``."""
    if not 0 <= _integer(i, "non-integer player index") < cfg.m:
        raise ValueError(f"player index {i} out of range for {cfg.m} players")
    others = list(s_minus_i)
    if len(others) != cfg.m - 1:
        raise ValueError(f"expected {cfg.m - 1} opposing seed sets, got {len(others)}")
    return tuple(check_seed_set(cfg, j + (j >= i), s) for j, s in enumerate(others))


def _cache_by_bytes(max_bytes: int):
    """Memoize a table builder by its arguments, bounded by the bytes its entries hold.

    An entry holds its table and the ``src``, ``dst`` and ``weight`` arrays of
    every ``Graph`` in its key, which the cache keeps alive.  Once the entries
    pass ``max_bytes``, the least recently used ones are evicted first; the
    newest entry is always kept, however large.  Like ``lru_cache``, the
    wrapper has a ``cache_clear`` method; its ``lookup`` method returns a
    cached table, or None, without building or reordering anything.
    """

    def entry_bytes(key, table) -> int:
        graphs = [k for k in key if isinstance(k, Graph)]
        return dynamics._table_bytes(table) + sum(g.src.nbytes + g.dst.nbytes + g.weight.nbytes for g in graphs)

    def decorate(build):
        tables: OrderedDict = OrderedDict()
        held = 0  # bytes of the entries in ``tables``, kept so a miss costs O(1), not O(entries)

        @wraps(build)
        def cached(*key):
            nonlocal held
            table = tables.get(key)
            if table is None:
                table = tables[key] = build(*key)
                held += entry_bytes(key, table)
                while len(tables) > 1 and held > max_bytes:
                    held -= entry_bytes(*tables.popitem(last=False))
            else:
                tables.move_to_end(key)
            return table

        def cache_clear():
            nonlocal held
            tables.clear()
            held = 0

        cached.cache_clear = cache_clear
        cached.lookup = lambda *key: tables.get(key)
        return cached

    return decorate


# Each cache holds 256 MiB: three dense horizon tables at 3000 nodes, or eight dense
# operators or tables at the sparse-operator threshold.  Above the threshold horizon
# tables are built compressed sparse column, about 11.5 MB at 3000 nodes and horizon 4
# on out-degree 4, so a sweep keeps its lower horizons cached for the next to extend.
@_cache_by_bytes(1 << 28)
def _mixing_matrix(graph: Graph, alpha: float):
    return influence_matrix(graph, alpha)


@_cache_by_bytes(1 << 28)
def _horizon_table(graph: Graph, alpha: float, horizon: int) -> np.ndarray | _sparse.csc_matrix:
    # Extend the highest horizon below this one still cached for the graph and
    # alpha: the same products as from scratch, without redoing the first.
    lower, start = horizon - 1, None
    while lower > 0 and (start := _horizon_table.lookup(graph, alpha, lower)) is None:
        lower -= 1
    return diffusion_centrality_matrix(_mixing_matrix(graph, alpha), horizon - lower, _start=start)


# One row per graph: c Gamma = c iff c W = c, so the alpha = 1/2 operator serves for every alpha.
@_cache_by_bytes(1 << 28)
def _consensus_table(graph: Graph) -> np.ndarray:
    return eigenvector_weights(_mixing_matrix(graph, 0.5)).weights[None, :]


def payoff_table(cfg: GameConfig, regime: str = "horizon") -> np.ndarray | _sparse.csc_matrix:
    """Influence table driving closed-form payoffs, cached per configuration.

    Rows are evaluation targets and columns are source nodes: ``"horizon"``
    yields the full finite-horizon table (one row per node), ``"consensus"``
    the single row of stationary weights.  The horizon table is a dense array,
    or a compressed sparse column matrix while it stays sparse on graphs above
    ``dynamics.SPARSE_NODE_THRESHOLD`` (see ``diffusion_centrality_matrix``);
    the consensus row is always dense.  Horizon tables are cached within a
    byte budget, least recently used evicted first, and a horizon table is
    built by extending the highest lower horizon still cached for the same
    graph and alpha, which gives the entries a build from scratch would.
    Treat the result as read-only.
    """
    if regime == "horizon":
        return _horizon_table(cfg.graph, cfg.alpha, cfg.horizon)
    if regime == "consensus":
        return _consensus_table(cfg.graph)
    raise ValueError(f"unknown regime {regime!r}; expected 'horizon' or 'consensus'")


def _shares(strengths: np.ndarray) -> np.ndarray:
    """Payoffs from final opinions: the mean over rows of each column's share of its row."""
    return (strengths / strengths.sum(axis=1, keepdims=True)).mean(axis=0)


def table_payoffs(table: np.ndarray, seed_sets, epsilon: float) -> np.ndarray:
    """Closed-form payoffs over a precomputed influence table.

    With ``x`` the initial opinion matrix (``seeded_opinions``), row ``r`` of
    ``table @ x`` is target ``r``'s final opinion toward each player, and the
    payoff is the mean over targets of each player's share of that row.  For
    the horizon table this is exactly ``evolve`` of ``x``.  The seed sets are
    not checked: empty ones are tolerated, which ``marginal_gain`` relies on to
    score the first node added; the public payoff routes reject them up front.
    """
    return _shares(table @ seeded_opinions(table.shape[1], seed_sets, epsilon))


def utility(cfg: GameConfig, profile) -> np.ndarray:
    """Simulated payoffs: seed, mix for the horizon, read relative shares.

    Player ``i`` receives the average over nodes of the opinion toward ``i``
    divided by the node's total opinion mass.  Returns a length-``m`` vector
    summing to one.
    """
    profile = check_profile(cfg, profile)
    gamma = _mixing_matrix(cfg.graph, cfg.alpha)
    state = OpinionState(0, seeded_opinions(cfg.n, profile, cfg.epsilon))
    return _shares(evolve(state, gamma, cfg.horizon).opinions)


def utility_closed_form(cfg: GameConfig, profile) -> np.ndarray:
    """Payoffs via the horizon influence table; agrees with ``utility`` to ~1e-10."""
    profile = check_profile(cfg, profile)
    return table_payoffs(payoff_table(cfg, "horizon"), profile, cfg.epsilon)


def consensus_utility(cfg: GameConfig, profile) -> np.ndarray:
    """Stationary-regime payoffs: each player's weighted initial opinion share.

    Uses the consensus weights instead of a finite horizon, which is the limit
    every long simulation approaches.
    """
    profile = check_profile(cfg, profile)
    return table_payoffs(payoff_table(cfg, "consensus"), profile, cfg.epsilon)


def assemble_profile(i: int, own, others) -> tuple[frozenset[int], ...]:
    """Insert player ``i``'s seed set into the opposing list, unchecked.

    ``others`` holds the remaining players' seed sets in player order with
    player ``i`` skipped; the result is the full per-player tuple.
    """
    sets = [frozenset(s) for s in others]
    sets.insert(i, frozenset(own))
    return tuple(sets)


def marginal_gain(cfg: GameConfig, i: int, partial, v: int, s_minus_i) -> float:
    """Payoff increase for player ``i`` from adding node ``v`` to a partial seed set.

    ``s_minus_i`` lists the other players' seed sets in player order with
    player ``i`` skipped.  Evaluated in closed form over the cached influence
    table, so repeated calls inside a greedy scan stay cheap.  ``partial`` may
    be empty, but may not list a node twice or hold ``v``.
    """
    others = check_opponents(cfg, i, s_minus_i)
    partial = seed_set(i, partial)
    if v in partial:
        raise ValueError(f"node {v} is already in the partial seed set")
    check_seed_set(cfg, i, partial | {v})
    table = payoff_table(cfg, "horizon")
    before = table_payoffs(table, assemble_profile(i, partial, others), cfg.epsilon)[i]
    after = table_payoffs(table, assemble_profile(i, partial | {v}, others), cfg.epsilon)[i]
    return float(after - before)
