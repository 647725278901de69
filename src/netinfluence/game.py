"""The seeding game: configurations, strategy profiles, and payoff routes.

Each of ``m`` players plants their opinion at a budgeted set of seed nodes;
opinions then mix for a fixed horizon and a player's payoff is the population
average of the relative opinion toward them.  Payoffs can be obtained three
ways that agree to numerical precision: direct simulation, a closed form over
the horizon influence table, and the stationary-regime shortcut via the
consensus weights.  All three apply an influence operator to the same initial
opinion matrix and read the same relative shares off the result.  The game is
constant-sum: payoffs always total one.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .dynamics import (
    OpinionState,
    diffusion_centrality_matrix,
    eigenvector_weights,
    evolve,
    influence_matrix,
    seeded_opinions,
)
from .graph import Graph, check_seed_ids

if TYPE_CHECKING:
    from scipy import sparse as _sparse


@dataclass(frozen=True)
class GameConfig:
    """Everything that pins down one game instance.

    ``budgets`` gives each player's maximum seed-set size (player count is its
    length); ``horizon`` is the number of mixing steps before payoffs are
    read; ``epsilon`` is the background opinion implanted in unseeded nodes
    and must stay below ``1 / (2m)`` so it never rivals a real seed.
    """

    graph: Graph
    budgets: tuple[int, ...]
    horizon: int
    alpha: float = 0.5
    epsilon: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "budgets", tuple(int(b) for b in self.budgets))
        if len(self.budgets) < 2:
            raise ValueError("need at least two players")
        if any(b < 1 for b in self.budgets):
            raise ValueError("every budget must be at least one")
        if self.horizon < 1:
            raise ValueError("horizon must be at least one")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if not 0 < self.epsilon < 1.0 / (2 * len(self.budgets)):
            raise ValueError(
                f"epsilon must lie in (0, 1/(2m)) = (0, {1.0 / (2 * len(self.budgets))})"
            )

    @property
    def m(self) -> int:
        return len(self.budgets)

    @property
    def n(self) -> int:
        return self.graph.node_count


class StrategyProfile:
    """Per-player seed sets.

    Accepts any iterable of per-player node iterables; a player listing the
    same node twice is an input error rather than a double weight.  Profiles
    compare and hash by their canonical form, so they can key caches and
    cycle-detection tables.
    """

    __slots__ = ("strategies",)

    def __init__(self, seed_sets: Iterable[Iterable[int]]):
        strategies = []
        for i, s in enumerate(seed_sets):
            nodes = list(s)
            fs = frozenset(nodes)
            if len(fs) != len(nodes):
                raise ValueError(f"player {i} lists a seed node more than once")
            strategies.append(fs)
        self.strategies: tuple[frozenset[int], ...] = tuple(strategies)

    def __len__(self) -> int:
        return len(self.strategies)

    def __iter__(self):
        return iter(self.strategies)

    def __getitem__(self, i: int) -> frozenset[int]:
        return self.strategies[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, StrategyProfile) and self.strategies == other.strategies

    def __hash__(self) -> int:
        return hash(self.strategies)

    def __repr__(self) -> str:
        return f"StrategyProfile({[sorted(s) for s in self.strategies]})"

    def canonical(self) -> tuple[tuple[int, ...], ...]:
        """Hashable canonical form: per-player sorted node tuples."""
        return tuple(tuple(sorted(s)) for s in self.strategies)

    def replace(self, i: int, strategy: Iterable[int]) -> "StrategyProfile":
        """Copy of the profile with player ``i``'s seed set swapped out."""
        sets = list(self.strategies)
        sets[i] = frozenset(strategy)
        return StrategyProfile(sets)


def as_profile(profile) -> StrategyProfile:
    """Coerce raw per-player seed collections into a StrategyProfile."""
    if isinstance(profile, StrategyProfile):
        return profile
    return StrategyProfile(profile)


def check_seed_set(cfg: GameConfig, i: int, s, require_nonempty: bool = True):
    """Validate player ``i``'s seed set against a configuration.

    Raises ValueError on an empty seed set (payoffs are defined for seeded
    players only), a busted budget, or an unknown node id.
    """
    if require_nonempty and not s:
        raise ValueError(f"player {i} has an empty seed set")
    if len(s) > cfg.budgets[i]:
        raise ValueError(f"player {i} seeds {len(s)} nodes, over their budget {cfg.budgets[i]}")
    check_seed_ids(cfg.n, i, s)


def check_profile(cfg: GameConfig, profile: StrategyProfile, require_nonempty: bool = True):
    """Validate a profile's player count, then each seed set via ``check_seed_set``."""
    if len(profile) != cfg.m:
        raise ValueError(f"profile has {len(profile)} players but the game has {cfg.m}")
    for i, s in enumerate(profile):
        check_seed_set(cfg, i, s, require_nonempty)


def check_opponents(cfg: GameConfig, i: int, s_minus_i) -> tuple[frozenset[int], ...]:
    """Validate player ``i``'s index and opponents (player order, ``i`` skipped) as frozensets."""
    if not 0 <= i < cfg.m:
        raise ValueError(f"player index {i} out of range for {cfg.m} players")
    others = tuple(frozenset(s) for s in s_minus_i)
    if len(others) != cfg.m - 1:
        raise ValueError(f"expected {cfg.m - 1} opposing seed sets, got {len(others)}")
    for j, s in enumerate(others):
        check_seed_set(cfg, j + (j >= i), s)
    return others


@lru_cache(maxsize=64)
def _mixing_matrix(graph: Graph, alpha: float):
    return influence_matrix(graph, alpha)


def _table_bytes(table) -> int:
    """Memory held by a dense table or by a compressed sparse table's three arrays."""
    if isinstance(table, np.ndarray):
        return table.nbytes
    return table.data.nbytes + table.indices.nbytes + table.indptr.nbytes


def _cache_by_bytes(max_bytes: int):
    """Memoize a table builder by its arguments, bounded by the tables' bytes.

    Once the tables held pass ``max_bytes``, the least recently used ones are
    evicted first; the newest table is always kept, however large.  Like
    ``lru_cache``, the wrapper has a ``cache_clear`` method.
    """

    def decorate(build):
        tables: OrderedDict = OrderedDict()

        @wraps(build)
        def cached(*key):
            table = tables.get(key)
            if table is None:
                table = tables[key] = build(*key)
                while len(tables) > 1 and sum(map(_table_bytes, tables.values())) > max_bytes:
                    tables.popitem(last=False)
            else:
                tables.move_to_end(key)
            return table

        cached.cache_clear = tables.clear
        return cached

    return decorate


# Holds three dense tables at 3000 nodes, eight at the sparse-operator threshold.
@_cache_by_bytes(1 << 28)
def _horizon_table(graph: Graph, alpha: float, horizon: int) -> np.ndarray | _sparse.csc_matrix:
    return diffusion_centrality_matrix(_mixing_matrix(graph, alpha), horizon)


@lru_cache(maxsize=64)
def _consensus_table(graph: Graph, alpha: float) -> np.ndarray:
    return eigenvector_weights(_mixing_matrix(graph, alpha)).weights[None, :]


def payoff_table(cfg: GameConfig, regime: str = "horizon") -> np.ndarray | _sparse.csc_matrix:
    """Influence table driving closed-form payoffs, cached per configuration.

    Rows are evaluation targets and columns are source nodes: ``"horizon"``
    yields the full finite-horizon table (one row per node), ``"consensus"``
    the single row of stationary weights.  The horizon table is a dense array,
    or a compressed sparse column matrix while it stays sparse on graphs above
    ``dynamics.SPARSE_NODE_THRESHOLD`` (see ``diffusion_centrality_matrix``);
    the consensus row is always dense.  Horizon tables are cached within a
    byte budget, least recently used evicted first.  Treat the result as
    read-only.
    """
    if regime == "horizon":
        return _horizon_table(cfg.graph, cfg.alpha, cfg.horizon)
    if regime == "consensus":
        return _consensus_table(cfg.graph, cfg.alpha)
    raise ValueError(f"unknown regime {regime!r}; expected 'horizon' or 'consensus'")


def _shares(strengths: np.ndarray) -> np.ndarray:
    """Payoffs from final opinions: the mean over rows of each column's share of its row."""
    return (strengths / strengths.sum(axis=1, keepdims=True)).mean(axis=0)


def table_payoffs(table: np.ndarray, seed_sets, epsilon: float) -> np.ndarray:
    """Closed-form payoffs over a precomputed influence table.

    With ``x`` the initial opinion matrix (``seeded_opinions``), row ``r`` of
    ``table @ x`` is target ``r``'s final opinion toward each player, and the
    payoff is the mean over targets of each player's share of that row.  For
    the horizon table this is exactly ``evolve`` of ``x``.  Empty seed sets
    are tolerated here, which the greedy solver relies on; the public payoff
    routes reject them up front.
    """
    return _shares(table @ seeded_opinions(table.shape[1], seed_sets, epsilon))


# Bytes of table columns gathered per kernel chunk: large enough to amortize
# numpy's per-call overhead, small enough to stay in cache and keep peak memory flat.
_CHUNK_BYTES = 1 << 17


def _candidate_payoffs(table: np.ndarray, others, epsilon: float, candidates):
    """Closed-form payoffs of many candidate seed sets for one player, chunk by chunk.

    ``table`` is dense or compressed sparse column; each chunk's candidate
    columns are gathered into a dense ``k x b x rows`` block either way.
    ``others`` are the opponents' seed sets; ``candidates`` is an iterable of
    equal-size node tuples.  Yields ``(nodes, payoffs)``: a ``k x b`` array of
    the next candidates and each one's ``table_payoffs`` entry for the
    responding player (equal to within rounding).  The payoff depends on the
    opponents only through each node's seed count ``c_v``.  With ``Z`` and
    ``P`` the table's row sums over the unseeded and the opponent-seeded
    columns, candidate ``A``'s strength at row ``r`` is
    ``eps Z + sum_{v in A} T[r, v] (1 / (c_v + 1) - eps [c_v = 0])`` and the
    row's total opinion is ``P + m eps Z + sum_{v in A} T[r, v] [c_v = 0] (1 - m eps)``.
    """
    counts = np.zeros(table.shape[1])
    for s in others:
        counts[list(s)] += 1.0
    free = (counts == 0).astype(float)
    m = len(others) + 1
    z, p = table @ free, table @ (1.0 - free)
    own_base, total_base = epsilon * z, p + m * epsilon * z
    own_gain, total_gain = 1.0 / (counts + 1.0) - epsilon * free, free * (1.0 - m * epsilon)
    candidates = iter(candidates)
    first = next(candidates, None)
    if first is None:
        return
    size = len(first)
    rows = max(1, _CHUNK_BYTES // (8 * size * table.shape[0]))
    columns = table.T
    candidates = itertools.chain([first], candidates)
    while True:
        chunk = itertools.chain.from_iterable(itertools.islice(candidates, rows))
        nodes = np.fromiter(chunk, dtype=np.intp).reshape(-1, size)
        if not len(nodes):
            return
        if isinstance(columns, np.ndarray):
            block = columns[nodes]
        else:
            block = columns[nodes.ravel()].toarray().reshape(nodes.shape + (-1,))
        own = own_base + np.einsum("kbr,kb->kr", block, own_gain[nodes])
        total = total_base + np.einsum("kbr,kb->kr", block, total_gain[nodes])
        yield nodes, (own / total).mean(axis=1)


def utility(cfg: GameConfig, profile) -> np.ndarray:
    """Simulated payoffs: seed, mix for the horizon, read relative shares.

    Player ``i`` receives the average over nodes of the opinion toward ``i``
    divided by the node's total opinion mass.  Returns a length-``m`` vector
    summing to one.
    """
    profile = as_profile(profile)
    check_profile(cfg, profile)
    gamma = _mixing_matrix(cfg.graph, cfg.alpha)
    state = OpinionState(0, seeded_opinions(cfg.n, profile.strategies, cfg.epsilon))
    return _shares(evolve(state, gamma, cfg.horizon).opinions)


def utility_closed_form(cfg: GameConfig, profile) -> np.ndarray:
    """Payoffs via the horizon influence table; agrees with ``utility`` to ~1e-10."""
    profile = as_profile(profile)
    check_profile(cfg, profile)
    return table_payoffs(payoff_table(cfg, "horizon"), profile.strategies, cfg.epsilon)


def consensus_utility(cfg: GameConfig, profile) -> np.ndarray:
    """Stationary-regime payoffs: each player's weighted initial opinion share.

    Uses the consensus weights instead of a finite horizon, which is the limit
    every long simulation approaches.
    """
    profile = as_profile(profile)
    check_profile(cfg, profile)
    return table_payoffs(payoff_table(cfg, "consensus"), profile.strategies, cfg.epsilon)


def assemble_profile(i: int, own, others) -> tuple[frozenset[int], ...]:
    """Insert player ``i``'s seed set into the opposing list.

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
    table, so repeated calls inside a greedy scan stay cheap.
    """
    others = check_opponents(cfg, i, s_minus_i)
    partial = frozenset(partial)
    if v in partial:
        raise ValueError(f"node {v} is already in the partial seed set")
    check_seed_set(cfg, i, partial | {v})
    table = payoff_table(cfg, "horizon")
    before = table_payoffs(table, assemble_profile(i, partial, others), cfg.epsilon)[i]
    after = table_payoffs(table, assemble_profile(i, partial | {v}, others), cfg.epsilon)[i]
    return float(after - before)
