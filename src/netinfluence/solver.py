"""Best responses, improvement dynamics, equilibrium search, and the kernel that scores them.

All comparisons between strategies treat payoff differences below
``IMPROVEMENT_TOL`` as ties, so solver outputs are reproducible bit-for-bit:
enumeration orders are fixed, ties break toward lexicographically smallest
seed sets (lowest node id for the greedy scan).

One batched kernel, ``_score``, rates arrays of candidate node ids against a
stack of opponent configurations, chunk by chunk: ``_scan_best`` feeds it the
exact scan's blocks of combinations (``_combinations``), and
``exhaustive_nash_check`` makes one pass per player, against only the
opponent combinations the earlier passes left stable.  Consensus exact best
responses sort node scores built from the same terms (``_consensus_best``);
greedy scores free nodes from the table's nonzero entries (``dynamics._entries``).
A best response's reported payoff is its winner's ``table_payoffs`` value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import dynamics
from .game import (
    GameConfig,
    StrategyProfile,
    assemble_profile,
    check_opponents,
    check_profile,
    payoff_table,
    table_payoffs,
)
from .graph import _count

IMPROVEMENT_TOL = 1e-12
EXACT_ENUMERATION_CAP = 5_000_000
PROFILE_ENUMERATION_CAP = 10_000_000
# Bytes of table columns gathered per kernel chunk: large enough to amortize
# numpy's per-call overhead, small enough to stay in cache and keep peak memory flat.
_CHUNK_BYTES = 1 << 18
# Table columns per seed up to which one opponent configuration is scored by matrix products (``_score``).
_PRODUCT_NODES_PER_SEED = 16


class EnumerationCapError(RuntimeError):
    """The search space exceeds the configured cap; refusing to truncate silently."""


class EquilibriumVerificationError(RuntimeError):
    """Best-response play from a constructed profile ended without an equilibrium."""


@dataclass(frozen=True)
class BestResponse:
    """A solver's answer for one player: the seed set, its payoff against the
    fixed opponents, and how many candidate payoffs were evaluated."""

    strategy: frozenset[int]
    payoff: float
    evaluations: int


class Move(NamedTuple):
    """One improvement step inside best-response dynamics."""

    player: int
    old: frozenset[int]
    new: frozenset[int]
    delta: float


@dataclass(frozen=True, eq=False)
class NashOutcome:
    """Result of best-response dynamics.

    ``kind`` is ``"equilibrium"`` (a full round passed with no change),
    ``"cycle_detected"`` (an earlier round-start profile recurred, so play
    provably repeats), or ``"max_rounds_exhausted"``.  ``trace`` records every
    accepted improvement in order, and ``rounds`` counts the rounds played.
    """

    kind: str
    profile: StrategyProfile
    trace: tuple[Move, ...]
    rounds: int = 0


def _chunk_items(floats: int) -> int:
    """How many items of ``floats`` float64 values fill about ``_CHUNK_BYTES``; at least one."""
    return max(1, _CHUNK_BYTES // (8 * floats))


def _response_terms(table: np.ndarray, counts: np.ndarray, m: int, epsilon: float):
    """``K x rows`` bases ``own_base, total_base`` and ``K x n`` gains ``own_gain, total_gain``
    for the ``K x n`` opponent seed counts ``counts`` of ``m``-player games.

    A candidate's payoff depends on the opponents only through each node's seed
    count ``c_v``.  With ``Z`` and ``P`` the table's row sums over the unseeded
    and the opponent-seeded columns, candidate ``A``'s strength at row ``r`` is
    ``eps Z + sum_{v in A} T[r, v] (1 / (c_v + 1) - eps [c_v = 0])``, the row's
    total opinion is ``P + m eps Z + sum_{v in A} T[r, v] [c_v = 0] (1 - m eps)``,
    and the payoff, the mean over rows of strength over total, is the
    candidate's ``table_payoffs`` entry within rounding.
    """
    free = (counts == 0).astype(float)
    z, p = (table @ free.T).T, (table @ (1.0 - free).T).T
    own_gain, total_gain = 1.0 / (counts + 1.0) - epsilon * free, free * (1.0 - m * epsilon)
    return epsilon * z, p + m * epsilon * z, own_gain, total_gain


def _seed_counts(n: int, picks) -> np.ndarray:
    """``K x n`` seed counts of ``K`` opponent configurations from one ``K x b`` node-id array per opponent."""
    cells = np.concatenate([(np.arange(len(p))[:, None] * n + p).ravel() for p in picks])
    return np.bincount(cells, minlength=len(picks[0]) * n).reshape(-1, n)


def _opponent_terms(table: np.ndarray, others, epsilon: float):
    """``_response_terms`` of the one opponent configuration ``others``: seed sets in player order."""
    counts = _seed_counts(table.shape[1], [np.fromiter(s, np.intp)[None] for s in others])
    return _response_terms(table, counts, len(others) + 1, epsilon)


def _score(table: np.ndarray, terms, nodes: np.ndarray) -> np.ndarray:
    """The ``K x C`` payoffs of the ``C x b`` candidate node ids
    ``nodes`` (distinct within a candidate) against the ``K`` opponent configurations in
    ``terms``, by chunks of candidates and configurations whose temporaries stay near
    ``_CHUNK_BYTES``; see ``_response_terms``.

    With one configuration and ``n <= _PRODUCT_NODES_PER_SEED * b`` table columns, the
    columns are scaled once by ``own_gain`` and by ``total_gain``, and each chunk is
    two products ``pick @ scaled``, ``pick`` its 0/1 candidate-by-node matrix: more
    flops than gathering ``b`` columns per candidate, but one BLAS call each in
    place of a small product per candidate.  Against the per-candidate products it
    won up to 16 nodes per seed, was mixed from 21 and lost at 32 (README), so
    elsewhere each candidate's gains multiply its own ``b`` gathered columns.
    """
    own_base, total_base, own_gain, total_gain = terms
    height, width = table.shape
    count, size = nodes.shape
    out = np.empty((len(own_base), count))
    if len(out) == 1 and width <= _PRODUCT_NODES_PER_SEED * size:
        columns = dynamics._columns(table, np.arange(width))
        own_scaled, total_scaled = columns * own_gain[0][:, None], columns * total_gain[0][:, None]
        step = _chunk_items(width + 2 * height)  # pick and the two products
        for start in range(0, count, step):
            chunk = nodes[start : start + step]
            pick = np.zeros((len(chunk), width))
            pick[np.arange(len(chunk))[:, None], chunk] = 1.0
            own = pick @ own_scaled
            own += own_base[0]
            total = pick @ total_scaled
            total += total_base[0]
            own /= total
            out[0, start : start + len(chunk)] = own.mean(axis=1)
        return out
    step = _chunk_items(size * height)
    for start in range(0, count, step):
        chunk = nodes[start : start + step]
        block = dynamics._columns(table, chunk)
        span = _chunk_items(len(chunk) * height)
        for first in range(0, len(out), span):
            k = slice(first, first + span)
            own = own_gain[k].T[chunk].transpose(0, 2, 1) @ block  # c x k x rows
            own += own_base[k]
            total = total_gain[k].T[chunk].transpose(0, 2, 1) @ block
            total += total_base[k]
            own /= total
            out[k, start : start + len(chunk)] = own.mean(axis=2).T
    return out


def _combinations(n: int, b: int):
    """``itertools.combinations(range(n), b)`` as ``C x b`` node-id arrays of about ``_CHUNK_BYTES``; rank
    ``r`` is nodes ``n - 1 - a_j`` for ``C(n, b) - 1 - r = sum_j C(a_j, b - j)``, each ``a_j`` greedily largest."""
    total, binomials = math.comb(n, b), [np.ones(n, dtype=np.int64)]  # [k][a] = min(C(a, k), total), exact in int64
    for _ in range(b):
        binomials.append(np.minimum(np.concatenate(([0], np.cumsum(binomials[-1])[:-1])), total))
    for start in range(0, total, rows := _chunk_items(b)):
        rest, nodes = total - 1 - np.arange(start, min(start + rows, total)), []
        for column in binomials[:0:-1]:
            a = np.searchsorted(column, rest, "right") - 1
            rest -= column[a]
            nodes.append(n - 1 - a)
        yield np.column_stack(nodes)


def _lead(pays, best_pay):
    """Index (or None) of the last of ``pays`` to top the running best, from ``best_pay``, by the margin; the best."""
    won, ahead = None, np.concatenate(([-math.inf], np.maximum.accumulate(pays)[:-1]))
    for k in np.flatnonzero(pays > np.maximum(ahead, best_pay + IMPROVEMENT_TOL)):
        if pays[k] > best_pay + IMPROVEMENT_TOL:
            best_pay, won = pays[k], k
    return won, best_pay


def _scan_best(table, i, others, epsilon, blocks):
    """Best payoff, best candidate and candidates scored for player ``i`` over ``blocks`` of ``C x b`` node
    ids, earliest winning ties (``_lead``); the payoff is the winner's ``table_payoffs`` value."""
    terms, best_pay, best, total = _opponent_terms(table, others, epsilon), -math.inf, None, 0
    for nodes in blocks:
        pays = _score(table, terms, nodes)[0]
        k, best_pay = _lead(pays, best_pay)
        best, total = best if k is None else tuple(nodes[k].tolist()), total + len(pays)
    return table_payoffs(table, assemble_profile(i, best, others), epsilon)[i], best, total


def _consensus_best(table, i, others, epsilon, b):
    """``_scan_best`` over player ``i``'s ``b``-sets on the one-row consensus ``table``, by sorting.

    Set ``A`` pays ``(N + sum_A a_v) / (D + sum_A d_v)`` in ``_response_terms``.
    A held node has ``d_v = 0`` and a free one ``a_v = rho d_v``, with
    ``rho = (1 - eps) / (1 - m eps) > 1``; a share never exceeds one, so free
    weight always pays.  So an optimum is the ``k`` heaviest free nodes plus the
    ``b - k`` held ones of largest ``a_v``, for some ``k``.  A set pays at least
    ``lam``, the optimum less ``IMPROVEMENT_TOL``, iff ``sum_A (a_v - lam d_v) >=
    lam D - N``; fixing ids in increasing order then yields the lexicographically
    smallest such set.  ``n`` node scores are counted.
    """
    terms = _opponent_terms(table, others, epsilon)
    own_base, total_base, own_gain, total_gain = (x.ravel() for x in terms)
    a, d = table[0] * own_gain, table[0] * total_gain
    held = total_gain == 0
    top = (np.concatenate(([0.0], np.cumsum(np.sort(x)[::-1]))) for x in (a[~held], d[~held], a[held]))
    free_a, free_d, held_a = top
    k = np.arange(max(0, b - int(held.sum())), min(b, len(free_a) - 1) + 1)
    pays = (own_base[0] + free_a[k] + held_a[b - k]) / (total_base[0] + free_d[k])
    lam = pays.max() - IMPROVEMENT_TOL
    score, bound = a - lam * d, lam * total_base[0] - own_base[0]
    # tops[r][u]: the largest sum of r scores of ids u.., or -inf when fewer than r remain.
    tops = [np.zeros(len(score) + 1)]
    for _ in range(b - 1):
        lead = score + tops[-1][1:]
        tops.append(np.append(np.maximum.accumulate(lead[::-1])[::-1], -np.inf))
    chosen, reached, start = [], 0.0, 0
    for r in range(b - 1, -1, -1):
        lead = reached + score[start:] + tops[r][start + 1 :]
        u = start + int(np.argmax(lead >= min(bound, lead.max())))  # rounding never strands it
        chosen.append(u)
        reached, start = reached + score[u], u + 1
    payoff = table_payoffs(table, assemble_profile(i, chosen, others), epsilon)[i]
    return payoff, tuple(chosen), len(score)


def exact_best_response(cfg: GameConfig, i: int, s_minus_i, regime: str = "horizon") -> BestResponse:
    """Exact best response for player ``i`` against fixed opponents.

    Payoffs are monotone in the seed set, so smaller sets never win strictly:
    the answer is the full-budget set of largest payoff, ties going to the
    lexicographically smallest node tuple.  In the horizon regime every
    full-budget set is scored; at consensus ``_consensus_best`` finds it from
    ``n`` node scores, which is what ``evaluations`` then counts.

    Args:
        cfg: game configuration.
        i: responding player index.
        s_minus_i: the other players' seed sets in player order, ``i`` skipped.
        regime: ``"horizon"`` for finite-horizon payoffs, ``"consensus"`` for
            the stationary regime.

    Raises:
        EnumerationCapError: in the horizon regime, when ``comb(n, budget)`` exceeds
            ``EXACT_ENUMERATION_CAP``.
    """
    others = check_opponents(cfg, i, s_minus_i)
    b = min(cfg.budgets[i], cfg.n)
    if regime == "consensus":
        found = _consensus_best(payoff_table(cfg, regime), i, others, cfg.epsilon, b)
    elif math.comb(cfg.n, b) > EXACT_ENUMERATION_CAP:
        raise EnumerationCapError(
            f"player {i} has {math.comb(cfg.n, b)} candidate seed sets, over the cap of "
            f"{EXACT_ENUMERATION_CAP} (EXACT_ENUMERATION_CAP); use greedy_best_response"
        )
    else:
        found = _scan_best(payoff_table(cfg, regime), i, others, cfg.epsilon, _combinations(cfg.n, b))
    payoff, best, evaluations = found
    return BestResponse(frozenset(best), payoff, evaluations)


def greedy_best_response(cfg: GameConfig, i: int, s_minus_i, regime: str = "horizon") -> BestResponse:
    """Greedy best response: repeatedly add the node with the largest gain.

    Payoffs are monotone and submodular in a player's seed set, so the greedy
    set is guaranteed at least a ``1 - 1/e`` fraction of the exact optimum,
    and with budget one it is exact.  Ties go to the lowest node id; ``n + (n-1)
    + ... + (n-b+1)`` candidates are counted.  Adding ``v`` changes only the rows of
    column ``v``'s nonzero entries, so one pass over them scores every free node.
    A dense table under a third full keeps its entries for the whole call.
    """
    others = check_opponents(cfg, i, s_minus_i)
    table = payoff_table(cfg, regime)
    own, total, own_gain, total_gain = (x[0] for x in _opponent_terms(table, others, cfg.epsilon))
    free = np.ones(cfg.n, dtype=bool)
    held = dynamics._held_entries(table, step := _chunk_items(1))
    for _ in range(min(cfg.budgets[i], cfg.n)):
        ratio, gains = own / total, np.zeros(cfg.n)
        for cols, rows, vals in held or dynamics._entries(table, step):
            moved = (own[rows] + vals * own_gain[cols]) / (total[rows] + vals * total_gain[cols])
            gains += np.bincount(cols, weights=moved - ratio[rows], minlength=cfg.n)
        ids = np.flatnonzero(free)
        v = ids[_lead(gains[ids] / len(own), -math.inf)[0]]
        column = dynamics._columns(table, np.array([v]))[0]
        own, total = own + column * own_gain[v], total + column * total_gain[v]
        free[v] = False
    chosen = np.flatnonzero(~free).tolist()
    payoff = table_payoffs(table, assemble_profile(i, chosen, others), cfg.epsilon)[i]
    return BestResponse(frozenset(chosen), payoff, sum(cfg.n - k for k in range(len(chosen))))


def best_response_dynamics(
    cfg: GameConfig,
    initial,
    max_rounds: int = 100,
    use_exact: bool = True,
    regime: str = "horizon",
) -> NashOutcome:
    """Round-robin improvement play until a fixed point, a revisit, or the budget.

    Players take turns in ascending index order and switch to a best response
    whenever that improves their payoff by more than ``IMPROVEMENT_TOL``.  A
    full quiet round certifies a fixed point: with ``use_exact`` no player's
    exact best response improves on it (with greedy responders the
    certificate is only greedy-stability).  Revisiting an earlier round-start
    profile proves the deterministic dynamics repeat forever.  A response to
    a repeated query is computed once per run.  Exact responses raise
    ``EnumerationCapError`` past ``EXACT_ENUMERATION_CAP`` candidate sets.
    """
    profile = check_profile(cfg, initial)
    max_rounds = _count(max_rounds, "max_rounds", 1)
    table = payoff_table(cfg, regime)
    respond = exact_best_response if use_exact else greedy_best_response

    strategies = list(profile)
    seen: set[tuple[frozenset[int], ...]] = set()
    answers: dict[tuple, BestResponse] = {}  # (player, opponents) -> its response, asked once a run
    trace: list[Move] = []
    kind = "max_rounds_exhausted"
    for rounds in range(1, max_rounds + 1):
        seen.add(tuple(strategies))
        changed = False
        for i in range(cfg.m):
            query = (i, tuple(s for j, s in enumerate(strategies) if j != i))
            if query not in answers:
                answers[query] = respond(cfg, *query, regime=regime)
            br = answers[query]
            current = table_payoffs(table, tuple(strategies), cfg.epsilon)[i]
            if br.payoff > current + IMPROVEMENT_TOL:
                trace.append(Move(i, strategies[i], br.strategy, float(br.payoff - current)))
                strategies[i] = br.strategy
                changed = True
        if not changed:
            kind = "equilibrium"
            break
        if tuple(strategies) in seen:
            kind = "cycle_detected"
            break
    return NashOutcome(kind, StrategyProfile(strategies), tuple(trace), rounds)


def exhaustive_nash_check(cfg: GameConfig, regime: str = "horizon") -> list[StrategyProfile]:
    """Enumerate every full-budget profile and return all pure equilibria.

    A profile passes when no player can gain more than ``IMPROVEMENT_TOL`` by
    switching to any other full-budget seed set; monotone payoffs make
    below-budget deviations no better, so the restriction loses nothing.
    Results come back in lexicographic profile order.  Each player's options
    are scored in one kernel pass against the others' option combinations
    still stable at some option of that player, in blocks whose terms or
    payoffs fill about a kernel chunk, each cut at once to its best-response
    mask (every option within ``IMPROVEMENT_TOL`` of the best).  Memory peaks
    near the mask, a byte per profile, plus a few ``_CHUNK_BYTES``.

    Raises:
        EnumerationCapError: when the profile count exceeds ``PROFILE_ENUMERATION_CAP``.
    """
    sizes = [min(b, cfg.n) for b in cfg.budgets]
    shape = tuple(math.comb(cfg.n, b) for b in sizes)
    total = math.prod(shape)
    if total > PROFILE_ENUMERATION_CAP:
        raise EnumerationCapError(
            f"{total} profiles exceed the cap of {PROFILE_ENUMERATION_CAP} (PROFILE_ENUMERATION_CAP)"
        )
    options = [np.concatenate(list(_combinations(cfg.n, b))) for b in sizes]
    table = payoff_table(cfg, regime)
    stable = np.ones(shape, dtype=bool)
    for j in range(cfg.m):
        rest = [k for k in range(cfg.m) if k != j]
        view = np.moveaxis(stable, j, -1)  # [combination of the others' options] -> j's options
        live = np.flatnonzero(view.any(axis=-1))  # the only ones that can change; first opponent slowest
        step = _chunk_items(max(cfg.n, shape[j]))  # combinations whose terms or payoffs fill a chunk
        for start in range(0, len(live), step):
            combos = np.unravel_index(live[start : start + step], view.shape[:-1])
            counts = _seed_counts(cfg.n, [options[k][x] for k, x in zip(rest, combos)])
            terms = _response_terms(table, counts, cfg.m, cfg.epsilon)
            pays = _score(table, terms, options[j])
            view[combos] &= pays >= pays.max(axis=1, keepdims=True) - IMPROVEMENT_TOL

    return [
        StrategyProfile(options[j][x].tolist() for j, x in enumerate(idx))
        for idx in np.argwhere(stable)
    ]


@dataclass(frozen=True, eq=False)
class ConsensusEquilibrium:
    """A stationary-regime equilibrium with its payoffs.  ``verified`` is always
    True: exact best-response play from the constructed profile ended in it."""

    profile: StrategyProfile
    payoffs: np.ndarray
    verified: bool


def consensus_equilibrium(cfg: GameConfig) -> ConsensusEquilibrium:
    """Find a pure equilibrium of the stationary-regime game.

    A starting profile is constructed in descending budget order: the first
    player claims the highest-weight nodes outright (stationary weight ties
    break toward lower node ids), and each later player plays an exact best
    response to the profile built so far under stationary payoffs.  Exact
    best-response play (``best_response_dynamics``) then runs from that
    profile, and the equilibrium it reaches is returned.  Consensus best
    responses need no enumeration, so this works at any size.  With unequal
    budgets the game may have no pure equilibrium at all.

    Raises:
        EquilibriumVerificationError: if best-response play ends without an
            equilibrium.
    """
    table = payoff_table(cfg, "consensus")
    player_order = sorted(range(cfg.m), key=lambda j: (-cfg.budgets[j], j))
    heaviest = np.argsort(-table[0], kind="stable")[: min(cfg.budgets[player_order[0]], cfg.n)]
    built = [frozenset(heaviest.tolist())]
    for p in player_order[1:]:
        _, best, _ = _consensus_best(table, len(built), built, cfg.epsilon, min(cfg.budgets[p], cfg.n))
        built.append(frozenset(best))

    profile = StrategyProfile(built[player_order.index(j)] for j in range(cfg.m))
    outcome = best_response_dynamics(cfg, profile, regime="consensus")
    if outcome.kind != "equilibrium":
        raise EquilibriumVerificationError(
            f"no pure equilibrium reached: best-response play from the constructed "
            f"profile ended in {outcome.kind} after {len(outcome.trace)} moves, "
            "with players still deviating"
        )
    payoffs = table_payoffs(table, outcome.profile, cfg.epsilon)
    return ConsensusEquilibrium(outcome.profile, payoffs, True)
