"""Best responses, improvement dynamics, and equilibrium search.

All comparisons between strategies treat payoff differences below
``IMPROVEMENT_TOL`` as ties, so solver outputs are reproducible bit-for-bit:
enumeration orders are fixed, ties break toward lexicographically smallest
seed sets (lowest node id for the greedy scan).

One batched kernel, ``game._score``, rates arrays of candidate node ids
against a stack of opponent configurations, chunk by chunk: ``_scan_best``
feeds it the exact scan's blocks of combinations (``_combinations``), and
``exhaustive_nash_check`` makes one pass per player, against only the
opponent combinations the earlier passes left stable.  Against one
configuration on a table of at most ``game._PRODUCT_NODES_PER_SEED`` nodes per
seed, the exact scan's case on small games, each chunk is two matrix products
of a 0/1 candidate-by-node matrix with the table's columns scaled by the
opponents' gains; against the per-candidate products it won up to 16 nodes
per seed, was mixed from 21 and lost at 32.  Consensus exact best
responses sort node scores built from the same terms (``_consensus_best``);
greedy scores free nodes from the table's nonzero entries (``dynamics._entries``).
A best response's reported payoff is its winner's ``table_payoffs`` value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import dynamics, game
from .game import (
    GameConfig,
    StrategyProfile,
    _opponent_terms,
    _response_terms,
    _score,
    _seed_counts,
    assemble_profile,
    check_opponents,
    check_profile,
    payoff_table,
    table_payoffs,
)
from .graph import _integer

IMPROVEMENT_TOL = 1e-12
EXACT_ENUMERATION_CAP = 5_000_000
PROFILE_ENUMERATION_CAP = 10_000_000


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


def _combinations(n: int, b: int):
    """``itertools.combinations(range(n), b)`` as ``C x b`` node-id arrays of about ``game._CHUNK_BYTES``; rank
    ``r`` is nodes ``n - 1 - a_j`` for ``C(n, b) - 1 - r = sum_j C(a_j, b - j)``, each ``a_j`` greedily largest."""
    total, binomials = math.comb(n, b), [np.ones(n, dtype=np.int64)]  # [k][a] = min(C(a, k), total), exact in int64
    for _ in range(b):
        binomials.append(np.minimum(np.concatenate(([0], np.cumsum(binomials[-1])[:-1])), total))
    for start in range(0, total, rows := game._chunk_items(b)):
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
        pays = _score(table, terms, nodes, np.empty((1, len(nodes))))[0]
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


def exact_best_response(
    cfg: GameConfig,
    i: int,
    s_minus_i,
    regime: str = "horizon",
    cap: int = EXACT_ENUMERATION_CAP,
) -> BestResponse:
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
        cap: in the horizon regime, refuse to enumerate more candidate sets than this.

    Raises:
        EnumerationCapError: in the horizon regime, when ``comb(n, budget)`` exceeds ``cap``.
    """
    others = check_opponents(cfg, i, s_minus_i)
    b = min(cfg.budgets[i], cfg.n)
    if regime == "consensus":
        found = _consensus_best(payoff_table(cfg, regime), i, others, cfg.epsilon, b)
    elif math.comb(cfg.n, b) > cap:
        raise EnumerationCapError(
            f"player {i} has {math.comb(cfg.n, b)} candidate seed sets, over the cap of {cap}; "
            "use greedy_best_response or raise the cap"
        )
    else:
        found = _scan_best(payoff_table(cfg, regime), i, others, cfg.epsilon, _combinations(cfg.n, b))
    payoff, best, evaluations = found
    return BestResponse(frozenset(best), payoff, evaluations)


def greedy_best_response(
    cfg: GameConfig,
    i: int,
    s_minus_i,
    regime: str = "horizon",
) -> BestResponse:
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
    held = dynamics._held_entries(table, step := game._chunk_items(1))
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
    max_rounds = _integer(max_rounds, "non-integer max_rounds")
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least one")
    table = payoff_table(cfg, regime)
    respond = exact_best_response if use_exact else greedy_best_response

    strategies = list(profile.strategies)
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


def exhaustive_nash_check(
    cfg: GameConfig,
    regime: str = "horizon",
    cap: int = PROFILE_ENUMERATION_CAP,
) -> list[StrategyProfile]:
    """Enumerate every full-budget profile and return all pure equilibria.

    A profile passes when no player can gain more than ``IMPROVEMENT_TOL`` by
    switching to any other full-budget seed set; monotone payoffs make
    below-budget deviations no better, so the restriction loses nothing.
    Results come back in lexicographic profile order.  Each player's options
    are scored in one kernel pass against the others' option combinations
    still stable at some option of that player, in blocks whose terms or
    payoffs fill about a kernel chunk, each cut at once to its best-response
    mask (every option within ``IMPROVEMENT_TOL`` of the best).  Memory peaks
    near the mask, a byte per profile, plus a few ``game._CHUNK_BYTES``.

    Raises:
        EnumerationCapError: when the profile count exceeds ``cap``.
    """
    sizes = [min(b, cfg.n) for b in cfg.budgets]
    shape = tuple(math.comb(cfg.n, b) for b in sizes)
    total = math.prod(shape)
    if total > cap:
        raise EnumerationCapError(
            f"{total} profiles exceed the cap of {cap}; shrink the instance or raise the cap"
        )
    options = [np.concatenate(list(_combinations(cfg.n, b))) for b in sizes]
    table = payoff_table(cfg, regime)
    stable = np.ones(shape, dtype=bool)
    for j in range(cfg.m):
        rest = [k for k in range(cfg.m) if k != j]
        view = np.moveaxis(stable, j, -1)  # [combination of the others' options] -> j's options
        live = np.flatnonzero(view.any(axis=-1))  # the only ones that can change; first opponent slowest
        step = game._chunk_items(max(cfg.n, shape[j]))  # combinations whose terms or payoffs fill a chunk
        for start in range(0, len(live), step):
            combos = np.unravel_index(live[start : start + step], view.shape[:-1])
            counts = _seed_counts(cfg.n, [options[k][x] for k, x in zip(rest, combos)])
            terms = _response_terms(table, counts, cfg.m, cfg.epsilon)
            pays = _score(table, terms, options[j], np.empty((len(counts), shape[j])))
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
    payoffs = table_payoffs(table, outcome.profile.strategies, cfg.epsilon)
    return ConsensusEquilibrium(outcome.profile, payoffs, True)
