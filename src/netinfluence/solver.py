"""Best responses, improvement dynamics, and equilibrium search.

All comparisons between strategies treat payoff differences below
``IMPROVEMENT_TOL`` as ties, so solver outputs are reproducible bit-for-bit:
enumeration orders are fixed, ties break toward lexicographically smallest
seed sets (lowest node id for the greedy scan).

One batched scorer rates candidate seed sets: ``game._candidate_payoffs``
streams them in fixed-size chunks and scores a whole chunk against fixed
opponents with a few array operations.  The exact and greedy scans, the
construction step of ``consensus_equilibrium`` and ``exhaustive_nash_check``
all go through it; a best response's reported payoff is its winner's
``table_payoffs`` value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .game import (
    GameConfig,
    StrategyProfile,
    _candidate_payoffs,
    as_profile,
    assemble_profile,
    check_opponents,
    check_profile,
    payoff_table,
    table_payoffs,
)

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
    accepted improvement in order.
    """

    kind: str
    profile: StrategyProfile
    trace: tuple[Move, ...]


def _scan_best(table, i, others, epsilon, candidates):
    """Best payoff, best candidate and candidates scored for player ``i``; earliest wins ties.

    A candidate wins only by beating the best so far by more than
    ``IMPROVEMENT_TOL``, so only a chunk's strict running maxima can win.  The
    winner is scored again with ``table_payoffs``, whose value is reported.
    """
    best_pay = -math.inf
    best = None
    total = 0
    for nodes, pays in _candidate_payoffs(table, others, epsilon, candidates):
        total += len(pays)
        ahead = np.concatenate(([-math.inf], np.maximum.accumulate(pays)[:-1]))
        for k in np.flatnonzero(pays > np.maximum(ahead, best_pay + IMPROVEMENT_TOL)):
            if pays[k] > best_pay + IMPROVEMENT_TOL:
                best_pay, best = pays[k], tuple(nodes[k].tolist())
    best_pay = table_payoffs(table, assemble_profile(i, best, others), epsilon)[i]
    return best_pay, best, total


def _full_budget_sets(cfg: GameConfig, p: int, cap: int):
    """Player ``p``'s full-budget seed sets in lexicographic order, at most ``cap`` of them."""
    b = min(cfg.budgets[p], cfg.n)
    total = math.comb(cfg.n, b)
    if total > cap:
        raise EnumerationCapError(
            f"player {p} has {total} candidate seed sets, over the cap of {cap}; "
            "use greedy_best_response or raise the cap"
        )
    return itertools.combinations(range(cfg.n), b)


def exact_best_response(
    cfg: GameConfig,
    i: int,
    s_minus_i,
    regime: str = "horizon",
    cap: int = EXACT_ENUMERATION_CAP,
) -> BestResponse:
    """Exhaustive best response for player ``i`` against fixed opponents.

    Enumerates every full-budget seed set — payoffs are monotone in the seed
    set, so smaller sets never win strictly — and returns the maximizer,
    breaking ties toward the lexicographically smallest node tuple.

    Args:
        cfg: game configuration.
        i: responding player index.
        s_minus_i: the other players' seed sets in player order, ``i`` skipped.
        regime: ``"horizon"`` for finite-horizon payoffs, ``"consensus"`` for
            the stationary regime.
        cap: refuse to enumerate more candidate sets than this.

    Raises:
        EnumerationCapError: when ``comb(n, budget)`` exceeds ``cap``.
    """
    others = check_opponents(cfg, i, s_minus_i)
    candidates = _full_budget_sets(cfg, i, cap)
    table = payoff_table(cfg, regime)
    payoff, best, evaluations = _scan_best(table, i, others, cfg.epsilon, candidates)
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
    and with budget one it is exact.  Ties go to the lowest node id.  The
    evaluation count is ``n + (n-1) + ... + (n-b+1)``.
    """
    others = check_opponents(cfg, i, s_minus_i)
    table = payoff_table(cfg, regime)
    b = min(cfg.budgets[i], cfg.n)
    chosen: tuple[int, ...] = ()
    evaluations = 0
    for _ in range(b):
        # Candidates extend the chosen nodes in pick order: payoffs ignore node order.
        candidates = (chosen + (v,) for v in range(cfg.n) if v not in chosen)
        payoff, chosen, count = _scan_best(table, i, others, cfg.epsilon, candidates)
        evaluations += count
    return BestResponse(frozenset(chosen), payoff, evaluations)


def best_response_dynamics(
    cfg: GameConfig,
    initial,
    max_rounds: int = 100,
    use_exact: bool = True,
    regime: str = "horizon",
    cap: int = EXACT_ENUMERATION_CAP,
    order_seed: int | None = None,
) -> NashOutcome:
    """Round-robin improvement play until a fixed point, a revisit, or the budget.

    Players take turns in ascending index order (or a reproducibly shuffled
    order when ``order_seed`` is given) and switch to a best response whenever
    that improves their payoff by more than ``IMPROVEMENT_TOL``.  A full quiet
    round certifies a fixed point: with ``use_exact`` no player's exact best
    response improves on it (with greedy responders the certificate is only
    greedy-stability).  Revisiting an earlier round-start profile proves the
    deterministic dynamics repeat forever.
    """
    profile = as_profile(initial)
    check_profile(cfg, profile)
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least one")
    table = payoff_table(cfg, regime)
    rng = np.random.default_rng(order_seed) if order_seed is not None else None

    strategies = list(profile.strategies)
    seen: set[tuple[tuple[int, ...], ...]] = set()
    trace: list[Move] = []
    kind = "max_rounds_exhausted"
    for _ in range(max_rounds):
        seen.add(tuple(tuple(sorted(s)) for s in strategies))
        order = list(range(cfg.m))
        if rng is not None:
            rng.shuffle(order)
        changed = False
        for i in order:
            others = [s for j, s in enumerate(strategies) if j != i]
            if use_exact:
                br = exact_best_response(cfg, i, others, regime=regime, cap=cap)
            else:
                br = greedy_best_response(cfg, i, others, regime=regime)
            current = table_payoffs(table, tuple(strategies), cfg.epsilon)[i]
            if br.payoff > current + IMPROVEMENT_TOL:
                trace.append(Move(i, strategies[i], br.strategy, float(br.payoff - current)))
                strategies[i] = br.strategy
                changed = True
        if not changed:
            kind = "equilibrium"
            break
        if tuple(tuple(sorted(s)) for s in strategies) in seen:
            kind = "cycle_detected"
            break
    return NashOutcome(kind, StrategyProfile(strategies), tuple(trace))


def exhaustive_nash_check(
    cfg: GameConfig,
    regime: str = "horizon",
    cap: int = PROFILE_ENUMERATION_CAP,
) -> list[StrategyProfile]:
    """Enumerate every full-budget profile and return all pure equilibria.

    A profile passes when no player can gain more than ``IMPROVEMENT_TOL`` by
    switching to any other full-budget seed set; monotone payoffs make
    below-budget deviations no better, so the restriction loses nothing.
    Results come back in lexicographic profile order.  Memory scales with the
    number of profiles times the number of players.

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
    options = [list(itertools.combinations(range(cfg.n), b)) for b in sizes]
    table = payoff_table(cfg, regime)
    payoffs = np.empty(shape + (cfg.m,))
    for j in range(cfg.m):
        rest = [k for k in range(cfg.m) if k != j]
        for idx in itertools.product(*(range(shape[k]) for k in rest)):
            others = [options[k][x] for k, x in zip(rest, idx)]
            row = payoffs[idx[:j] + (slice(None),) + idx[j:] + (j,)]
            start = 0
            for _, pays in _candidate_payoffs(table, others, cfg.epsilon, options[j]):
                row[start : start + len(pays)] = pays
                start += len(pays)

    stable = np.ones(shape, dtype=bool)
    for j in range(cfg.m):
        per_player = payoffs[..., j]
        stable &= per_player >= per_player.max(axis=j, keepdims=True) - IMPROVEMENT_TOL

    return [
        StrategyProfile(options[j][int(idx[j])] for j in range(cfg.m))
        for idx in np.argwhere(stable)
    ]


@dataclass(frozen=True, eq=False)
class ConsensusEquilibrium:
    """A stationary-regime equilibrium with its payoffs.

    ``verified`` is True when best-response play ran from the constructed
    profile and ended in an equilibrium; on instances too large to check, the
    constructed profile is returned unverified.
    """

    profile: StrategyProfile
    payoffs: np.ndarray
    verified: bool


def consensus_equilibrium(
    cfg: GameConfig,
    cap: int = EXACT_ENUMERATION_CAP,
    verify_cap: int = 250_000,
) -> ConsensusEquilibrium:
    """Find a pure equilibrium of the stationary-regime game.

    A starting profile is constructed in descending budget order: the first
    player claims the highest-weight nodes outright (stationary weight ties
    break toward lower node ids), and each later player plays an exact best
    response to the profile built so far under stationary payoffs.  When the
    total deviation count fits under ``verify_cap``, exact best-response play
    (``best_response_dynamics``) runs from that profile, and the equilibrium
    it reaches is returned verified.  With unequal budgets the game may have
    no pure equilibrium at all.

    Raises:
        EquilibriumVerificationError: if best-response play ends without an
            equilibrium.
        EnumerationCapError: when a best-response enumeration exceeds ``cap``.
    """
    table = payoff_table(cfg, "consensus")
    player_order = sorted(range(cfg.m), key=lambda j: (-cfg.budgets[j], j))
    node_order = sorted(range(cfg.n), key=lambda v: (-table[0][v], v))

    built: list[frozenset[int]] = []
    for rank, p in enumerate(player_order):
        if rank == 0:
            built.append(frozenset(node_order[: min(cfg.budgets[p], cfg.n)]))
            continue
        candidates = _full_budget_sets(cfg, p, cap)
        _, best, _ = _scan_best(table, rank, built, cfg.epsilon, candidates)
        built.append(frozenset(best))

    sets: list[frozenset[int] | None] = [None] * cfg.m
    for rank, p in enumerate(player_order):
        sets[p] = built[rank]
    profile = StrategyProfile(sets)

    verified = False
    deviation_count = sum(math.comb(cfg.n, min(b, cfg.n)) for b in cfg.budgets)
    if deviation_count <= verify_cap:
        outcome = best_response_dynamics(cfg, profile, regime="consensus", cap=cap)
        if outcome.kind != "equilibrium":
            raise EquilibriumVerificationError(
                f"no pure equilibrium reached: best-response play from the constructed "
                f"profile ended in {outcome.kind} after {len(outcome.trace)} moves, "
                "with players still deviating"
            )
        profile = outcome.profile
        verified = True
    payoffs = table_payoffs(table, profile.strategies, cfg.epsilon)
    return ConsensusEquilibrium(profile, payoffs, verified)
