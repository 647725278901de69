"""Best responses, improvement dynamics, and equilibrium search.

All comparisons between strategies treat payoff differences below
``IMPROVEMENT_TOL`` as ties, so solver outputs are reproducible bit-for-bit:
enumeration orders are fixed, ties break toward lexicographically smallest
seed sets (lowest node id for the greedy scan).
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
    """A profile expected to be an equilibrium failed the deviation check."""


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
    """Best payoff, best candidate and candidates scored for player ``i``; earliest wins ties."""
    best_pay = -math.inf
    best = None
    total = 0
    for cand in candidates:
        pay = table_payoffs(table, assemble_profile(i, cand, others), epsilon)[i]
        total += 1
        if pay > best_pay + IMPROVEMENT_TOL:
            best_pay, best = pay, cand
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
    chosen: set[int] = set()
    payoff = -math.inf
    evaluations = 0
    for _ in range(b):
        candidates = (tuple(sorted(chosen | {v})) for v in range(cfg.n) if v not in chosen)
        pay, best, count = _scan_best(table, i, others, cfg.epsilon, candidates)
        evaluations += count
        chosen = set(best)
        payoff = pay
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
    options = [
        list(itertools.combinations(range(cfg.n), min(b, cfg.n))) for b in cfg.budgets
    ]
    shape = tuple(len(o) for o in options)
    total = math.prod(shape)
    if total > cap:
        raise EnumerationCapError(
            f"{total} profiles exceed the cap of {cap}; shrink the instance or raise the cap"
        )
    table = payoff_table(cfg, regime)
    payoffs = np.empty(shape + (cfg.m,))
    for idx in itertools.product(*(range(k) for k in shape)):
        sets = tuple(frozenset(options[j][idx[j]]) for j in range(cfg.m))
        payoffs[idx] = table_payoffs(table, sets, cfg.epsilon)

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
    """A constructed stationary-regime equilibrium with its payoffs.

    ``verified`` is True when the full deviation check ran and passed; on
    instances too large to check, the profile is returned unverified.
    """

    profile: StrategyProfile
    payoffs: np.ndarray
    verified: bool


def consensus_equilibrium(
    cfg: GameConfig,
    cap: int = EXACT_ENUMERATION_CAP,
    verify_cap: int = 250_000,
) -> ConsensusEquilibrium:
    """Construct a pure equilibrium of the stationary-regime game.

    Players are processed in descending budget order: the first claims the
    highest-weight nodes outright (stationary weight ties break toward lower
    node ids), and each later player plays an exact best response to the
    profile built so far under stationary payoffs.  When the total deviation
    count fits under ``verify_cap``, the result is deviation-checked before
    being returned.

    Raises:
        EquilibriumVerificationError: if verification runs and finds a
            profitable deviation — that indicates a bug, not a property of
            the instance.
        EnumerationCapError: when a best-response enumeration exceeds ``cap``.
    """
    weights = payoff_table(cfg, "consensus")[0]
    player_order = sorted(range(cfg.m), key=lambda j: (-cfg.budgets[j], j))
    node_order = sorted(range(cfg.n), key=lambda v: (-weights[v], v))
    table = payoff_table(cfg, "consensus")

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
    payoffs = table_payoffs(table, profile.strategies, cfg.epsilon)

    verified = False
    deviation_count = sum(math.comb(cfg.n, min(b, cfg.n)) for b in cfg.budgets)
    if deviation_count <= verify_cap:
        for j in range(cfg.m):
            others = [s for k, s in enumerate(profile.strategies) if k != j]
            br = exact_best_response(cfg, j, others, regime="consensus", cap=cap)
            if br.payoff > payoffs[j] + IMPROVEMENT_TOL:
                raise EquilibriumVerificationError(
                    f"player {j} improves from {payoffs[j]:.12g} to {br.payoff:.12g} "
                    f"by deviating to {sorted(br.strategy)}"
                )
        verified = True
    return ConsensusEquilibrium(profile, payoffs, verified)
