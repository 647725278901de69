"""Best responses, improvement dynamics, and equilibrium search."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from netinfluence import (
    EnumerationCapError,
    GameConfig,
    StrategyProfile,
    as_profile,
    best_response_dynamics,
    build_counterexample,
    consensus_equilibrium,
    consensus_utility,
    exact_best_response,
    exhaustive_nash_check,
    greedy_best_response,
    load_graph,
    random_graph,
    utility,
    utility_closed_form,
)
from oracles import singleton_equilibria_oracle, stationary_oracle

TWO_CYCLE = load_graph("nodes 2\nedge 0 1 1.0\nedge 1 0 1.0\n")


# --- exact best response -----------------------------------------------------


def test_exact_ties_break_to_lowest_ids():
    # On the symmetric two-node cycle every singleton reply ties at one half,
    # so the scan must keep the first candidate in ascending order.
    cfg = GameConfig(graph=TWO_CYCLE, budgets=(1, 1), horizon=3)
    br = exact_best_response(cfg, 0, [{1}])
    assert br.strategy == frozenset({0})
    assert abs(br.payoff - 0.5) < 1e-12
    assert br.evaluations == 2


def test_exact_matches_brute_force_enumeration():
    g = random_graph(9, 3, seed=37)
    cfg = GameConfig(graph=g, budgets=(2, 2), horizon=4)
    opponent = [{1, 6}]
    br = exact_best_response(cfg, 0, opponent)
    best_pay = -1.0
    for combo in itertools.combinations(range(9), 2):
        pay = utility_closed_form(cfg, [set(combo), {1, 6}])[0]
        best_pay = max(best_pay, pay)
    assert abs(br.payoff - best_pay) < 1e-12
    assert abs(utility(cfg, [set(br.strategy), {1, 6}])[0] - best_pay) < 1e-10


def test_exact_on_counterexample_prefers_chasing():
    # Against a single central seed, the winning reply is another central node.
    g = build_counterexample(2, 1)
    cfg = GameConfig(graph=g, budgets=(1, 1), horizon=1)
    br = exact_best_response(cfg, 1, [{1}])
    assert br.strategy < frozenset(range(5))
    assert br.payoff > 0.5


def test_exact_with_saturating_budget_shares_evenly():
    g = random_graph(5, 2, seed=41)
    cfg = GameConfig(graph=g, budgets=(5, 5), horizon=3)
    br = exact_best_response(cfg, 0, [set(range(5))])
    assert br.strategy == frozenset(range(5))
    assert abs(br.payoff - 0.5) < 1e-12
    assert br.evaluations == 1


def test_exact_evaluation_count_and_cap():
    g = random_graph(10, 3, seed=43)
    cfg = GameConfig(graph=g, budgets=(3, 1), horizon=2)
    br = exact_best_response(cfg, 0, [{9}])
    assert br.evaluations == math.comb(10, 3)
    with pytest.raises(EnumerationCapError, match="cap"):
        exact_best_response(cfg, 0, [{9}], cap=10)


def test_exact_validates_opponents():
    cfg = GameConfig(graph=TWO_CYCLE, budgets=(1, 1), horizon=1)
    with pytest.raises(ValueError, match="opposing seed sets"):
        exact_best_response(cfg, 0, [{1}, {0}])
    with pytest.raises(ValueError, match="player index"):
        exact_best_response(cfg, 5, [{1}])


# --- greedy best response ----------------------------------------------------


def test_greedy_equals_exact_for_unit_budget():
    for seed in (3, 5, 8):
        g = random_graph(8, 2, seed=seed)
        cfg = GameConfig(graph=g, budgets=(1, 1), horizon=4)
        exact = exact_best_response(cfg, 0, [{0}])
        greedy = greedy_best_response(cfg, 0, [{0}])
        assert greedy.strategy == exact.strategy
        assert abs(greedy.payoff - exact.payoff) < 1e-14


def test_greedy_never_beats_exact_and_hits_approximation_bound():
    bound = 1.0 - 1.0 / math.e
    worst = 1.0
    for seed in range(12):
        g = random_graph(10, 3, seed=100 + seed)
        cfg = GameConfig(graph=g, budgets=(3, 2), horizon=4)
        opponent = [{seed % 10, (seed + 4) % 10}]
        exact = exact_best_response(cfg, 0, opponent)
        greedy = greedy_best_response(cfg, 0, opponent)
        assert greedy.payoff <= exact.payoff + 1e-12
        worst = min(worst, greedy.payoff / exact.payoff)
    assert worst >= bound


def test_greedy_evaluation_count():
    g = random_graph(10, 3, seed=53)
    cfg = GameConfig(graph=g, budgets=(3, 1), horizon=2)
    greedy = greedy_best_response(cfg, 0, [{9}])
    assert greedy.evaluations == 10 + 9 + 8
    assert len(greedy.strategy) == 3


# --- improvement dynamics ----------------------------------------------------


def test_dynamics_stays_put_at_an_equilibrium():
    cfg = GameConfig(graph=TWO_CYCLE, budgets=(1, 1), horizon=3)
    outcome = best_response_dynamics(cfg, [{0}, {1}])
    assert outcome.kind == "equilibrium"
    assert outcome.profile == as_profile([{0}, {1}])
    assert outcome.trace == ()


def test_dynamics_finds_equilibrium_in_consensus_regime():
    g = random_graph(8, 3, seed=61)
    cfg = GameConfig(graph=g, budgets=(1, 1), horizon=1)
    outcome = best_response_dynamics(cfg, [{0}, {1}], regime="consensus")
    assert outcome.kind == "equilibrium"
    equilibria = exhaustive_nash_check(cfg, regime="consensus")
    assert outcome.profile in equilibria


def test_dynamics_detects_cycle_on_counterexample():
    g = build_counterexample(2, 1)
    cfg = GameConfig(graph=g, budgets=(1, 1), horizon=1)
    outcome = best_response_dynamics(cfg, [{0}, {0}])
    assert outcome.kind == "cycle_detected"
    assert len(outcome.trace) > 0
    # Every logged move strictly improves the mover's payoff.
    for move in outcome.trace:
        assert move.delta > 0


def test_dynamics_round_budget_exhaustion():
    g = build_counterexample(2, 1)
    cfg = GameConfig(graph=g, budgets=(1, 1), horizon=1)
    outcome = best_response_dynamics(cfg, [{0}, {0}], max_rounds=2)
    assert outcome.kind == "max_rounds_exhausted"
    assert len(outcome.trace) <= 2 * cfg.m


def test_dynamics_trace_moves_are_consistent():
    g = build_counterexample(2, 1)
    cfg = GameConfig(graph=g, budgets=(1, 1), horizon=1)
    outcome = best_response_dynamics(cfg, [{0}, {0}])
    current = as_profile([{0}, {0}])
    for move in outcome.trace:
        assert frozenset(current.canonical()[move.player]) == move.old
        current = current.replace(move.player, move.new)
    assert current == outcome.profile


def test_dynamics_order_seed_is_reproducible():
    g = build_counterexample(2, 1)
    cfg = GameConfig(graph=g, budgets=(1, 1), horizon=1)
    first = best_response_dynamics(cfg, [{0}, {0}], order_seed=5)
    second = best_response_dynamics(cfg, [{0}, {0}], order_seed=5)
    assert first.kind == second.kind
    assert first.trace == second.trace
    assert first.profile == second.profile


def test_dynamics_greedy_mode_runs():
    g = random_graph(9, 3, seed=67)
    cfg = GameConfig(graph=g, budgets=(2, 2), horizon=1)
    outcome = best_response_dynamics(cfg, [{0, 1}, {2, 3}], use_exact=False, regime="consensus")
    assert outcome.kind in {"equilibrium", "cycle_detected", "max_rounds_exhausted"}


# --- exhaustive search -------------------------------------------------------


def _oracle_canonical(entries):
    return {tuple(tuple(sorted(s)) for s in e) for e in entries}


def test_exhaustive_matches_singleton_oracle_on_two_cycle():
    cfg = GameConfig(graph=TWO_CYCLE, budgets=(1, 1), horizon=3)
    found = exhaustive_nash_check(cfg)
    oracle = _oracle_canonical(singleton_equilibria_oracle(TWO_CYCLE, 0.5, 1e-6, 3, 2))
    assert {p.canonical() for p in found} == oracle
    # All four singleton profiles tie, so all four are equilibria.
    assert len(found) == 4


def test_exhaustive_matches_singleton_oracle_on_random_graphs():
    for seed in (2, 9, 15):
        g = random_graph(6, 2, seed=seed)
        cfg = GameConfig(graph=g, budgets=(1, 1), horizon=3)
        found = {p.canonical() for p in exhaustive_nash_check(cfg)}
        assert found == _oracle_canonical(singleton_equilibria_oracle(g, 0.5, 1e-6, 3, 2))


def test_exhaustive_results_are_lexicographically_sorted():
    g = random_graph(7, 2, seed=71)
    cfg = GameConfig(graph=g, budgets=(1, 1), horizon=1)
    found = [p.canonical() for p in exhaustive_nash_check(cfg, regime="consensus")]
    assert found == sorted(found)
    assert len(found) > 0


def test_exhaustive_finds_nothing_on_counterexample():
    g = build_counterexample(2, 1)
    cfg = GameConfig(graph=g, budgets=(1, 1), horizon=1)
    assert exhaustive_nash_check(cfg) == []


def test_exhaustive_profiles_are_true_fixed_points():
    g = random_graph(6, 2, seed=73)
    cfg = GameConfig(graph=g, budgets=(2, 1), horizon=2)
    for profile in exhaustive_nash_check(cfg):
        outcome = best_response_dynamics(cfg, profile)
        assert outcome.kind == "equilibrium"
        assert outcome.trace == ()


def test_exhaustive_cap_is_enforced():
    g = random_graph(12, 3, seed=79)
    cfg = GameConfig(graph=g, budgets=(4, 4), horizon=1)
    with pytest.raises(EnumerationCapError, match="cap"):
        exhaustive_nash_check(cfg, cap=1000)


# --- consensus-regime equilibrium construction -------------------------------


def test_consensus_equilibrium_on_two_cycle():
    cfg = GameConfig(graph=TWO_CYCLE, budgets=(1, 1), horizon=1)
    eq = consensus_equilibrium(cfg)
    assert eq.verified
    assert eq.profile.canonical() == ((0,), (0,))
    assert np.max(np.abs(eq.payoffs - 0.5)) < 1e-12


def test_consensus_equilibrium_is_among_exhaustive_results():
    for budget, seed in [(1, 5), (1, 11), (2, 17), (2, 23)]:
        g = random_graph(7, 2, seed=seed)
        cfg = GameConfig(graph=g, budgets=(budget, budget), horizon=1)
        eq = consensus_equilibrium(cfg)
        assert eq.verified
        equilibria = exhaustive_nash_check(cfg, regime="consensus")
        assert eq.profile in equilibria
        expected = consensus_utility(cfg, eq.profile)
        assert np.max(np.abs(eq.payoffs - expected)) < 1e-12


def _hub_graph(spokes: int = 5):
    # Every spoke listens only to the hub; the hub averages the spokes.  The
    # stationary weights are strongly top-heavy (hub 0.5, spokes 0.1 each).
    lines = [f"nodes {spokes + 1}"]
    for k in range(1, spokes + 1):
        lines.append(f"edge {k} 0 {1.0 / spokes}")
        lines.append(f"edge 0 {k} 1.0")
    return load_graph("\n".join(lines) + "\n")


def test_consensus_equilibrium_largest_budget_takes_top_weights():
    # With a dominant hub the larger-budget player is placed first and claims
    # the two heaviest nodes; the other player then stacks on the hub.
    g = _hub_graph()
    weights = stationary_oracle(g, 0.5)
    assert weights[0] > max(weights[1:]) + 0.1
    cfg = GameConfig(graph=g, budgets=(1, 2), horizon=1)
    eq = consensus_equilibrium(cfg)
    assert eq.verified
    assert eq.profile.canonical() == ((0,), (0, 1))
    assert eq.profile in exhaustive_nash_check(cfg, regime="consensus")


def test_consensus_construction_failure_is_diagnosed():
    # Mismatched budgets on a flat weight profile can leave the stationary
    # game with no pure equilibrium at all; the constructor must say so
    # loudly rather than return a profile that fails its own deviation check.
    from netinfluence import EquilibriumVerificationError

    g = random_graph(9, 3, seed=83)
    cfg = GameConfig(graph=g, budgets=(1, 2), horizon=1)
    assert exhaustive_nash_check(cfg, regime="consensus") == []
    with pytest.raises(EquilibriumVerificationError, match="deviating"):
        consensus_equilibrium(cfg)


def test_consensus_equilibrium_is_deterministic():
    g = random_graph(8, 2, seed=89)
    cfg = GameConfig(graph=g, budgets=(2, 2), horizon=1)
    a = consensus_equilibrium(cfg)
    b = consensus_equilibrium(cfg)
    assert a.profile == b.profile
    assert np.array_equal(a.payoffs, b.payoffs)
