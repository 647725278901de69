"""Best responses, improvement dynamics, and equilibrium search."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from netinfluence import (
    IMPROVEMENT_TOL,
    EnumerationCapError,
    GameConfig,
    StrategyProfile,
    best_response_dynamics,
    build_counterexample,
    consensus_equilibrium,
    consensus_utility,
    exact_best_response,
    exhaustive_nash_check,
    greedy_best_response,
    load_graph,
    payoff_table,
    random_graph,
    utility,
    utility_closed_form,
)
from netinfluence import dynamics, solver
from oracles import dynamics_oracle, greedy_oracle, singleton_equilibria_oracle, stationary_oracle

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


def test_exact_evaluation_count_and_cap(monkeypatch):
    g = random_graph(10, 3, seed=43)
    cfg = GameConfig(graph=g, budgets=(3, 1), horizon=2)
    br = exact_best_response(cfg, 0, [{9}])
    assert br.evaluations == math.comb(10, 3)
    monkeypatch.setattr(solver, "EXACT_ENUMERATION_CAP", 10)
    with pytest.raises(EnumerationCapError, match=r"over the cap of 10 \(EXACT_ENUMERATION_CAP\)"):
        exact_best_response(cfg, 0, [{9}])


@pytest.mark.parametrize("chunk_bytes", [None, 1])  # None: the default; 1 byte: one row per block
def test_combination_blocks_follow_itertools(monkeypatch, chunk_bytes):
    if chunk_bytes is not None:
        monkeypatch.setattr(solver, "_CHUNK_BYTES", chunk_bytes)
    cases = [(n, b) for n in range(1, 10) for b in range(1, n + 1)]
    for n, b in cases + [(70, 68)]:  # C(70, 34) and up overflow int64
        blocks = list(solver._combinations(n, b))
        assert all(block.shape[1] == b for block in blocks)
        if chunk_bytes is not None:
            assert all(len(block) == 1 for block in blocks)
        assert np.concatenate(blocks).tolist() == [list(c) for c in itertools.combinations(range(n), b)]


def test_exact_validates_opponents():
    cfg = GameConfig(graph=TWO_CYCLE, budgets=(1, 1), horizon=1)
    with pytest.raises(ValueError, match="opposing seed sets"):
        exact_best_response(cfg, 0, [{1}, {0}])
    with pytest.raises(ValueError, match="player index"):
        exact_best_response(cfg, 5, [{1}])


@pytest.mark.parametrize("respond", [exact_best_response, greedy_best_response])
@pytest.mark.parametrize("regime", ["horizon", "consensus"])
@pytest.mark.parametrize("budgets, i, opponents, player", [
    ((2, 2), 1, [[3, 3, 5]], 0),  # three ids over a budget of two: the repeat is reported first
    ((2, 2, 2), 0, [{1}, [4, 4]], 2),
    ((2, 2, 2), 2, [{1}, [4, 4]], 1),
], ids=["over-budget", "third-player", "second-player"])
def test_responses_reject_a_repeated_opponent_seed(respond, regime, budgets, i, opponents, player):
    cfg = GameConfig(graph=random_graph(10, 3, seed=1), budgets=budgets, horizon=2)
    with pytest.raises(ValueError, match=f"^player {player} lists a seed node more than once$"):
        respond(cfg, i, opponents, regime=regime)


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


@pytest.mark.parametrize("horizon, held", [(1, True), (2, True), (8, False)])
def test_greedy_matches_oracle_holding_or_streaming_entries(horizon, held):
    cfg = GameConfig(graph=random_graph(40, 2, seed=19), budgets=(3, 2), horizon=horizon)
    table = payoff_table(cfg)
    # A dense table under a third full is held; a full one streams its entries on each step.
    assert (dynamics._held_entries(table, solver._chunk_items(1)) is not None) == held
    br = greedy_best_response(cfg, 0, [{5, 9}])
    payoff, best, evaluations = greedy_oracle(table, 0, [{5, 9}], cfg.epsilon, 3)
    assert (br.strategy, br.evaluations) == (frozenset(best), evaluations)
    assert abs(br.payoff - payoff) <= 1e-12


def test_greedy_memory_stays_within_the_table_when_it_holds_a_dense_tables_entries():
    cfg = GameConfig(random_graph(300, 4, seed=1), (6, 6), horizon=3)
    table = payoff_table(cfg)  # the cached table is not the response's memory
    nonzeros = np.count_nonzero(table)
    assert 3 * nonzeros < table.size
    tracemalloc.start()
    try:
        greedy_best_response(cfg, 1, [set(range(6))])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Measured: 0.99 MB.  The table is 24% full, and its 22k held entries take 0.53 MB, against
    # the table's own 0.72 MB; the rest is a block's temporaries and some n-vectors.
    assert 24 * nonzeros < table.nbytes
    assert peak < table.nbytes + 2 * solver._CHUNK_BYTES + 16 * 8 * cfg.n


def test_greedy_memory_on_a_full_dense_table_stays_within_the_sparse_bound(traced_peak):
    cfg = GameConfig(random_graph(300, 4, seed=1), (6, 6), horizon=8)
    table = payoff_table(cfg)  # the cached table is not the response's memory
    assert np.count_nonzero(table) == table.size  # full, so its entries are streamed
    peak = traced_peak(greedy_best_response, cfg, 1, [set(range(6))])
    # Measured: 0.74 MB.  Blocks of a whole chunk's cells made about five arrays that size
    # apiece, and peaked at 2.9 MB; the CSC path's bound is the same.
    assert peak < 8 * solver._CHUNK_BYTES + 16 * 8 * cfg.n


# --- improvement dynamics ----------------------------------------------------


def test_dynamics_stays_put_at_an_equilibrium():
    cfg = GameConfig(graph=TWO_CYCLE, budgets=(1, 1), horizon=3)
    outcome = best_response_dynamics(cfg, [{0}, {1}])
    assert outcome.kind == "equilibrium"
    assert outcome.profile == StrategyProfile([{0}, {1}])
    assert outcome.trace == ()
    assert outcome.rounds == 1


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


def test_dynamics_counts_round_start_profiles_until_a_cycle():
    g = build_counterexample(2, 1)
    cfg = GameConfig(graph=g, budgets=(1, 1), horizon=1)
    outcome = best_response_dynamics(cfg, [{0}, {0}])
    assert outcome.kind == "cycle_detected"
    # Play capped at r rounds ends at the profile that starts round r + 1.
    starts = [StrategyProfile([{0}, {0}])]
    while True:
        capped = best_response_dynamics(cfg, [{0}, {0}], max_rounds=len(starts))
        assert capped.rounds == len(starts)
        if capped.kind == "cycle_detected":
            break
        assert capped.kind == "max_rounds_exhausted"
        starts.append(capped.profile)
    assert len(set(starts)) == len(starts) > 1
    assert outcome.rounds == len(starts)
    assert outcome.profile in starts


def test_dynamics_round_budget_exhaustion():
    g = build_counterexample(2, 1)
    cfg = GameConfig(graph=g, budgets=(1, 1), horizon=1)
    outcome = best_response_dynamics(cfg, [{0}, {0}], max_rounds=2)
    assert outcome.kind == "max_rounds_exhausted"
    assert outcome.rounds == 2
    assert len(outcome.trace) <= 2 * cfg.m
    with pytest.raises(ValueError, match="max_rounds must be at least one"):
        best_response_dynamics(cfg, [{0}, {0}], max_rounds=0)


def test_dynamics_trace_moves_are_consistent():
    g = build_counterexample(2, 1)
    cfg = GameConfig(graph=g, budgets=(1, 1), horizon=1)
    outcome = best_response_dynamics(cfg, [{0}, {0}])
    current = StrategyProfile([{0}, {0}])
    for move in outcome.trace:
        assert frozenset(current.canonical()[move.player]) == move.old
        current = current.replace(move.player, move.new)
    assert current == outcome.profile


def test_dynamics_greedy_mode_runs():
    g = random_graph(9, 3, seed=67)
    cfg = GameConfig(graph=g, budgets=(2, 2), horizon=1)
    outcome = best_response_dynamics(cfg, [{0, 1}, {2, 3}], use_exact=False, regime="consensus")
    assert outcome.kind in {"equilibrium", "cycle_detected", "max_rounds_exhausted"}


@pytest.mark.parametrize("regime", ["horizon", "consensus"])
@pytest.mark.parametrize("use_exact", [True, False], ids=["exact", "greedy"])
@pytest.mark.parametrize(
    "graph, budgets, horizon, initial",
    [
        (build_counterexample(2, 1), (1, 1), 1, [{0}, {0}]),
        (build_counterexample(2, 2), (2, 2), 2, [{0, 1}, {3, 4}]),
        (random_graph(9, 2, seed=4), (2, 2), 2, [{0, 1}, {2, 3}]),
        (random_graph(8, 3, seed=61), (2, 1), 3, [{0, 1}, {2}]),
        (random_graph(7, 2, seed=13), (1, 1, 1), 1, [{0}, {1}, {2}]),
    ],
)
def test_dynamics_matches_oracle(graph, budgets, horizon, initial, use_exact, regime):
    # The oracle asks every query afresh, one ``table_payoffs`` call per candidate.
    cfg = GameConfig(graph=graph, budgets=budgets, horizon=horizon)
    outcome = best_response_dynamics(cfg, initial, use_exact=use_exact, regime=regime)
    kind, profile, moves, rounds = dynamics_oracle(cfg, initial, use_exact=use_exact, regime=regime)
    assert (outcome.kind, outcome.profile.canonical(), outcome.rounds) == (kind, profile, rounds)
    assert [m[:3] for m in outcome.trace] == [m[:3] for m in moves]
    assert all(abs(m.delta - move[3]) <= 1e-12 for m, move in zip(outcome.trace, moves))


def test_dynamics_asks_each_response_once(monkeypatch):
    cfg = GameConfig(graph=build_counterexample(2, 2), budgets=(2, 2), horizon=2)
    asked = []

    def counted(cfg, i, s_minus_i, **kwargs):
        asked.append((i, tuple(frozenset(s) for s in s_minus_i)))
        return exact_best_response(cfg, i, s_minus_i, **kwargs)

    monkeypatch.setattr(solver, "exact_best_response", counted)
    outcome = best_response_dynamics(cfg, [{0, 1}, {0, 1}])
    assert outcome.kind == "cycle_detected"
    # A cycle returns to queries already answered; each is computed only once.
    assert outcome.rounds * cfg.m > len(asked) == len(set(asked))


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
    assert all(type(v) is int for profile in found for s in profile for v in s)
    assert repr(found[0]) == "StrategyProfile([[0], [0]])"


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
    g = random_graph(6, 2, seed=2)
    cfg = GameConfig(graph=g, budgets=(2, 1), horizon=2)
    found = exhaustive_nash_check(cfg)
    assert found  # one equilibrium, ({2, 5}, {2})
    for profile in found:
        outcome = best_response_dynamics(cfg, profile)
        assert outcome.kind == "equilibrium"
        assert outcome.trace == ()


def test_exhaustive_memory_stays_near_the_payoffs_array():
    cfg = GameConfig(graph=build_counterexample(2, 2), budgets=(2, 2), horizon=2)
    payoff_table(cfg)  # the cached table is not the check's memory
    tracemalloc.start()
    try:
        found = exhaustive_nash_check(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found == []
    payoffs = 8 * cfg.m * math.comb(cfg.n, 2) ** 2  # 706 KB for the 44,100 profiles
    # Measured: 1.47 MB, about three chunks above the payoffs array.  Scoring all
    # 210 candidates against all 210 opponent sets at once takes 7.4 MB per temporary.
    assert peak < payoffs + 4 * solver._CHUNK_BYTES


def test_exhaustive_later_passes_score_only_live_combinations(monkeypatch):
    cfg = GameConfig(graph=build_counterexample(2, 2), budgets=(2, 2), horizon=2)
    scored = {}  # candidate array -> opponent combinations scored against it
    score = solver._score

    def spy(table, terms, nodes):
        out = score(table, terms, nodes)
        scored[id(nodes)] = scored.get(id(nodes), 0) + len(out)
        return out

    monkeypatch.setattr(solver, "_score", spy)
    assert exhaustive_nash_check(cfg) == []
    first, second = scored.values()
    # Player 1's pass scores only player 0's options that best-respond to something.
    assert first == math.comb(cfg.n, 2) > second


def test_exhaustive_memory_stays_near_the_mask():
    cfg = GameConfig(graph=random_graph(30, 3, seed=1), budgets=(2, 2), horizon=2)
    profiles = math.comb(cfg.n, 2) ** 2  # 189,225
    payoff_table(cfg)
    tracemalloc.start()
    try:
        exhaustive_nash_check(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Measured: 1.67 MB, the 0.19 MB mask and under six chunks of blocks and their temporaries.
    # A pass's whole payoff array, 8 bytes a profile before its cut to a mask, would pass 3 MB.
    assert peak < 2 * profiles + 7 * solver._CHUNK_BYTES


def test_exhaustive_cap_is_enforced(monkeypatch):
    g = random_graph(12, 3, seed=79)
    cfg = GameConfig(graph=g, budgets=(4, 4), horizon=1)
    monkeypatch.setattr(solver, "PROFILE_ENUMERATION_CAP", 1000)
    with pytest.raises(EnumerationCapError, match=r"exceed the cap of 1000 \(PROFILE_ENUMERATION_CAP\)"):
        exhaustive_nash_check(cfg)


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


@given(
    st.integers(4, 8),
    st.integers(1, 3),
    st.integers(0, 10**6),
    st.integers(1, 2),
    st.sampled_from([0.1, 0.5, 0.9]),
)
def test_three_player_consensus_equilibrium_is_among_exhaustive_results(
    n, degree, seed, budget, alpha
):
    # Equal budgets: the heaviest-first construction alone is often no
    # equilibrium here, so best-response play has to finish the job.
    g = random_graph(n, degree, seed=seed)
    cfg = GameConfig(graph=g, budgets=(budget,) * 3, horizon=1, alpha=alpha)
    eq = consensus_equilibrium(cfg)
    assert eq.verified
    assert eq.profile in exhaustive_nash_check(cfg, regime="consensus")
    assert list(eq.payoffs) == list(consensus_utility(cfg, eq.profile))


def test_consensus_best_response_scores_nodes_not_sets():
    # C(5000, 5) is about 2.6e16 seed sets, far over the enumeration cap; at
    # consensus the exact response sorts the 5,000 node scores instead.
    cfg = GameConfig(graph=random_graph(5000, 4, seed=1), budgets=(5, 5), horizon=1)
    br = exact_best_response(cfg, 1, [{0, 1, 2, 3, 4}], regime="consensus")
    assert len(br.strategy) == 5
    assert br.evaluations == 5000
    greedy = greedy_best_response(cfg, 1, [{0, 1, 2, 3, 4}], regime="consensus")
    assert greedy.payoff <= br.payoff + IMPROVEMENT_TOL


def test_consensus_equilibrium_is_verified_on_an_800_node_game():
    # Enumeration would score 319,600 seed sets per response here.
    cfg = GameConfig(graph=random_graph(800, 4, seed=1), budgets=(2, 2), horizon=1)
    eq = consensus_equilibrium(cfg)
    assert eq.verified
    for i in range(2):
        others = [eq.profile[1 - i]]
        for respond in (exact_best_response, greedy_best_response):
            assert respond(cfg, i, others, regime="consensus").payoff <= eq.payoffs[i] + IMPROVEMENT_TOL


def test_consensus_equilibrium_is_deterministic():
    g = random_graph(8, 2, seed=89)
    cfg = GameConfig(graph=g, budgets=(2, 2), horizon=1)
    a = consensus_equilibrium(cfg)
    b = consensus_equilibrium(cfg)
    assert a.profile == b.profile
    assert np.array_equal(a.payoffs, b.payoffs)
