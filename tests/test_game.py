"""Game configuration, strategy profiles, and the three payoff routes."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse as sp

from netinfluence import (
    GameConfig,
    StrategyProfile,
    as_profile,
    assemble_profile,
    build_counterexample,
    check_profile,
    consensus_utility,
    load_graph,
    marginal_gain,
    payoff_table,
    random_graph,
    table_payoffs,
    utility,
    utility_closed_form,
)
from netinfluence.game import _cache_by_bytes
from oracles import payoffs_oracle

TWO_CYCLE = load_graph("nodes 2\nedge 0 1 1.0\nedge 1 0 1.0\n")


def two_cycle_config(**kw):
    defaults = dict(graph=TWO_CYCLE, budgets=(1, 1), horizon=3)
    defaults.update(kw)
    return GameConfig(**defaults)


# --- configuration and profile validation ------------------------------------


def test_config_properties_and_defaults():
    cfg = two_cycle_config()
    assert cfg.m == 2 and cfg.n == 2
    assert cfg.alpha == 0.5 and cfg.epsilon == 1e-6
    assert cfg.budgets == (1, 1)


def test_config_coerces_budget_sequence():
    cfg = GameConfig(graph=TWO_CYCLE, budgets=[2, 1, 1], horizon=1)
    assert cfg.budgets == (2, 1, 1) and cfg.m == 3


@pytest.mark.parametrize(
    "kw, fragment",
    [
        (dict(budgets=(1,)), "two players"),
        (dict(budgets=(1, 0)), "at least one"),
        (dict(horizon=0), "horizon"),
        (dict(alpha=0.0), "alpha"),
        (dict(alpha=1.0), "alpha"),
        (dict(epsilon=0.0), "epsilon"),
        (dict(epsilon=0.25), "epsilon"),
    ],
)
def test_config_rejects_bad_parameters(kw, fragment):
    with pytest.raises(ValueError, match=fragment):
        two_cycle_config(**kw)


def test_profile_equality_ignores_seed_order():
    a = StrategyProfile([(1, 0), (2,)])
    b = StrategyProfile([(0, 1), (2,)])
    assert a == b and hash(a) == hash(b)
    assert a.canonical() == ((0, 1), (2,))


def test_profile_rejects_duplicate_seeds():
    with pytest.raises(ValueError, match="more than once"):
        StrategyProfile([(0, 0), (1,)])


def test_profile_replace_is_functional():
    a = StrategyProfile([(0,), (1,)])
    b = a.replace(1, (0,))
    assert b.canonical() == ((0,), (0,)) and a.canonical() == ((0,), (1,))


def test_as_profile_accepts_sets_and_passthrough():
    p = as_profile([{1, 0}, {2}])
    assert isinstance(p, StrategyProfile)
    assert as_profile(p) is p


def test_check_profile_enforces_budget_and_nodes():
    cfg = two_cycle_config()
    check_profile(cfg, as_profile([{0}, {1}]))
    with pytest.raises(ValueError, match="budget"):
        check_profile(cfg, as_profile([{0, 1}, {1}]))
    with pytest.raises(ValueError, match="unknown node"):
        check_profile(cfg, as_profile([{0}, {5}]))
    with pytest.raises(ValueError, match="players"):
        check_profile(cfg, as_profile([{0}, {1}, {0}]))
    with pytest.raises(ValueError, match="empty"):
        check_profile(cfg, as_profile([{0}, set()]))
    check_profile(cfg, as_profile([{0}, set()]), require_nonempty=False)


# --- simulated utility -------------------------------------------------------


def test_two_cycle_split_is_even():
    cfg = two_cycle_config()
    pi = utility(cfg, [{0}, {1}])
    assert abs(pi[0] - 0.5) < 1e-15 and abs(pi[1] - 0.5) < 1e-15


def test_identical_seed_sets_share_evenly():
    g = random_graph(9, 2, seed=11)
    cfg = GameConfig(graph=g, budgets=(2, 2, 2), horizon=5)
    pi = utility(cfg, [{1, 4}, {1, 4}, {1, 4}])
    assert np.max(np.abs(pi - 1.0 / 3.0)) < 1e-12


def test_shared_single_node_splits_evenly():
    g = random_graph(7, 2, seed=13)
    cfg = GameConfig(graph=g, budgets=(1, 1), horizon=4)
    pi = utility(cfg, [{3}, {3}])
    assert np.max(np.abs(pi - 0.5)) < 1e-12


def test_utility_matches_explicit_simulation_oracle():
    g = random_graph(11, 3, seed=17)
    cfg = GameConfig(graph=g, budgets=(2, 1), horizon=6)
    profile = [{0, 5}, {8}]
    ours = utility(cfg, profile)
    theirs = payoffs_oracle(g, 0.5, 1e-6, 6, profile)
    assert np.max(np.abs(ours - theirs)) < 1e-12


def test_player_permutation_equivariance():
    g = random_graph(10, 3, seed=19)
    cfg = GameConfig(graph=g, budgets=(2, 2), horizon=5)
    a, b = {0, 3}, {7, 2}
    direct = utility(cfg, [a, b])
    swapped = utility(cfg, [b, a])
    assert abs(direct[0] - swapped[1]) < 1e-12
    assert abs(direct[1] - swapped[0]) < 1e-12


def test_constant_sum_fuzz():
    rng = np.random.default_rng(99)
    for trial in range(200):
        n = int(rng.integers(3, 20))
        g = random_graph(n, int(rng.integers(1, min(4, n))), seed=int(rng.integers(1_000_000)))
        m = int(rng.integers(2, 4))
        budgets = tuple(int(rng.integers(1, 4)) for _ in range(m))
        cfg = GameConfig(graph=g, budgets=budgets, horizon=int(rng.integers(1, 11)))
        profile = [
            set(rng.choice(n, size=min(b, n), replace=False).tolist()) for b in budgets
        ]
        assert abs(sum(utility(cfg, profile)) - 1.0) < 1e-9, f"trial {trial}"


def test_utility_validates_profile():
    cfg = two_cycle_config()
    with pytest.raises(ValueError, match="budget"):
        utility(cfg, [{0, 1}, {1}])


# --- closed form and consensus routes ----------------------------------------


def test_closed_form_agrees_with_simulation_fuzz():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(3, 18))
        g = random_graph(n, int(rng.integers(1, min(4, n))), seed=int(rng.integers(1_000_000)))
        m = int(rng.integers(2, 4))
        budgets = tuple(int(rng.integers(1, 4)) for _ in range(m))
        cfg = GameConfig(graph=g, budgets=budgets, horizon=int(rng.integers(1, 11)))
        profile = [
            set(rng.choice(n, size=min(b, n), replace=False).tolist()) for b in budgets
        ]
        sim = utility(cfg, profile)
        closed = utility_closed_form(cfg, profile)
        assert np.max(np.abs(sim - closed)) < 1e-10


def test_payoff_kernel_matches_simulation_oracle_fuzz():
    # Every player seeds a shared node; table_payoffs also sees one idle player.
    rng = np.random.default_rng(2024)
    for trial in range(150):
        n = int(rng.integers(3, 12))
        g = random_graph(n, int(rng.integers(1, min(4, n))), seed=int(rng.integers(1_000_000)))
        m = int(rng.integers(2, 4))
        alpha = float(rng.uniform(0.1, 0.9))
        cfg = GameConfig(graph=g, budgets=(3,) * m, horizon=int(rng.integers(1, 9)), alpha=alpha)
        shared = int(rng.integers(n))
        sets = [
            frozenset([shared, *rng.choice(n, size=int(rng.integers(0, 3)), replace=False).tolist()])
            for _ in range(m)
        ]
        table = payoff_table(cfg)
        expected = payoffs_oracle(g, alpha, cfg.epsilon, cfg.horizon, sets)
        assert np.max(np.abs(table_payoffs(table, sets, cfg.epsilon) - expected)) < 1e-12, trial
        assert np.max(np.abs(utility(cfg, sets) - expected)) < 1e-12, trial
        idle = int(rng.integers(m))
        sets[idle] = frozenset()
        expected = payoffs_oracle(g, alpha, cfg.epsilon, cfg.horizon, sets)
        assert np.max(np.abs(table_payoffs(table, sets, cfg.epsilon) - expected)) < 1e-12, trial


def test_consensus_route_matches_long_simulation():
    g = random_graph(8, 3, seed=23)
    cfg_long = GameConfig(graph=g, budgets=(2, 1), horizon=10_000)
    cfg_any = GameConfig(graph=g, budgets=(2, 1), horizon=1)
    profile = [{0, 4}, {6}]
    limit = consensus_utility(cfg_any, profile)
    long_run = utility(cfg_long, profile)
    assert np.max(np.abs(limit - long_run)) < 1e-6


def test_consensus_route_even_split_on_doubly_stochastic_cycle():
    g = random_graph(6, 1, seed=3)
    cfg = GameConfig(graph=g, budgets=(1, 1), horizon=1)
    pi = consensus_utility(cfg, [{0}, {3}])
    assert np.max(np.abs(pi - 0.5)) < 1e-12


def test_consensus_route_rewards_heavier_stationary_weight():
    from oracles import stationary_oracle

    g = random_graph(9, 3, seed=31)
    weights = stationary_oracle(g, 0.5)
    heavy = int(np.argmax(weights))
    light = int(np.argmin(weights))
    assert weights[heavy] > weights[light] + 1e-9
    cfg = GameConfig(graph=g, budgets=(1, 1), horizon=1)
    pi = consensus_utility(cfg, [{heavy}, {light}])
    assert pi[0] > pi[1]


def test_consensus_route_matches_dense_solve_at_small_alpha():
    from oracles import initial_opinions_oracle, stationary_solve_oracle

    g = random_graph(80, 4, seed=2)
    cfg = GameConfig(graph=g, budgets=(2, 3), horizon=1, alpha=0.001)
    sets = [{0, 7}, {3, 11, 40}]
    weights = stationary_solve_oracle(g, cfg.alpha)
    strengths = weights @ initial_opinions_oracle(g, sets, cfg.epsilon)
    expected = strengths / strengths.sum()
    assert np.max(np.abs(consensus_utility(cfg, sets) - expected)) < 1e-10


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_consensus_route_matches_dense_solve_on_a_large_graph(seed):
    from oracles import initial_opinions_oracle, stationary_solve_oracle

    g = random_graph(3000, 4, seed=seed)
    cfg = GameConfig(graph=g, budgets=(3, 3), horizon=1)
    sets = [{1, 2, 3}, {10, 20, 30}]
    strengths = stationary_solve_oracle(g, cfg.alpha) @ initial_opinions_oracle(g, sets, cfg.epsilon)
    expected = strengths / strengths.sum()
    assert np.max(np.abs(consensus_utility(cfg, sets) - expected)) < 1e-10


# --- shared payoff-table plumbing --------------------------------------------


def test_payoff_table_is_cached_per_config():
    cfg = two_cycle_config()
    assert payoff_table(cfg) is payoff_table(cfg)
    assert payoff_table(cfg, regime="consensus") is payoff_table(cfg, regime="consensus")
    with pytest.raises(ValueError, match="regime"):
        payoff_table(cfg, regime="instant")


def test_table_cache_evicts_least_recently_used_bytes_first():
    built = []

    @_cache_by_bytes(3 * 800)
    def table(key, floats):
        built.append(key)
        return np.zeros(floats)

    first = table("a", 100)
    table("b", 100)
    assert table("a", 100) is first
    table("c", 100)
    table("d", 100)  # 3200 bytes held: "b" is the least recently used
    table("a", 100)
    table("b", 100)
    assert built == ["a", "b", "c", "d", "b"]
    huge = table("huge", 1000)  # over the bound alone: kept, everything else evicted
    assert table("huge", 1000) is huge
    table("a", 100)
    assert built[-2:] == ["huge", "a"]
    table.cache_clear()
    table("a", 100)
    assert built[-1] == "a" and len(built) == 8

    @_cache_by_bytes(2000)
    def identity(n):
        return sp.identity(n, format="csc")  # 12n + 4 bytes of values and indices

    first = identity(100)
    identity(10)
    assert identity(100) is first


def test_horizon_table_shape_and_consensus_table_shape():
    g = random_graph(5, 2, seed=2)
    cfg = GameConfig(graph=g, budgets=(1, 1), horizon=4)
    assert payoff_table(cfg).shape == (5, 5)
    assert payoff_table(cfg, regime="consensus").shape == (1, 5)


def test_table_payoffs_all_empty_splits_evenly():
    cfg = two_cycle_config()
    pi = table_payoffs(payoff_table(cfg), [frozenset(), frozenset()], cfg.epsilon)
    assert np.max(np.abs(pi - 0.5)) < 1e-15


def test_single_empty_strategy_gets_epsilon_share():
    # The unseeded node's epsilon leaves the idle player a sliver of payoff.
    cfg = two_cycle_config()
    pi = table_payoffs(payoff_table(cfg), [frozenset({0}), frozenset()], cfg.epsilon)
    assert pi[0] > pi[1] > 0
    assert abs(pi.sum() - 1.0) < 1e-12


def test_empty_strategy_with_everything_seeded_gets_nothing():
    cfg = two_cycle_config()
    pi = table_payoffs(payoff_table(cfg), [frozenset({0, 1}), frozenset()], cfg.epsilon)
    assert pi[0] == 1.0 and pi[1] == 0.0


# --- marginal gains ----------------------------------------------------------


def test_marginal_gain_equals_direct_difference():
    g = random_graph(10, 3, seed=41)
    cfg = GameConfig(graph=g, budgets=(3, 2), horizon=5)
    others = [{7, 2}]
    partial = {0}
    v = 4
    gain = marginal_gain(cfg, 0, partial, v, others)
    with_v = utility_closed_form(cfg, assemble_profile(0, partial | {v}, others))[0]
    without = utility_closed_form(cfg, assemble_profile(0, partial, others))[0]
    assert abs(gain - (with_v - without)) < 1e-14


def test_marginal_gain_from_empty_partial():
    cfg = two_cycle_config()
    gain = marginal_gain(cfg, 0, set(), 0, [{1}])
    base = table_payoffs(payoff_table(cfg), [frozenset(), frozenset({1})], cfg.epsilon)[0]
    full = utility_closed_form(cfg, [{0}, {1}])[0]
    assert abs(gain - (full - base)) < 1e-14


def test_marginal_gain_error_paths():
    cfg = two_cycle_config()
    with pytest.raises(ValueError, match="already"):
        marginal_gain(cfg, 0, {0}, 0, [{1}])
    with pytest.raises(ValueError, match="unknown node"):
        marginal_gain(cfg, 0, set(), 9, [{1}])
    with pytest.raises(ValueError, match="player index"):
        marginal_gain(cfg, 2, set(), 0, [{1}])
    with pytest.raises(ValueError, match="opposing seed sets"):
        marginal_gain(cfg, 0, set(), 0, [{1}, {1}])
    with pytest.raises(ValueError, match="unknown node"):
        marginal_gain(cfg, 0, set(), 0, [{-1}])
    with pytest.raises(ValueError, match="unknown node"):
        marginal_gain(cfg, 0, set(), 0, [{2}])


def test_gains_are_nonnegative_and_diminishing_fuzz():
    # Adding a seed never hurts, and gains shrink as the partial set grows.
    rng = np.random.default_rng(55)
    for _ in range(40):
        n = int(rng.integers(4, 14))
        g = random_graph(n, int(rng.integers(1, min(4, n))), seed=int(rng.integers(1_000_000)))
        cfg = GameConfig(graph=g, budgets=(3, 2), horizon=int(rng.integers(1, 8)))
        others = [set(rng.choice(n, size=2, replace=False).tolist())]
        small = set()
        big_extra = int(rng.integers(n))
        big = {big_extra}
        v = int(rng.integers(n))
        if v == big_extra:
            continue
        gain_small = marginal_gain(cfg, 0, small, v, others)
        gain_big = marginal_gain(cfg, 0, big, v, others)
        assert gain_small >= -1e-12
        assert gain_big <= gain_small + 1e-12


def test_assemble_profile_inserts_at_player_slot():
    p = assemble_profile(1, {5}, [{0}, {2}])
    assert p == (frozenset({0}), frozenset({5}), frozenset({2}))
