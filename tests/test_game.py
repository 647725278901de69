"""Game configuration, strategy profiles, and the three payoff routes."""

from __future__ import annotations

import gc
from unittest import mock

import numpy as np
import pytest
from scipy import sparse as sp

from netinfluence import (
    GameConfig,
    StrategyProfile,
    as_profile,
    assemble_profile,
    best_response_dynamics,
    build_counterexample,
    check_profile,
    consensus_utility,
    diffusion_centrality_matrix,
    evolve,
    exact_best_response,
    greedy_best_response,
    influence_matrix,
    initialize,
    load_graph,
    marginal_gain,
    payoff_table,
    random_graph,
    table_payoffs,
    utility,
    utility_closed_form,
)
from netinfluence import Graph, dynamics
from netinfluence.dynamics import _table_bytes
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
    with pytest.raises(ValueError, match="player 1 lists a seed node more than once"):
        StrategyProfile([(0,), (1,)]).replace(1, [0, 0])


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


def test_check_profile_returns_the_profile_it_checked():
    cfg = two_cycle_config()
    profile = as_profile([{0}, {1}])
    assert check_profile(cfg, profile) is profile
    assert check_profile(cfg, [[0], (1,)]) == profile
    with pytest.raises(ValueError, match="player 1 lists a seed node more than once"):
        check_profile(cfg, [[0], [1, 1]])


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


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 15])
def test_consensus_route_matches_dense_solve_on_a_large_graph(seed):
    # Seed 15 needs a stopping test relative to weights of about 1 / n.
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


def test_consensus_row_is_cached_per_graph_whatever_alpha():
    # c Gamma = c iff c W = c, so every alpha shares the stationary weights of its graph.
    g = random_graph(9, 3, seed=31)
    rows = [payoff_table(GameConfig(g, (1, 1), horizon=1, alpha=a), "consensus") for a in (0.1, 0.9)]
    assert rows[0] is rows[1]


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
    table("b", 100)
    table("c", 100)
    table("a", 100)  # 2400 bytes counted since the clear, within the bound: still cached
    assert len(built) == 10

    @_cache_by_bytes(2000)
    def identity(n):
        return sp.identity(n, format="csc")  # 12n + 4 bytes of values and indices

    first = identity(100)
    identity(10)
    assert identity(100) is first


def test_table_cache_counts_the_graphs_its_keys_keep_alive():
    sizes = (47, 53, 59)  # node counts no other graph here has, to find these among live objects

    def live():
        return sorted(o.node_count for o in gc.get_objects() if isinstance(o, Graph) and o.node_count in sizes)

    @_cache_by_bytes(1000)  # under one graph's arrays: 3n edges of 24 bytes each
    def table(graph):
        return np.zeros(1)

    for n in sizes:
        newest = random_graph(n, 3, seed=n)
        table(newest)
    gc.collect()
    assert live() == [59]  # the newest entry is kept; the older graphs are evicted and freed
    assert table.lookup(newest) is not None and table.lookup(random_graph(47, 3, seed=47)) is None


@pytest.mark.parametrize("threshold", [dynamics.SPARSE_NODE_THRESHOLD, 1], ids=["dense", "csc"])
def test_cached_operator_counts_the_bytes_of_its_entries(threshold):
    g = random_graph(30, 3, seed=1)
    with mock.patch.object(dynamics, "SPARSE_NODE_THRESHOLD", threshold):
        gamma = influence_matrix(g, 0.5)
    if threshold == 1:
        # 30 diagonal and 90 edge entries: float64 values, int32 row indices, 31 column pointers.
        assert gamma.entries.format == "csc" and gamma.entries.nnz == 120
        assert _table_bytes(gamma) == 120 * 8 + 120 * 4 + 31 * 4
    else:
        assert _table_bytes(gamma) == 30 * 30 * 8


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
    # Repeats are reported before the budget both lists would also bust.
    with pytest.raises(ValueError, match="player 0 lists a seed node more than once"):
        marginal_gain(cfg, 0, [1, 1], 0, [{1}])
    with pytest.raises(ValueError, match="player 1 lists a seed node more than once"):
        marginal_gain(cfg, 0, set(), 0, [[1, 1]])


@pytest.mark.parametrize("bad, shown", [(0.5, "0.5"), (1.0, "1.0"), ("1", "'1'"), (np.float64(2.0), repr(np.float64(2.0)))])
def test_every_entry_point_rejects_non_integer_seed_ids(bad, shown):
    from netinfluence import exact_best_response, greedy_best_response, initialize

    cfg = GameConfig(graph=random_graph(10, 3, seed=1), budgets=(2, 2), horizon=2)
    calls = {
        0: [
            lambda: utility(cfg, [[bad], [1]]),
            lambda: utility_closed_form(cfg, [[3, bad], [1]]),
            lambda: exact_best_response(cfg, 1, [[bad]]),
            lambda: greedy_best_response(cfg, 1, [[bad]], regime="consensus"),
            lambda: marginal_gain(cfg, 0, [bad], 3, [{1}]),
            lambda: marginal_gain(cfg, 0, set(), bad, [{1}]),
            lambda: initialize(cfg.graph, [[bad], [1]], cfg.epsilon),
        ],
        1: [
            lambda: consensus_utility(cfg, [[0], [bad]]),
            lambda: exact_best_response(cfg, 0, [[bad]], regime="consensus"),
            lambda: greedy_best_response(cfg, 0, [[4, bad]]),
            lambda: marginal_gain(cfg, 0, set(), 3, [[bad]]),
            lambda: initialize(cfg.graph, [[0], [bad]], cfg.epsilon),
        ],
    }
    for player, entries in calls.items():
        for call in entries:
            with pytest.raises(ValueError) as exc_info:
                call()
            assert str(exc_info.value) == f"player {player} seeds non-integer node id {shown}"


@pytest.mark.parametrize(
    "bad, shown", [(2.5, "2.5"), (2.0, "2.0"), ("2", "'2'"), (np.float64(2.0), repr(np.float64(2.0)))]
)
def test_every_count_rejects_non_integers(bad, shown):
    # Counts take the seed ids' rule (what ``operator.index`` takes): no truncation, no bare TypeError.
    cfg = GameConfig(graph=random_graph(10, 3, seed=1), budgets=(2, 2), horizon=2)
    gamma = influence_matrix(cfg.graph, cfg.alpha)
    state = initialize(cfg.graph, [[0], [1]], cfg.epsilon)
    calls = [
        ("node count", lambda: Graph(bad, [(0, 1, 1.0), (1, 0, 1.0)])),
        ("budget", lambda: GameConfig(cfg.graph, (2, bad), horizon=2)),
        ("horizon", lambda: GameConfig(cfg.graph, (2, 2), horizon=bad)),
        ("t_steps", lambda: evolve(state, gamma, bad)),
        ("t_steps", lambda: diffusion_centrality_matrix(gamma, bad)),
        ("max_rounds", lambda: best_response_dynamics(cfg, [[0], [1]], max_rounds=bad)),
    ]
    for name, call in calls:
        with pytest.raises(ValueError) as exc_info:
            call()
        assert str(exc_info.value) == f"non-integer {name} {shown}"


def test_every_count_takes_numpy_integers_as_ints():
    g = Graph(np.int64(2), [(0, 1, 1.0), (1, 0, 1.0)])
    assert g == TWO_CYCLE and type(g.node_count) is int
    cfg = GameConfig(g, (np.int32(1), np.uint8(1)), horizon=np.int64(3))
    assert cfg == two_cycle_config() and {type(c) for c in (*cfg.budgets, cfg.horizon)} == {int}
    gamma = influence_matrix(g, 0.5)
    state = initialize(g, [[0], [1]], 1e-6)
    assert evolve(state, gamma, np.int16(2)).t == 2
    assert np.array_equal(diffusion_centrality_matrix(gamma, np.int64(2)), diffusion_centrality_matrix(gamma, 2))
    assert best_response_dynamics(cfg, [[0], [1]], max_rounds=np.int64(1)).rounds == 1


@pytest.mark.parametrize(
    "bad, shown", [(2.5, "2.5"), (2.0, "2.0"), ("2", "'2'"), (np.float64(2.0), repr(np.float64(2.0)))]
)
def test_generator_arguments_and_player_indices_reject_non_integers(bad, shown):
    # Before, these raised numpy's AxisError or a bare TypeError, or passed the index check and then failed.
    cfg = GameConfig(graph=random_graph(10, 3, seed=1), budgets=(2, 2, 2), horizon=2)
    calls = [
        ("node count", lambda: random_graph(bad, 1, 1)),
        ("out_degree", lambda: random_graph(10, bad, 1)),
        ("seed", lambda: random_graph(10, 3, bad)),
        ("player count", lambda: build_counterexample(bad, 1)),
        ("budget", lambda: build_counterexample(2, bad)),
        ("player index", lambda: exact_best_response(cfg, bad, [[1], [3]])),
        ("player index", lambda: greedy_best_response(cfg, bad, [[1], [3]], regime="consensus")),
        ("player index", lambda: marginal_gain(cfg, bad, set(), 0, [[1], [3]])),
    ]
    for name, call in calls:
        with pytest.raises(ValueError) as exc_info:
            call()
        assert str(exc_info.value) == f"non-integer {name} {shown}"


def test_generator_arguments_and_player_indices_take_numpy_integers():
    assert random_graph(np.int64(10), np.int32(3), np.uint16(1)) == random_graph(10, 3, 1)
    assert build_counterexample(np.int64(2), np.int8(1)) == build_counterexample(2, 1)
    cfg = GameConfig(graph=random_graph(10, 3, seed=1), budgets=(2, 1), horizon=2)
    for respond in (exact_best_response, greedy_best_response):
        assert respond(cfg, np.int64(1), [[0, 1]]) == respond(cfg, 1, [[0, 1]])
    assert marginal_gain(cfg, np.int32(1), set(), 2, [[0, 1]]) == marginal_gain(cfg, 1, set(), 2, [[0, 1]])


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
