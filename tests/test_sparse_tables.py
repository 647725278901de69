"""Sparse horizon tables against the dense path on the same games.

Patching ``dynamics.SPARSE_NODE_THRESHOLD`` to 1 builds every operator
sparse, so horizon tables start from the operator in compressed sparse
column form and stay so until they fill in.  The graphs below are sparse
enough that their short-horizon tables stay compressed, which puts the
column gather of ``dynamics._columns`` (the kernel's and the CLI's) and the
entries greedy reads (``dynamics._entries``) on the sparse path; every
result must match the dense path's.  A horizon table extends the
highest cached one below it, in either format, and must equal a build from
scratch.
"""

from __future__ import annotations

import contextlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from scipy import sparse as sp

from netinfluence import (
    GameConfig,
    best_response_dynamics,
    diffusion_centrality_matrix,
    dump_graph,
    exact_best_response,
    exhaustive_nash_check,
    greedy_best_response,
    influence_matrix,
    load_graph,
    payoff_table,
    random_graph,
    utility,
    utility_closed_form,
)
from netinfluence import dynamics, game
from netinfluence.cli import main
from netinfluence.game import _opponent_terms, _score
from oracles import exhaustive_nash_oracle

GRAPH = random_graph(60, 2, seed=5)


@contextlib.contextmanager
def sparse_operators(threshold=1):
    """Build operators above ``threshold`` nodes sparse (by default every one), with the
    library's caches empty on entry and exit."""
    caches = (game._mixing_matrix, game._horizon_table, game._consensus_table)
    for cache in caches:
        cache.cache_clear()
    try:
        with mock.patch.object(dynamics, "SPARSE_NODE_THRESHOLD", threshold):
            yield
    finally:
        for cache in caches:
            cache.cache_clear()


def is_csc(table) -> bool:
    return sp.issparse(table) and table.format == "csc"


def test_tables_stay_sparse_until_a_quarter_fills_and_match_dense():
    dense_gamma = influence_matrix(GRAPH, 0.3)
    with sparse_operators():
        sparse_gamma = influence_matrix(GRAPH, 0.3)
    formats = []
    for t in range(13):
        dense = diffusion_centrality_matrix(dense_gamma, t)
        table = diffusion_centrality_matrix(sparse_gamma, t)
        filled = 4 * np.count_nonzero(dense) > GRAPH.node_count**2
        assert is_csc(table) != filled, t
        if is_csc(table):
            table = table.toarray()
        assert np.max(np.abs(table - dense)) <= 1e-12, t
        formats.append(filled)
    # Short horizons stay sparse; the longest ones reach the switch to dense.
    assert formats[:3] == [False] * 3 and formats[-1]


@pytest.mark.parametrize("horizon", [1, 2, 3])
@pytest.mark.parametrize("size", [1, 2])
def test_candidate_payoffs_match_dense(monkeypatch, horizon, size):
    cfg = GameConfig(GRAPH, (3, 2, 2), horizon=horizon)
    others = [frozenset({3, 17}), frozenset({17, 40})]
    nodes = np.array([(v,) for v in range(cfg.n)] if size == 1 else [
        (u, v) for u in range(cfg.n) for v in range(u + 1, cfg.n)
    ], dtype=np.intp)

    def scored(table):
        return _score(table, _opponent_terms(table, others, cfg.epsilon), nodes)

    for chunk_bytes in (game._CHUNK_BYTES, 1):  # 1 byte: one candidate per chunk
        monkeypatch.setattr(game, "_CHUNK_BYTES", chunk_bytes)
        expected = scored(payoff_table(cfg))
        with sparse_operators():
            table = payoff_table(cfg)
            assert is_csc(table)
            got = scored(table)
        assert np.max(np.abs(got - expected)) <= 1e-12


@pytest.mark.parametrize("horizon", [1, 2, 3])
def test_best_responses_match_dense(horizon):
    cfg = GameConfig(GRAPH, (2, 3, 1), horizon=horizon)
    others = [frozenset({8, 21}), frozenset({8})]
    dense = [exact_best_response(cfg, 1, others), greedy_best_response(cfg, 1, others)]
    with sparse_operators():
        assert is_csc(payoff_table(cfg))
        sparse = [exact_best_response(cfg, 1, others), greedy_best_response(cfg, 1, others)]
    for got, ref in zip(sparse, dense):
        assert (got.strategy, got.evaluations) == (ref.strategy, ref.evaluations)
        assert abs(got.payoff - ref.payoff) <= 1e-12


@pytest.mark.parametrize("chunk_bytes", [None, 1])  # 1 byte: one table column per block
def test_greedy_matches_dense(monkeypatch, chunk_bytes):
    if chunk_bytes is not None:
        monkeypatch.setattr(game, "_CHUNK_BYTES", chunk_bytes)
    others = [frozenset({8, 21}), frozenset({8, 30, 41})]
    for horizon in (1, 2, 3):
        cfg = GameConfig(GRAPH, (2, 6, 3), horizon=horizon)
        dense = greedy_best_response(cfg, 1, others)
        with sparse_operators():
            assert is_csc(payoff_table(cfg))
            got = greedy_best_response(cfg, 1, others)
        assert (got.strategy, got.evaluations) == (dense.strategy, dense.evaluations), horizon
        assert abs(got.payoff - dense.payoff) <= 1e-12, horizon


def test_greedy_memory_stays_within_chunks_on_a_sparse_table():
    cfg = GameConfig(random_graph(3000, 4, 1), (4, 4), horizon=3)
    with sparse_operators(dynamics.SPARSE_NODE_THRESHOLD):
        table = payoff_table(cfg)  # the cached table is not the response's memory
        assert is_csc(table)
        tracemalloc.start()
        try:
            greedy_best_response(cfg, 1, [{0, 1, 2, 3}])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    # Measured: 1.78 MB, under seven chunks: a block's columns, its temporaries and some
    # n-vectors.  The table's 251k entries take 3.0 MB, and each temporary of a pass
    # over all of them at once would take 2.0 MB.
    assert peak < 8 * game._CHUNK_BYTES + 16 * 8 * cfg.n


def test_equilibrium_search_matches_dense():
    g = random_graph(40, 2, seed=11)
    cfg = GameConfig(g, (1, 1), horizon=1)
    dynamics_cfg = GameConfig(g, (2, 1), horizon=2)
    dense = exhaustive_nash_check(cfg)
    dense_play = best_response_dynamics(dynamics_cfg, [{0, 1}, {2}])
    with sparse_operators():
        assert is_csc(payoff_table(cfg)) and is_csc(payoff_table(dynamics_cfg))
        found = exhaustive_nash_check(cfg)
        play = best_response_dynamics(dynamics_cfg, [{0, 1}, {2}])
    assert dense and found == dense
    assert (play.kind, play.profile) == (dense_play.kind, dense_play.profile)
    assert dense_play.trace and [m[:3] for m in play.trace] == [m[:3] for m in dense_play.trace]
    assert max(abs(a.delta - b.delta) for a, b in zip(play.trace, dense_play.trace)) <= 1e-12


@pytest.mark.parametrize(
    "graph, budgets",
    [
        (random_graph(10, 1, seed=1), (2, 1)),  # a ring: hundreds of exactly tied equilibria
        (random_graph(12, 2, seed=3), (1, 1)),
        (random_graph(12, 2, seed=3), (1, 2, 1)),
        (load_graph("nodes 2\nedge 0 1 1.0\nedge 1 0 1.0\n"), (2, 2, 1)),  # budgets over n
    ],
    ids=["ring", "two-player", "three-player", "two-cycle"],
)
def test_exhaustive_matches_oracle_one_candidate_per_chunk(monkeypatch, graph, budgets):
    """A 1-byte chunk scores one candidate against one opponent combination at a time."""
    cfg = GameConfig(graph, budgets, horizon=1)
    monkeypatch.setattr(game, "_CHUNK_BYTES", 1)
    for regime in ("horizon", "consensus"):
        expected = exhaustive_nash_oracle(cfg, regime)
        assert [p.canonical() for p in exhaustive_nash_check(cfg, regime=regime)] == expected
        with sparse_operators():
            table = payoff_table(cfg, regime)
            assert is_csc(table) == (regime == "horizon" and graph.node_count > 2)
            found = exhaustive_nash_check(cfg, regime=regime)
        assert [p.canonical() for p in found] == expected, regime


def test_centrality_horizon_prints_identically(capsys, tmp_path):
    path = tmp_path / "rand.graph"
    path.write_text(dump_graph(GRAPH))
    argv = ["centrality", "--graph", str(path), "--horizon", "2", "--structured"]

    def payload():
        assert main(argv) == 0
        out = capsys.readouterr().out
        return [line for line in out.splitlines() if not line.startswith("time_ms")]

    dense = payload()
    with sparse_operators():
        assert is_csc(diffusion_centrality_matrix(influence_matrix(GRAPH, 0.5), 2))
        sparse = payload()
    assert sparse == dense


FORMATS = pytest.mark.parametrize("threshold", [1, dynamics.SPARSE_NODE_THRESHOLD], ids=["csc", "dense"])
PROFILE = [frozenset({3, 17}), frozenset({40})]


def horizon_cfg(h):
    return GameConfig(GRAPH, (2, 1), horizon=h, alpha=0.3)


def requested(order):
    """Table and closed-form payoffs at each horizon of ``order``, requested in that order."""
    return {h: (payoff_table(horizon_cfg(h)), utility_closed_form(horizon_cfg(h), PROFILE)) for h in order}


def from_scratch(threshold, horizons):
    """``requested`` with the horizon-table cache emptied before each horizon."""
    built = {}
    with sparse_operators(threshold):
        for h in horizons:
            game._horizon_table.cache_clear()
            built.update(requested([h]))
    return built


def assert_same(got, expected):
    for h, (table, pay) in expected.items():
        assert is_csc(got[h][0]) == is_csc(table), h
        dense = [t.toarray() if is_csc(t) else t for t in (got[h][0], table)]
        assert np.array_equal(*dense) and np.array_equal(got[h][1], pay), h


@FORMATS
@pytest.mark.parametrize("order", [(4, 2, 3, 1, 6), (1, 2, 3, 4, 5, 6), (6, 5, 4, 3, 2, 1)])
def test_extended_tables_equal_tables_built_from_the_identity(threshold, order):
    expected = from_scratch(threshold, order)
    with sparse_operators(threshold):
        got = requested(order)
    assert_same(got, expected)
    if threshold == 1:  # the sweep crosses the switch to dense
        assert is_csc(got[1][0]) and not is_csc(got[6][0])


@FORMATS
def test_extending_a_table_leaves_the_lower_one_unchanged(threshold):
    with sparse_operators(threshold):
        lower = payoff_table(horizon_cfg(2))
        arrays = (lower.data, lower.indices, lower.indptr) if is_csc(lower) else (lower,)
        before = [a.copy() for a in arrays]
        payoff_table(horizon_cfg(5))
        assert game._horizon_table.lookup(GRAPH, 0.3, 2) is lower
        assert all(np.array_equal(a, b) for a, b in zip(arrays, before))


@FORMATS
def test_lower_tables_evicted_mid_sweep_give_the_same_tables(monkeypatch, threshold):
    order = (2, 4, 1, 3, 6, 5)
    expected = from_scratch(threshold, order)
    # A 1-byte budget keeps only the newest table, so each horizon extends the one
    # requested just before it, if lower, and starts from scratch otherwise.
    tiny = game._cache_by_bytes(1)(game._horizon_table.__wrapped__)
    monkeypatch.setattr(game, "_horizon_table", tiny)
    with sparse_operators(threshold):
        got = {}
        for previous, h in zip((None,) + order, order):
            got.update(requested([h]))
            assert previous is None or tiny.lookup(GRAPH, 0.3, previous) is None
    assert_same(got, expected)


@FORMATS
def test_a_horizon_sweep_runs_one_product_per_horizon(monkeypatch, threshold):
    steps = []
    build = game.diffusion_centrality_matrix

    def counted(gamma, t_steps, **kw):
        steps.append(t_steps)  # one operator product per step
        return build(gamma, t_steps, **kw)

    monkeypatch.setattr(game, "diffusion_centrality_matrix", counted)
    with sparse_operators(threshold):
        requested((1, 2, 3, 4))
    assert steps == [1, 1, 1, 1]  # 3 products plus the operator; from scratch each time, 0 + 1 + 2 + 3 = 6


@pytest.mark.parametrize("seed", [1, 2])
def test_simulation_matches_extended_tables_on_a_large_graph(seed):
    graph = random_graph(3000, 4, seed)
    profile = [{1, 2, 3}, {10, 20, 30}]
    with sparse_operators(dynamics.SPARSE_NODE_THRESHOLD):
        for h in range(1, 7):
            cfg = GameConfig(graph, (3, 3), horizon=h)
            assert np.max(np.abs(utility(cfg, profile) - utility_closed_form(cfg, profile))) <= 1e-10, h
        assert is_csc(payoff_table(GameConfig(graph, (3, 3), horizon=1)))
