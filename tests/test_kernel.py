"""The batched candidate-scoring kernel and the sorting consensus responder
against the per-candidate loops they replaced.

Random small games: random strongly connected graphs, and directed rings whose
opponents seed every ``d``-th node, so that rotating a candidate by ``d``
gives an exactly tied payoff.  The two-cycle and the ring-with-petals graph of
``build_counterexample(2, 1)`` are symmetric too, so many seed sets tie
exactly there.  Opponents may share seeds.  The kernel and exact-scan checks run
with the small-table product of ``solver._score`` off and on, whatever the table's size.
"""

from __future__ import annotations

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from netinfluence import (
    EquilibriumVerificationError,
    GameConfig,
    Graph,
    build_counterexample,
    consensus_equilibrium,
    diffusion_centrality_matrix,
    exact_best_response,
    exhaustive_nash_check,
    greedy_best_response,
    influence_matrix,
    payoff_table,
    random_graph,
    table_payoffs,
)
from netinfluence import solver
from netinfluence.game import assemble_profile
from netinfluence.solver import _opponent_terms, _score
from oracles import consensus_best_oracle, exhaustive_nash_oracle, greedy_oracle, scan_best_oracle

REGIMES = ("horizon", "consensus")
PRODUCT_RATIOS = (0, math.inf)  # solver._PRODUCT_NODES_PER_SEED: the small-table product never, then always


def product(ratio):
    return mock.patch("netinfluence.solver._PRODUCT_NODES_PER_SEED", ratio)


@st.composite
def games(draw, max_nodes=9, max_players=3, max_budget=3):
    """A game config, a responding player and their opponents' seed sets."""
    m = draw(st.integers(2, max_players))
    kind = draw(st.sampled_from(["ring", "random", "two_cycle", "counterexample"]))
    if kind == "ring":
        period = draw(st.integers(2, 3))
        n = period * draw(st.integers(2, max(2, max_nodes // period)))
        graph = Graph(n, tuple((v, (v + 1) % n, 1.0) for v in range(n)))
        others = [
            frozenset(range(draw(st.integers(0, period - 1)), n, period)) for _ in range(m - 1)
        ]
    else:
        if kind == "random":
            n = draw(st.integers(3, max_nodes))
            graph = random_graph(n, draw(st.integers(1, min(3, n - 1))), draw(st.integers(0, 10**6)))
        elif kind == "two_cycle":
            graph = Graph(2, ((0, 1, 1.0), (1, 0, 1.0)))
        else:
            graph = build_counterexample(2, 1)
        nodes = st.integers(0, graph.node_count - 1)
        others = [
            frozenset(draw(st.lists(nodes, min_size=1, max_size=max_budget, unique=True)))
            for _ in range(m - 1)
        ]
    i = draw(st.integers(0, m - 1))
    budgets = [len(s) for s in others]
    budgets.insert(i, draw(st.integers(1, max_budget)))
    cfg = GameConfig(
        graph,
        tuple(budgets),
        horizon=draw(st.integers(1, 4)),
        alpha=draw(st.sampled_from([0.1, 0.5, 0.9])),
        epsilon=draw(st.sampled_from([1e-6, 1e-3, 0.4 / m])),
    )
    return cfg, i, others


@given(games())
def test_kernel_matches_table_payoffs(game):
    cfg, i, others = game
    for regime, ratio in itertools.product(REGIMES, PRODUCT_RATIOS):
        table = payoff_table(cfg, regime)
        terms = _opponent_terms(table, others, cfg.epsilon)
        for size in range(1, min(cfg.budgets[i], cfg.n) + 1):
            candidates = list(itertools.combinations(range(cfg.n), size))
            nodes = np.array(candidates, dtype=np.intp)
            with product(ratio):
                pays = _score(table, terms, nodes)[0]
            for cand, pay in zip(candidates, pays):
                ref = table_payoffs(table, assemble_profile(i, cand, others), cfg.epsilon)[i]
                assert abs(pay - ref) <= 1e-12, (regime, ratio, cand)


@given(games())
def test_best_responses_match_per_candidate_scan(game):
    """Horizon-regime exact and greedy responses in both regimes against the per-candidate
    scans, also with one candidate, or one table column, per block and chunk, so that ties
    fall across block boundaries; exact consensus responses against scoring every full-budget set."""
    cfg, i, others = game
    b = min(cfg.budgets[i], cfg.n)

    def scanned():
        return [exact_best_response(cfg, i, others)] + [
            greedy_best_response(cfg, i, others, regime=regime) for regime in REGIMES
        ]

    with mock.patch.object(solver, "_scan_best", scan_best_oracle):
        expected = scanned()[0]
    for ratio in PRODUCT_RATIOS:
        with product(ratio):
            fast = scanned()
            assert fast[0] == expected, ratio
            with mock.patch("netinfluence.solver._CHUNK_BYTES", 1):
                assert fast == scanned(), ratio
    for regime, br in zip(REGIMES, fast[1:]):
        payoff, best, evaluations = greedy_oracle(payoff_table(cfg, regime), i, others, cfg.epsilon, b)
        assert br == solver.BestResponse(frozenset(best), payoff, evaluations), regime

    br = exact_best_response(cfg, i, others, regime="consensus")
    table = payoff_table(cfg, "consensus")
    payoff, best, _ = consensus_best_oracle(table, i, others, cfg.epsilon, b)
    assert br.strategy == frozenset(best)
    assert abs(br.payoff - payoff) <= 1e-12
    assert br.evaluations == cfg.n


def _equilibrium_or_error(cfg):
    try:
        eq = consensus_equilibrium(cfg)
    except EquilibriumVerificationError as exc:
        return str(exc)
    assert eq.verified
    return eq.profile, list(eq.payoffs)


@given(games())
def test_consensus_construction_matches_per_candidate_scan(game):
    cfg, _, _ = game
    fast = _equilibrium_or_error(cfg)
    with mock.patch.object(solver, "_consensus_best", consensus_best_oracle):
        assert fast == _equilibrium_or_error(cfg)


@given(games(max_nodes=6, max_budget=2))
def test_exhaustive_matches_per_profile_check(game):
    cfg, _, _ = game
    if math.prod(math.comb(cfg.n, min(b, cfg.n)) for b in cfg.budgets) > 3000:
        cfg = GameConfig(cfg.graph, (1,) * cfg.m, cfg.horizon, cfg.alpha, cfg.epsilon)
    for regime in REGIMES:
        found = [p.canonical() for p in exhaustive_nash_check(cfg, regime=regime)]
        assert found == exhaustive_nash_oracle(cfg, regime), regime


@pytest.mark.parametrize("ratio", PRODUCT_RATIOS, ids=["batched", "product"])
@pytest.mark.parametrize("size", [1, 2, 3])
def test_exact_scan_of_a_csc_table_matches_the_dense_oracle(ratio, size):
    """An operator built sparse gives a compressed sparse column table at short horizons;
    both kernel paths must score it as the per-candidate scan scores the dense table."""
    graph = random_graph(40, 2, seed=5)
    others = [frozenset({3, 17}), frozenset({17, 30})]
    with mock.patch("netinfluence.dynamics.SPARSE_NODE_THRESHOLD", 1):
        table = diffusion_centrality_matrix(influence_matrix(graph, 0.5), 2)
    assert table.format == "csc"
    dense = table.toarray()
    combinations = list(solver._combinations(graph.node_count, size))
    expected = scan_best_oracle(dense, 1, others, 1e-6, combinations)
    with product(ratio), mock.patch("netinfluence.solver._CHUNK_BYTES", 1 << 12):  # several chunks
        found = solver._scan_best(table, 1, others, 1e-6, combinations)
    assert found[1:] == expected[1:]
    assert abs(found[0] - expected[0]) <= 1e-12
