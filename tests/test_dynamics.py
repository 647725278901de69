"""Mixing operator, opinion evolution, influence tables, stationary weights."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import sparse as sp

from netinfluence import (
    PowerIterationError,
    build_counterexample,
    consensus_reached,
    diffusion_centrality_matrix,
    eigenvector_weights,
    evolve,
    influence_matrix,
    initialize,
    load_graph,
    random_graph,
)
from netinfluence import dynamics
from oracles import (
    build_mixing,
    drifting_path,
    initial_opinions_oracle,
    stationary_oracle,
    stationary_power_oracle,
    stationary_solve_oracle,
    weighted_ring,
)

TWO_CYCLE = load_graph("nodes 2\nedge 0 1 1.0\nedge 1 0 1.0\n")


# --- mixing operator ---------------------------------------------------------


def test_two_cycle_operator_entries():
    gamma = influence_matrix(TWO_CYCLE, 0.5)
    assert np.array_equal(gamma.entries, np.array([[0.5, 0.5], [0.5, 0.5]]))


def test_row_sums_are_one_for_any_alpha():
    g = random_graph(17, 3, seed=4)
    gamma = influence_matrix(g, 0.25)
    assert np.max(np.abs(gamma.row_sums() - 1.0)) < 1e-12


def test_counterexample_central_rows_by_hand():
    # Central rows: one half retained, one quarter each from the ring
    # predecessor and the right petal.
    g = build_counterexample(2, 1)
    gamma = influence_matrix(g, 0.5)
    mu = 5
    for i in range(mu):
        row = np.asarray(gamma.entries)[i]
        expected = np.zeros(15)
        expected[i] = 0.5
        expected[(i - 1) % mu] = 0.25
        expected[mu + 2 * i + 1] = 0.25
        assert np.array_equal(row, expected)


def test_operator_matches_independent_assembly():
    g = random_graph(12, 3, seed=9)
    gamma = influence_matrix(g, 0.3)
    assert np.max(np.abs(np.asarray(gamma.entries) - build_mixing(g, 0.3))) < 1e-15


def test_sparse_and_dense_agree(monkeypatch):
    g = random_graph(25, 4, seed=2)
    dense = influence_matrix(g, 0.5)
    monkeypatch.setattr(dynamics, "SPARSE_NODE_THRESHOLD", 24)
    sparse = influence_matrix(g, 0.5)
    assert sp.issparse(sparse.entries) and not sp.issparse(dense.entries)
    assert np.max(np.abs(sparse.entries.toarray() - dense.entries)) < 1e-15
    state = initialize(g, [{0, 3}, {5}], 1e-6)
    out_dense = evolve(state, dense, 7).opinions
    out_sparse = evolve(state, sparse, 7).opinions
    assert np.max(np.abs(out_dense - out_sparse)) < 1e-13


@given(
    st.integers(2, 30),
    st.integers(1, 4),
    st.integers(0, 10**6),
    st.sampled_from([0.001, 0.3, 0.5, 0.999]),
)
def test_operator_entries_are_bit_identical_to_assembly(n, degree, seed, alpha):
    g = random_graph(n, min(degree, n - 1), seed=seed)
    expected = build_mixing(g, alpha)
    dense = influence_matrix(g, alpha).entries
    assert not sp.issparse(dense)
    assert dense.tobytes() == expected.tobytes()
    with mock.patch.object(dynamics, "SPARSE_NODE_THRESHOLD", 1):
        sparse = influence_matrix(g, alpha).entries
    assert sp.issparse(sparse) and sparse.format == "csr"
    assert sparse.nnz == len(g.edges) + n
    assert sparse.toarray().tobytes() == expected.tobytes()


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
def test_alpha_out_of_range_rejected(alpha):
    with pytest.raises(ValueError, match="alpha"):
        influence_matrix(TWO_CYCLE, alpha)


def test_invalid_graph_rejected():
    bad = load_graph("nodes 3\nedge 0 1 1.0\nedge 1 2 0.4\nedge 0 2 0.4\nedge 2 0 1.0\n")
    with pytest.raises(ValueError, match="fails validation"):
        influence_matrix(bad, 0.5)
    with pytest.raises(ValueError, match="3 nodes need at least 3 edges"):
        influence_matrix(load_graph("nodes 3\nedge 0 1 1.0\nedge 1 0 1.0\n"), 0.5)


# --- initial opinions --------------------------------------------------------


def test_initialize_shared_and_exclusive_and_unseeded():
    g = random_graph(6, 2, seed=1)
    state = initialize(g, [{0, 2}, {0}, {4}], epsilon=1e-6)
    assert state.t == 0
    x = state.opinions
    assert x.shape == (6, 3)
    # Node 0 is seeded by players 0 and 1: half each, nothing for player 2.
    assert list(x[0]) == [0.5, 0.5, 0.0]
    # Exclusive seeds carry the full unit.
    assert list(x[2]) == [1.0, 0.0, 0.0]
    assert list(x[4]) == [0.0, 0.0, 1.0]
    # Unseeded nodes hold epsilon toward every player.
    for v in (1, 3, 5):
        assert list(x[v]) == [1e-6, 1e-6, 1e-6]


def test_initialize_matches_oracle():
    g = random_graph(9, 2, seed=5)
    seed_sets = [{1, 7}, {3, 7}]
    ours = initialize(g, seed_sets, 1e-4).opinions
    assert np.array_equal(ours, initial_opinions_oracle(g, seed_sets, 1e-4))


@pytest.mark.parametrize("epsilon", [0.0, -1e-6, 0.25, 0.5])
def test_initialize_epsilon_bounds(epsilon):
    with pytest.raises(ValueError, match="epsilon"):
        initialize(TWO_CYCLE, [{0}, {1}], epsilon)


def test_initialize_unknown_node_rejected():
    with pytest.raises(ValueError, match="unknown node"):
        initialize(TWO_CYCLE, [{0}, {2}], 1e-6)


def test_initialize_rejects_repeated_ids_and_no_players():
    with pytest.raises(ValueError, match="player 1 lists a seed node more than once"):
        initialize(TWO_CYCLE, [{0}, [1, 1]], 1e-6)
    with pytest.raises(ValueError, match="need at least one player"):
        initialize(TWO_CYCLE, [], 1e-6)


# --- evolution ---------------------------------------------------------------


def test_single_step_two_cycle():
    gamma = influence_matrix(TWO_CYCLE, 0.5)
    state = initialize(TWO_CYCLE, [{0}, {1}], 1e-6)
    after = evolve(state, gamma, 1)
    assert after.t == 1
    assert np.allclose(after.opinions, 0.5, atol=1e-15)
    # The input state is untouched.
    assert state.t == 0 and state.opinions[0, 0] == 1.0


def test_single_step_counterexample_row_by_hand():
    # Seeds at central nodes 0 and 3; node 1 is fed by node 0 (1/4), its own
    # epsilon (1/2), and its right petal's epsilon (1/4).
    g = build_counterexample(2, 1)
    gamma = influence_matrix(g, 0.5)
    eps = 1e-6
    state = initialize(g, [{0}, {3}], eps)
    after = evolve(state, gamma, 1)
    assert abs(after.opinions[1, 0] - (0.5 * eps + 0.25 * 1.0 + 0.25 * eps)) < 1e-15
    # Toward player 1 node 0 contributes zero, so only the epsilon terms remain.
    assert abs(after.opinions[1, 1] - 0.75 * eps) < 1e-15


def test_uniform_state_is_fixed_point():
    g = random_graph(8, 2, seed=3)
    gamma = influence_matrix(g, 0.5)
    from netinfluence import OpinionState

    uniform = OpinionState(0, np.tile([0.3, 0.7], (8, 1)))
    out = evolve(uniform, gamma, 1)
    assert np.max(np.abs(out.opinions - uniform.opinions)) < 1e-14


def test_evolve_zero_steps_is_identity():
    gamma = influence_matrix(TWO_CYCLE, 0.5)
    state = initialize(TWO_CYCLE, [{0}, {1}], 1e-6)
    same = evolve(state, gamma, 0)
    assert same.t == 0
    assert np.array_equal(same.opinions, state.opinions)


def test_evolve_semigroup_property():
    g = random_graph(10, 3, seed=6)
    gamma = influence_matrix(g, 0.4)
    state = initialize(g, [{0, 1}, {2}], 1e-6)
    combined = evolve(state, gamma, 9)
    split = evolve(evolve(state, gamma, 4), gamma, 5)
    assert combined.t == split.t == 9
    assert np.max(np.abs(combined.opinions - split.opinions)) < 1e-14


def test_evolve_rejects_bad_arguments():
    gamma = influence_matrix(TWO_CYCLE, 0.5)
    state = initialize(TWO_CYCLE, [{0}, {1}], 1e-6)
    with pytest.raises(ValueError, match="non-negative"):
        evolve(state, gamma, -1)
    other = initialize(random_graph(5, 1, seed=7), [{0}, {1}], 1e-6)
    with pytest.raises(ValueError, match="nodes"):
        evolve(other, gamma, 1)


def test_opinions_stay_inside_initial_box():
    g = random_graph(12, 3, seed=12)
    gamma = influence_matrix(g, 0.5)
    state = initialize(g, [{0, 5}, {2}], 1e-6)
    low = state.opinions.min(axis=0)
    high = state.opinions.max(axis=0)
    for _ in range(25):
        state = evolve(state, gamma, 1)
        assert np.all(state.opinions.min(axis=0) >= low - 1e-15)
        assert np.all(state.opinions.max(axis=0) <= high + 1e-15)
        low = state.opinions.min(axis=0)
        high = state.opinions.max(axis=0)


def test_weighted_mass_is_conserved():
    # The stationary-weighted average of each player's column never moves.
    g = random_graph(15, 3, seed=13)
    gamma = influence_matrix(g, 0.5)
    c = stationary_oracle(g, 0.5)
    state = initialize(g, [{0, 1}, {9}], 1e-6)
    mass = c @ state.opinions
    for _ in range(100):
        state = evolve(state, gamma, 1)
    assert np.max(np.abs(c @ state.opinions - mass)) < 1e-10


def test_long_run_reaches_flat_columns():
    g = random_graph(8, 2, seed=21)
    gamma = influence_matrix(g, 0.5)
    state = initialize(g, [{0}, {3}], 1e-6)
    final = evolve(state, gamma, 10_000)
    spread = final.opinions.max(axis=0) - final.opinions.min(axis=0)
    assert np.max(spread) < 1e-8
    assert consensus_reached(final, 1e-8)


# --- influence vectors: columns of the influence table ----------------------


def test_influence_vector_zero_steps_is_indicator():
    gamma = influence_matrix(random_graph(6, 2, seed=1), 0.5)
    expected = np.zeros(6)
    expected[4] = 1.0
    assert np.array_equal(diffusion_centrality_matrix(gamma, 0)[:, 4], expected)


def test_influence_vector_two_cycle_one_step():
    gamma = influence_matrix(TWO_CYCLE, 0.5)
    assert np.array_equal(diffusion_centrality_matrix(gamma, 1)[:, 0], [0.5, 0.5])


def test_influence_vectors_sum_to_one_across_sources():
    g = random_graph(11, 3, seed=17)
    gamma = influence_matrix(g, 0.5)
    table = diffusion_centrality_matrix(gamma, 4)
    assert np.max(np.abs(table.sum(axis=1) - 1.0)) < 1e-9


def test_influence_table_reproduces_evolution():
    g = random_graph(13, 3, seed=29)
    gamma = influence_matrix(g, 0.5)
    state = initialize(g, [{0, 4}, {7}], 1e-6)
    table = diffusion_centrality_matrix(gamma, 8)
    direct = evolve(state, gamma, 8).opinions
    assert np.max(np.abs(table @ state.opinions - direct)) < 1e-10


def test_influence_vector_rejects_bad_arguments():
    gamma = influence_matrix(TWO_CYCLE, 0.5)
    with pytest.raises(ValueError, match="non-negative"):
        diffusion_centrality_matrix(gamma, -1)


# --- stationary weights ------------------------------------------------------


def test_stationary_weights_two_cycle():
    weights = eigenvector_weights(influence_matrix(TWO_CYCLE, 0.5)).weights
    assert np.allclose(weights, [0.5, 0.5], atol=1e-12)


def test_stationary_weights_uniform_for_doubly_stochastic():
    # A degree-one random graph is a plain cycle: the operator is doubly
    # stochastic, so the weights are uniform.
    g = random_graph(6, 1, seed=3)
    weights = eigenvector_weights(influence_matrix(g, 0.5)).weights
    assert np.allclose(weights, 1.0 / 6.0, atol=1e-12)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_stationary_weights_match_linear_solve(seed):
    # Power iteration runs on sparse operators only, so the operator is built sparse.
    g = random_graph(12, 3, seed=seed)
    with mock.patch.object(dynamics, "SPARSE_NODE_THRESHOLD", 1):
        gamma = influence_matrix(g, 0.5)
    found = eigenvector_weights(gamma)
    ours = found.weights
    assert np.max(np.abs(ours - stationary_oracle(g, 0.5))) < 1e-9
    assert abs(ours.sum() - 1.0) < 1e-12
    assert np.all(ours > 0)
    assert found.residual < 10 * dynamics.DEFAULT_EIGEN_TOL
    assert found.residual == np.max(np.abs(gamma.entries.T @ ours - ours))
    assert found.iterations >= 1
    # The reported count is exactly the budget the iteration needs.
    with mock.patch.object(dynamics, "DEFAULT_EIGEN_MAX_ITER", found.iterations):
        assert eigenvector_weights(gamma).weights.tolist() == ours.tolist()
    with mock.patch.object(dynamics, "DEFAULT_EIGEN_MAX_ITER", found.iterations - 1):
        with pytest.raises(PowerIterationError, match="no convergence"):
            eigenvector_weights(gamma)


def test_stationary_weights_counterexample_against_oracle():
    g = build_counterexample(2, 1)
    ours = eigenvector_weights(influence_matrix(g, 0.5)).weights
    assert np.max(np.abs(ours - stationary_oracle(g, 0.5))) < 1e-9


@pytest.mark.parametrize("threshold", [dynamics.SPARSE_NODE_THRESHOLD, 1], ids=["dense", "sparse"])
@pytest.mark.parametrize("alpha", [0.001, 0.5, 0.999])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stationary_weights_match_dense_solve_at_any_alpha(seed, alpha, threshold):
    # A dense operator is solved by LU, so it is checked against squaring, which shares none of it.
    g = random_graph(80, 4, seed=seed)
    with mock.patch.object(dynamics, "SPARSE_NODE_THRESHOLD", threshold):
        gamma = influence_matrix(g, alpha)
    ours = eigenvector_weights(gamma).weights
    oracle = stationary_power_oracle if isinstance(gamma.entries, np.ndarray) else stationary_solve_oracle
    assert np.max(np.abs(ours - oracle(g, alpha))) < 1e-10


# Rings of 100-300 nodes, seeds 1-5, on which power iteration ran out of its 10**6 rounds (17) or
# stopped off by more than 1e-8 relative (4); it met the bounds on seeds 1, 3 and 4 at 100 nodes and 4 at 150.
SLOW_RINGS = [(n, s) for n in (100, 150, 200, 250, 300) for s in range(1, 6)
              if (n, s) not in {(100, 1), (100, 3), (100, 4), (150, 4)}]


@pytest.mark.parametrize("n, seed", SLOW_RINGS)
def test_stationary_weights_of_slow_rings_match_squaring(n, seed):
    g = weighted_ring(n, seed)
    gamma = influence_matrix(g, 0.5)
    found = eigenvector_weights(gamma)
    expected = stationary_power_oracle(g, 0.5)
    assert np.all(found.weights > 0)
    assert np.max(np.abs(found.weights - expected)) < 1e-10
    assert np.max(np.abs(found.weights - expected) / expected) < 1e-8
    assert found.iterations == 0
    assert found.residual == np.max(np.abs(gamma.entries.T @ found.weights - found.weights))


@pytest.mark.parametrize("n, q", [(20, 0.99), (50, 0.75), (100, 0.6), (100, 0.9)])
def test_weights_below_the_solve_error_fall_back_to_power_iteration(n, q):
    # LU returns weights near -1e-17 where the true ones are 1e-10 to 1e-95; power iteration keeps them positive.
    g = drifting_path(n, q)
    found = eigenvector_weights(influence_matrix(g, 0.5))
    expected = stationary_power_oracle(g, 0.5)
    assert found.iterations >= 1 and np.all(found.weights > 0)
    assert np.max(np.abs(found.weights - expected)) < 1e-10
    assert np.max(np.abs(found.weights - expected) / expected) < 1e-8


def test_dense_stationary_weights_build_one_operator_copy(traced_peak):
    # The system is the one n x n array numpy allocates (LAPACK's working copy is not traced);
    # power iteration held three, and an identity or a row sliced from one would add another.
    n = 1500
    gamma = influence_matrix(random_graph(n, 4, seed=1), 0.5)
    assert traced_peak(eigenvector_weights, gamma) <= 1.1 * n * n * 8


def test_power_iteration_budget_is_enforced():
    with mock.patch.object(dynamics, "SPARSE_NODE_THRESHOLD", 1):
        gamma = influence_matrix(random_graph(12, 3, seed=5), 0.5)
    with mock.patch.object(dynamics, "DEFAULT_EIGEN_MAX_ITER", 2):
        with pytest.raises(PowerIterationError, match="no convergence after 2 iterations"):
            eigenvector_weights(gamma)


# --- consensus predicate -----------------------------------------------------


def test_consensus_predicate_on_uniform_state():
    from netinfluence import OpinionState

    uniform = OpinionState(5, np.tile([0.2, 0.8], (4, 1)))
    assert consensus_reached(uniform, 1e-12)


def test_consensus_predicate_on_fresh_seeded_state():
    state = initialize(random_graph(5, 1, seed=7), [{0}, {1}], 1e-6)
    assert not consensus_reached(state, 1e-9)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_consensus_predicate_rejects_a_tolerance_not_positive_and_finite(tol):
    # Before, a negative tol or nan gave a false verdict and inf a true one.
    state = initialize(random_graph(5, 1, seed=7), [{0}, {1}], 1e-6)
    with pytest.raises(ValueError, match=r"^tol must be positive and finite, got"):
        consensus_reached(state, tol)
