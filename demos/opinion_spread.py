"""Watch two seeded opinions spread through a small network.

Two players each implant their opinion at one node of a random ten-node
graph.  We step the averaging dynamic forward, printing how far the node
opinions are from agreeing, and finish by computing the players' payoffs
three ways: by simulation at the chosen horizon, by the closed-form
influence table at the same horizon, and in the long-run stationary limit.
"""

import numpy as np

from netinfluence import (
    GameConfig,
    consensus_utility,
    evolve,
    influence_matrix,
    initialize,
    random_graph,
    utility,
    utility_closed_form,
)


def main() -> None:
    g = random_graph(10, 2, seed=7)
    gamma = influence_matrix(g, alpha=0.5)
    seed_sets = [{0}, {4}]
    state = initialize(g, seed_sets, epsilon=1e-6)

    print("ten-node graph, player 0 seeds node 0, player 1 seeds node 4")
    print()
    print(" t   spread(player 0)   spread(player 1)")
    for t in range(0, 13, 2):
        target = evolve(state, gamma, t)
        spread = target.opinions.max(axis=0) - target.opinions.min(axis=0)
        print(f"{t:2d}   {spread[0]:16.9f}   {spread[1]:16.9f}")
    print()
    print("the spread shrinks geometrically: every node is pulled toward the")
    print("same blend of the two seeded opinions")
    print()

    cfg = GameConfig(graph=g, budgets=(1, 1), horizon=6)
    by_simulation = utility(cfg, seed_sets)
    by_table = utility_closed_form(cfg, seed_sets)
    at_the_limit = consensus_utility(cfg, seed_sets)
    print(f"payoffs at horizon 6, simulated:    {np.round(by_simulation, 6)}")
    print(f"payoffs at horizon 6, closed form:  {np.round(by_table, 6)}")
    print(f"payoffs in the stationary limit:    {np.round(at_the_limit, 6)}")
    print()
    print("the two horizon-6 routes agree to machine precision; the stationary")
    print("limit differs because transient advantages have not yet washed out")


if __name__ == "__main__":
    main()
