"""Competitive opinion seeding on weighted digraphs.

Players plant opinions at budgeted seed nodes, opinions spread by repeated
weighted averaging, and payoffs are relative opinion shares.  The package
covers the averaging dynamics and influence measures, three agreeing payoff
routes, exact and greedy best-response solvers, improvement dynamics with
cycle detection, exhaustive equilibrium search, and graph generators —
including a ring-with-petals family on which short-horizon play never
settles.
"""

from .dynamics import (
    ConsensusWeights,
    InfluenceMatrix,
    OpinionState,
    PowerIterationError,
    consensus_reached,
    diffusion_centrality_matrix,
    eigenvector_weights,
    evolve,
    influence_matrix,
    initialize,
)
from .game import (
    GameConfig,
    StrategyProfile,
    as_profile,
    assemble_profile,
    check_profile,
    consensus_utility,
    marginal_gain,
    payoff_table,
    table_payoffs,
    utility,
    utility_closed_form,
)
from .graph import (
    Graph,
    GraphFormatError,
    ValidationReport,
    build_counterexample,
    dump_graph,
    load_graph,
    random_graph,
    validate,
)
from .solver import (
    IMPROVEMENT_TOL,
    BestResponse,
    ConsensusEquilibrium,
    EnumerationCapError,
    EquilibriumVerificationError,
    Move,
    NashOutcome,
    best_response_dynamics,
    consensus_equilibrium,
    exact_best_response,
    exhaustive_nash_check,
    greedy_best_response,
)

__version__ = "0.1.0"

__all__ = [
    "BestResponse",
    "ConsensusEquilibrium",
    "ConsensusWeights",
    "EnumerationCapError",
    "EquilibriumVerificationError",
    "GameConfig",
    "Graph",
    "GraphFormatError",
    "IMPROVEMENT_TOL",
    "InfluenceMatrix",
    "Move",
    "NashOutcome",
    "OpinionState",
    "PowerIterationError",
    "StrategyProfile",
    "ValidationReport",
    "as_profile",
    "assemble_profile",
    "best_response_dynamics",
    "build_counterexample",
    "check_profile",
    "consensus_equilibrium",
    "consensus_reached",
    "consensus_utility",
    "diffusion_centrality_matrix",
    "dump_graph",
    "eigenvector_weights",
    "evolve",
    "exact_best_response",
    "exhaustive_nash_check",
    "greedy_best_response",
    "influence_matrix",
    "initialize",
    "load_graph",
    "marginal_gain",
    "payoff_table",
    "random_graph",
    "table_payoffs",
    "utility",
    "utility_closed_form",
    "validate",
]
