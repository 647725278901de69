"""The public API's size, which module knows a table's format, the one sparse format, the seed-set and count
rules, and the split between the game and the searches over it."""

import ast
import re
from pathlib import Path

import netinfluence
from netinfluence import game


def test_public_api_has_at_most_41_names():
    # New entry points replace old ones rather than pile up beside them.
    assert len(netinfluence.__all__) <= 41
    assert len(set(netinfluence.__all__)) == len(netinfluence.__all__)
    assert all(hasattr(netinfluence, name) for name in netinfluence.__all__)


def test_only_dynamics_tells_table_formats_apart():
    # Dense and sparse tables are told apart in one module; the others read
    # columns, nonzero entries and sizes through its helpers.
    source = Path(netinfluence.__file__).parent
    for module in sorted(source.glob("*.py")):
        if module.name == "dynamics.py":
            continue
        for number, line in enumerate(module.read_text(encoding="utf-8").splitlines(), start=1):
            assert not re.search(r"isinstance\(.*ndarray|\.toarray\(|\.indptr|np\.nonzero\(", line), f"{module.name}:{number}"


def test_sparse_matrices_take_one_format():
    # The operator is assembled compressed sparse column once, and every table and
    # the stationary walk are derived from it: no row format, and no second conversion.
    source = Path(netinfluence.__file__).parent
    conversions = []
    for module in sorted(source.glob("*.py")):
        for number, line in enumerate(module.read_text(encoding="utf-8").splitlines(), start=1):
            assert "csr" not in line.lower(), f"{module.name}:{number}"
            if "tocsc(" in line:
                conversions.append((module.name, line.strip()))
    assert conversions == [
        ("dynamics.py", "entries = _scipy_sparse().coo_matrix((data, coords), shape=(n, n)).tocsc()")
    ]


def test_only_graph_states_the_seed_set_rule():
    # Every entry point checks seed ids for repeats, type and range through graph.py;
    # the strategy-file parser repeats the repeat check only to name the line.
    source = Path(netinfluence.__file__).parent
    raised: dict[str, list] = {
        "lists a seed node more than once": [],
        "seeds unknown node id": [],
        "seeds non-integer node id": [],
    }
    for module in sorted(source.glob("*.py")):
        for line in module.read_text(encoding="utf-8").splitlines():
            for message, places in raised.items():
                if message in line:
                    places.append((module.name, "ProfileFormatError(" in line))
    assert raised["lists a seed node more than once"] == [("cli.py", True), ("graph.py", False)]
    assert raised["seeds unknown node id"] == [("graph.py", False)]
    assert raised["seeds non-integer node id"] == [("graph.py", False)]


def test_only_graph_states_the_count_rule_and_only_strategy_profile_makes_a_profile():
    # Steps, horizons, rounds and seeds are checked by graph._count, which composes these
    # messages from the name its caller passes; a profile is made, or passed through, by
    # StrategyProfile alone.
    source = Path(netinfluence.__file__).parent
    for module in sorted(source.glob("*.py")):
        text = module.read_text(encoding="utf-8")
        for message in ("t_steps must be", "max_rounds must be", "horizon must be", "seed must be"):
            assert message not in text, f"{module.name}: {message}"
    assert not hasattr(netinfluence, "as_profile") and not hasattr(game, "as_profile")


def test_game_keeps_the_model_and_solver_keeps_the_scoring_kernel():
    # The kernel sits beside the searches that call it; solver.py takes only game.py's public names,
    # and a strategy profile is the tuple of seed sets it holds.
    kernel = ("_CHUNK_BYTES", "_chunk_items", "_response_terms", "_seed_counts", "_opponent_terms",
              "_PRODUCT_NODES_PER_SEED", "_score")
    assert [name for name in kernel if hasattr(game, name)] == []
    solver_source = (Path(netinfluence.__file__).parent / "solver.py").read_text(encoding="utf-8")
    imported = [
        alias.name
        for node in ast.parse(solver_source).body
        if isinstance(node, ast.ImportFrom) and node.module == "game"
        for alias in node.names
    ]
    assert imported and [name for name in imported if name.startswith("_")] == []
    assert issubclass(game.StrategyProfile, tuple)
    own = {"__init__", "__len__", "__iter__", "__getitem__", "__eq__", "__hash__"} & set(vars(game.StrategyProfile))
    assert own == set()
