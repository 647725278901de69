"""The public API's size, which module knows a table's format, the one sparse format, and the seed-set rule."""

import re
from pathlib import Path

import netinfluence


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
