"""Command-line interface: report formats, round trips, and error handling."""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from netinfluence import cli, dynamics, game
from netinfluence import (
    GameConfig,
    build_counterexample,
    dump_graph,
    load_graph,
    random_graph,
    utility,
)
from netinfluence.cli import main

TWO_CYCLE_TEXT = "nodes 2\nedge 0 1 1.0\nedge 1 0 1.0\n"
ROOT = Path(__file__).resolve().parent.parent
MEMORY_CAP = 512 * 2**20  # address-space limit of the capped CLI subprocess, in bytes


@pytest.fixture
def two_cycle_file(tmp_path):
    path = tmp_path / "two_cycle.graph"
    path.write_text(TWO_CYCLE_TEXT)
    return str(path)


@pytest.fixture
def two_cycle_seeds(tmp_path):
    path = tmp_path / "seeds.txt"
    path.write_text("player 0 seeds 0\nplayer 1 seeds 1\n")
    return str(path)


def ring_text(n):
    return f"nodes {n}\n" + "".join(f"edge {v} {(v + 1) % n} 1\n" for v in range(n))


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def structured_fields(out):
    """Parse `key value...` report lines into a list of (key, rest) pairs."""
    pairs = []
    for line in out.splitlines():
        key, _, rest = line.partition(" ")
        pairs.append((key, rest))
    return pairs


def field(out, key):
    return [rest for k, rest in structured_fields(out) if k == key]


# --- generate ----------------------------------------------------------------


def test_generate_counterexample_round_trips(capsys, tmp_path):
    code, out, err = run_cli(capsys, ["generate", "--counterexample", "2", "1"])
    assert code == 0 and err == ""
    parsed = load_graph(out.splitlines())
    assert parsed == build_counterexample(2, 1)
    # Parameter header rides along as comments.
    assert any(line.startswith("#") for line in out.splitlines())


def test_generate_to_file_reports_path(capsys, tmp_path):
    target = tmp_path / "g.graph"
    code, out, err = run_cli(
        capsys,
        ["generate", "--random", "8", "2", "5", "--output", str(target), "--structured"],
    )
    assert code == 0
    assert field(out, "written") == [str(target)]
    g = load_graph(target.read_text())
    assert g.node_count == 8


def test_generate_to_unwritable_path_is_a_one_line_error(capsys, tmp_path):
    target = tmp_path / "missing" / "g.graph"
    code, out, err = run_cli(capsys, ["generate", "--random", "10", "2", "1", "--output", str(target)])
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write graph file {target}: ")


def test_generate_random_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, ["generate", "--random", "9", "2", "7"])
    _, second, _ = run_cli(capsys, ["generate", "--random", "9", "2", "7"])
    assert first == second


def test_generate_memory_stays_under_four_times_its_document(traced_peak):
    # Measured: 7.7 MB for a 2.5 MB document.  Generating the graph peaks near 7.5 MB; writing it
    # holds the graph's arrays (24 bytes an edge), the document's blocks and their join (twice the
    # document) and one block's Python columns and lines.  Formatting every line before joining
    # them, and joining the comments to the document, peaked at 18 MB.
    sink = _CharCounter()
    with contextlib.redirect_stdout(sink):
        peak = traced_peak(main, ["generate", "--random", "20000", "4", "1"])
    assert sink.count > 2_000_000
    assert peak < 4 * sink.count


# --- simulate ----------------------------------------------------------------


def test_simulate_two_cycle_prints_exact_half(capsys, two_cycle_file, two_cycle_seeds):
    code, out, err = run_cli(
        capsys,
        [
            "simulate",
            "--graph", two_cycle_file,
            "--strategies", two_cycle_seeds,
            "--horizon", "5",
            "--structured",
        ],
    )
    assert code == 0 and err == ""
    assert "payoff 0 0.500000000000" in out
    assert "payoff 1 0.500000000000" in out
    assert field(out, "command") == ["simulate"]
    assert any(k == "time_ms" for k, _ in structured_fields(out))


def test_simulate_payoffs_match_library(capsys, tmp_path):
    g_text = dump_graph(build_counterexample(2, 1))
    gpath = tmp_path / "cx.graph"
    gpath.write_text(g_text)
    spath = tmp_path / "seeds.txt"
    spath.write_text("player 0 seeds 0\nplayer 1 seeds 3\n")
    code, out, _ = run_cli(
        capsys,
        ["simulate", "--graph", str(gpath), "--strategies", str(spath),
         "--horizon", "4", "--structured"],
    )
    assert code == 0
    cfg = GameConfig(graph=build_counterexample(2, 1), budgets=(1, 1), horizon=4)
    expected = utility(cfg, [{0}, {3}])
    lines = field(out, "payoff")
    got = {int(l.split()[0]): float(l.split()[1]) for l in lines}
    assert abs(got[0] - expected[0]) < 1e-12
    assert abs(got[1] - expected[1]) < 1e-12
    total = field(out, "payoff_sum")
    assert abs(float(total[0]) - 1.0) < 1e-12


def test_simulate_trace_has_one_row_per_step(capsys, two_cycle_file, two_cycle_seeds):
    code, out, _ = run_cli(
        capsys,
        ["simulate", "--graph", two_cycle_file, "--strategies", two_cycle_seeds,
         "--horizon", "3", "--trace", "--structured"],
    )
    assert code == 0
    rows = field(out, "trace")
    assert len(rows) == 4  # t = 0 .. 3
    assert rows[0].split()[0] == "0"
    # Each row carries t plus n*m opinion entries.
    assert all(len(r.split()) == 1 + 4 for r in rows)


def test_simulate_state_and_consensus_flag(capsys, two_cycle_file, two_cycle_seeds):
    code, out, _ = run_cli(
        capsys,
        ["simulate", "--graph", two_cycle_file, "--strategies", two_cycle_seeds,
         "--horizon", "200", "--state", "--structured"],
    )
    assert code == 0
    states = field(out, "state")
    assert len(states) == 2
    assert field(out, "consensus") == ["true"]


@pytest.mark.parametrize("tol", ["-1", "nan", "0", "inf"])
@pytest.mark.parametrize("state", [[], ["--state"]], ids=["payoffs", "state"])
def test_simulate_rejects_a_consensus_tolerance_not_positive_and_finite(
    capsys, two_cycle_file, two_cycle_seeds, tol, state
):
    # Before, -1 and nan printed "consensus false" for a flat state and exited 0.
    code, out, err = run_cli(
        capsys,
        ["simulate", "--graph", two_cycle_file, "--strategies", two_cycle_seeds,
         "--horizon", "200", "--consensus-tol", tol, *state],
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: --consensus-tol must be positive and finite, got") and err.count("\n") == 1


def test_simulate_state_builds_the_operator_once(
    capsys, monkeypatch, two_cycle_file, two_cycle_seeds
):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dynamics, "validate", counted("validate", dynamics.validate))
    for module in (game, cli):
        monkeypatch.setattr(
            module, "influence_matrix", counted("influence_matrix", dynamics.influence_matrix)
        )
    game._mixing_matrix.cache_clear()
    code, out, _ = run_cli(
        capsys,
        ["simulate", "--graph", two_cycle_file, "--strategies", two_cycle_seeds,
         "--horizon", "3", "--state", "--trace", "--structured"],
    )
    assert code == 0 and len(field(out, "trace")) == 4
    assert calls == {"validate": 1, "influence_matrix": 1}


def test_simulate_trace_steps_the_horizon_once(
    capsys, monkeypatch, two_cycle_file, two_cycle_seeds
):
    steps = Counter()

    def counted(state, gamma, t_steps):
        steps["evolve"] += t_steps
        return dynamics.evolve(state, gamma, t_steps)

    for module in (game, cli):
        monkeypatch.setattr(module, "evolve", counted)
    code, out, _ = run_cli(
        capsys,
        ["simulate", "--graph", two_cycle_file, "--strategies", two_cycle_seeds,
         "--horizon", "3", "--state", "--trace", "--structured"],
    )
    assert code == 0 and len(field(out, "trace")) == 4
    assert steps == {"evolve": 3}


def test_simulate_human_layout(capsys, two_cycle_file, two_cycle_seeds):
    code, out, _ = run_cli(
        capsys,
        ["simulate", "--graph", two_cycle_file, "--strategies", two_cycle_seeds,
         "--horizon", "2"],
    )
    assert code == 0
    assert out.startswith("netinfluence simulate")
    assert "elapsed" in out


# --- centrality --------------------------------------------------------------


def test_centrality_zero_horizon_is_identity(capsys, two_cycle_file):
    code, out, _ = run_cli(
        capsys,
        ["centrality", "--graph", two_cycle_file, "--horizon", "0", "--structured"],
    )
    assert code == 0
    rows = field(out, "influence")
    assert len(rows) == 2
    table = np.array([[float(x) for x in r.split()[1:]] for r in rows])
    assert np.array_equal(table, np.eye(2))


def test_centrality_columns_sum_to_one(capsys, tmp_path):
    gpath = tmp_path / "cx.graph"
    gpath.write_text(dump_graph(build_counterexample(2, 1)))
    code, out, _ = run_cli(
        capsys,
        ["centrality", "--graph", str(gpath), "--horizon", "6", "--structured"],
    )
    assert code == 0
    rows = field(out, "influence")
    table = np.array([[float(x) for x in r.split()[1:]] for r in rows])
    assert table.shape == (15, 15)
    assert np.max(np.abs(table.sum(axis=0) - 1.0)) < 1e-9


def test_centrality_eigen_weights(capsys, two_cycle_file):
    code, out, _ = run_cli(
        capsys,
        ["centrality", "--graph", two_cycle_file, "--eigen", "--structured"],
    )
    assert code == 0
    weights = {int(r.split()[0]): float(r.split()[1]) for r in field(out, "weight")}
    assert abs(weights[0] - 0.5) < 1e-9 and abs(weights[1] - 0.5) < 1e-9
    assert abs(float(field(out, "weight_sum")[0]) - 1.0) < 1e-9


@pytest.mark.parametrize("threshold", [dynamics.SPARSE_NODE_THRESHOLD, 1], ids=["dense", "sparse"])
@pytest.mark.parametrize("structured", [[], ["--structured"]], ids=["plain", "structured"])
@pytest.mark.parametrize("mode", [["--eigen"], ["--horizon", "2"]], ids=["eigen", "horizon"])
def test_centrality_lines_match_per_element_rendering(capsys, tmp_path, monkeypatch, threshold, structured, mode):
    monkeypatch.setattr(dynamics, "SPARSE_NODE_THRESHOLD", threshold)
    text = dump_graph(random_graph(120, 4, 1))
    gpath = tmp_path / "g.graph"
    gpath.write_text(text)
    code, out, _ = run_cli(capsys, ["centrality", "--graph", str(gpath), *mode, *structured])
    assert code == 0
    gamma = dynamics.influence_matrix(load_graph(text), 0.5)
    if mode == ["--eigen"]:
        weights = dynamics.eigenvector_weights(gamma).weights
        expected = [f"weight {v} {cli.fmt(weights[v])}" for v in range(120)]
        expected.append(f"weight_sum {cli.fmt(weights.sum())}")
    else:
        table = dynamics.diffusion_centrality_matrix(gamma, 2)
        assert isinstance(table, np.ndarray) == (threshold > 120)
        table = table if isinstance(table, np.ndarray) else table.toarray()
        expected = [f"influence {v} " + " ".join(cli.fmt(x) for x in table[:, v]) for v in range(120)]
    assert [line for line in out.splitlines() if line.startswith(("weight", "influence"))] == expected


class _CharCounter(io.TextIOBase):
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.count = 0

    def write(self, text):
        self.count += len(text)
        return len(text)


def test_centrality_report_memory_does_not_grow_with_its_output(tmp_path):
    # The report is written line by line: the peak is the operator and the table
    # (dense at 600 nodes) plus a few gathered chunks, whose columns as Python
    # floats take about four times their ``_CHUNK_BYTES``.  The whole report is
    # larger than that allowance, so holding it would break the bound.
    n = 600
    graph = tmp_path / "ring.graph"
    graph.write_text(ring_text(n))
    sink = _CharCounter()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert main(["centrality", "--horizon", "1", "--graph", str(graph)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    allowance = 4 * (4 * game._CHUNK_BYTES)
    assert sink.count > allowance
    assert peak < 2 * (8 * n * n) + allowance


# --- best-response -----------------------------------------------------------


@pytest.fixture
def random_graph_file(capsys, tmp_path):
    target = tmp_path / "rand.graph"
    code = main(["generate", "--random", "9", "3", "13", "--output", str(target)])
    capsys.readouterr()
    assert code == 0
    return str(target)


def test_best_response_exact_strategy_and_payoff(capsys, random_graph_file, tmp_path):
    opp = tmp_path / "opp.txt"
    opp.write_text("player 0 seeds 1 2\n")
    code, out, _ = run_cli(
        capsys,
        ["best-response", "--graph", random_graph_file, "--player", "1",
         "--opponents", str(opp), "--budget", "2", "--exact",
         "--horizon", "4", "--structured"],
    )
    assert code == 0
    assert field(out, "method") == ["exact"]
    strategy = field(out, "strategy")[0]
    seeds = [int(x) for x in strategy.split(",")]
    assert len(seeds) == 2 and seeds == sorted(seeds)
    assert float(field(out, "payoff")[0]) > 0
    assert int(field(out, "evaluations")[0]) == math.comb(9, 2)


def test_best_response_both_methods_report_ratio(capsys, random_graph_file, tmp_path):
    opp = tmp_path / "opp.txt"
    opp.write_text("player 0 seeds 0 4\n")
    code, out, _ = run_cli(
        capsys,
        ["best-response", "--graph", random_graph_file, "--player", "1",
         "--opponents", str(opp), "--budget", "3", "--exact", "--greedy",
         "--horizon", "3", "--structured"],
    )
    assert code == 0
    ratio = float(field(out, "ratio")[0])
    assert 1.0 - 1.0 / math.e - 1e-9 <= ratio <= 1.0 + 1e-12


def test_best_response_unit_budget_methods_agree(capsys, random_graph_file, tmp_path):
    opp = tmp_path / "opp.txt"
    opp.write_text("player 0 seeds 2\n")
    args = ["best-response", "--graph", random_graph_file, "--player", "1",
            "--opponents", str(opp), "--budget", "1", "--horizon", "3", "--structured"]
    _, exact_out, _ = run_cli(capsys, args + ["--exact"])
    _, greedy_out, _ = run_cli(capsys, args + ["--greedy"])
    assert field(exact_out, "strategy") == field(greedy_out, "strategy")
    assert field(exact_out, "payoff") == field(greedy_out, "payoff")


def test_best_response_consensus_regime(capsys, random_graph_file, tmp_path):
    opp = tmp_path / "opp.txt"
    opp.write_text("player 0 seeds 3\n")
    code, out, _ = run_cli(
        capsys,
        ["best-response", "--graph", random_graph_file, "--player", "1",
         "--opponents", str(opp), "--budget", "1", "--exact", "--consensus",
         "--structured"],
    )
    assert code == 0
    assert "regime consensus" in field(out, "param")


def test_best_response_requires_a_method(capsys, random_graph_file, tmp_path):
    opp = tmp_path / "opp.txt"
    opp.write_text("player 0 seeds 3\n")
    code, out, err = run_cli(
        capsys,
        ["best-response", "--graph", random_graph_file, "--player", "1",
         "--opponents", str(opp), "--budget", "1", "--horizon", "2"],
    )
    assert code == 1
    assert err.startswith("error:")


def test_best_response_requires_horizon_or_consensus(capsys, random_graph_file, tmp_path):
    opp = tmp_path / "opp.txt"
    opp.write_text("player 0 seeds 3\n")
    code, out, err = run_cli(
        capsys,
        ["best-response", "--graph", random_graph_file, "--player", "1",
         "--opponents", str(opp), "--budget", "1", "--exact"],
    )
    assert code == 1
    assert "horizon" in err


# --- nash --------------------------------------------------------------------


def test_nash_exhaustive_finds_no_equilibrium_on_counterexample(capsys, tmp_path):
    gpath = tmp_path / "cx.graph"
    gpath.write_text(dump_graph(build_counterexample(2, 1)))
    code, out, _ = run_cli(
        capsys,
        ["nash", "--graph", str(gpath), "--budgets", "1,1", "--exhaustive",
         "--horizon", "1", "--structured"],
    )
    assert code == 0
    assert field(out, "equilibria") == ["0"]
    assert field(out, "equilibrium") == []


def test_nash_exhaustive_lists_profiles(capsys, two_cycle_file):
    code, out, _ = run_cli(
        capsys,
        ["nash", "--graph", two_cycle_file, "--budgets", "1,1", "--exhaustive",
         "--horizon", "3", "--structured"],
    )
    assert code == 0
    assert field(out, "equilibria") == ["4"]
    rows = field(out, "equilibrium")
    # Two players per equilibrium, profile index then player then seed list.
    assert len(rows) == 8
    assert rows[0].split() == ["0", "0", "0"]


def test_nash_dynamics_consensus_reaches_equilibrium(capsys, random_graph_file):
    code, out, _ = run_cli(
        capsys,
        ["nash", "--graph", random_graph_file, "--budgets", "1,1", "--dynamics",
         "--consensus", "--structured"],
    )
    assert code == 0
    assert field(out, "kind") == ["equilibrium"]
    profiles = field(out, "profile")
    assert len(profiles) == 2


def test_nash_dynamics_consensus_runs_on_a_large_graph(capsys, tmp_path):
    # Exact consensus best responses need no enumeration of the C(5000, 5) seed sets.
    gpath = tmp_path / "large.graph"
    gpath.write_text(dump_graph(random_graph(5000, 4, seed=1)))
    code, out, err = run_cli(
        capsys,
        ["nash", "--graph", str(gpath), "--budgets", "5,5", "--dynamics", "--consensus", "--structured"],
    )
    assert code == 0, err
    assert field(out, "kind") == ["equilibrium"]
    assert [len(rest.split()[1].split(",")) for rest in field(out, "profile")] == [5, 5]


def test_nash_dynamics_cycle_on_counterexample(capsys, tmp_path):
    gpath = tmp_path / "cx.graph"
    gpath.write_text(dump_graph(build_counterexample(2, 1)))
    ipath = tmp_path / "init.txt"
    ipath.write_text("player 0 seeds 0\nplayer 1 seeds 0\n")
    code, out, _ = run_cli(
        capsys,
        ["nash", "--graph", str(gpath), "--budgets", "1,1", "--dynamics",
         "--horizon", "1", "--initial", str(ipath), "--structured"],
    )
    assert code == 0
    assert field(out, "kind") == ["cycle_detected"]
    moves = field(out, "move")
    assert len(moves) == int(field(out, "moves")[0])
    assert len(moves) > 0


def test_nash_dynamics_respects_max_rounds(capsys, tmp_path):
    gpath = tmp_path / "cx.graph"
    gpath.write_text(dump_graph(build_counterexample(2, 1)))
    code, out, _ = run_cli(
        capsys,
        ["nash", "--graph", str(gpath), "--budgets", "1,1", "--dynamics",
         "--horizon", "1", "--max-rounds", "2", "--structured"],
    )
    assert code == 0
    assert field(out, "kind") == ["max_rounds_exhausted"]
    assert len(field(out, "move")) <= 2 * 2


# --- errors and misc ---------------------------------------------------------


def test_missing_graph_file_is_an_error(capsys):
    code, out, err = run_cli(
        capsys,
        ["centrality", "--graph", "/nonexistent/g.graph", "--eigen"],
    )
    assert code == 1
    assert err.startswith("error:") and "/nonexistent/g.graph" in err
    assert out == ""


@pytest.mark.parametrize("reader", ["graph", "strategies"])
def test_non_utf8_file_is_a_one_line_error_naming_it(
    capsys, tmp_path, two_cycle_file, two_cycle_seeds, reader
):
    binary = tmp_path / "binary.dat"
    binary.write_bytes(b"nodes 2\n\x89PNG\xff\xfe\n")
    files = {"graph": two_cycle_file, "strategies": two_cycle_seeds, reader: str(binary)}
    code, out, err = run_cli(
        capsys,
        ["simulate", "--graph", files["graph"], "--strategies", files["strategies"],
         "--horizon", "1"],
    )
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    kind = "graph" if reader == "graph" else "strategy"
    assert lines[0].startswith(f"error: cannot read {kind} file {binary}: ")
    assert "can't decode byte 0x89" in lines[0]


def test_malformed_graph_reports_line_number(capsys, tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("nodes 2\nedge 0 nope 1.0\n")
    code, _, err = run_cli(capsys, ["centrality", "--graph", str(bad), "--eigen"])
    assert code == 1
    assert "line 2" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("weight", ["inf", "nan"])
@pytest.mark.parametrize("normalize", [[], ["--normalize"]])
def test_non_finite_weight_is_a_one_line_error(capsys, tmp_path, weight, normalize):
    bad = tmp_path / "bad.graph"
    bad.write_text(f"nodes 2\nedge 0 1 {weight}\nedge 1 0 1.0\n")
    code, out, err = run_cli(capsys, ["centrality", "--graph", str(bad), "--eigen"] + normalize)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and "line 2" in lines[0] and "non-finite" in lines[0]


def test_validation_error_prints_plain_floats(capsys, tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("nodes 3\nedge 0 1 1.0\nedge 1 2 0.4\nedge 0 2 0.4\nedge 2 0 1.0\n")
    code, out, err = run_cli(capsys, ["centrality", "--graph", str(bad), "--eigen"])
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert "offending_nodes=((2, 0.19999999999999996),)" in lines[0]
    assert "np.float64" not in lines[0]


@pytest.mark.filterwarnings("error")
def test_normalize_overflowing_weight_sum_is_a_one_line_error(capsys, tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("nodes 3\nedge 0 1 1e308\nedge 2 1 1e308\nedge 1 0 1\nedge 1 2 1\n")
    argv = ["centrality", "--graph", str(bad), "--eigen", "--normalize"]
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and "line 3" in lines[0] and "node 1" in lines[0]


def run_capped_cli(argv):
    """Run the CLI in a fresh interpreter whose address space is capped at ``MEMORY_CAP``."""
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({MEMORY_CAP}, {MEMORY_CAP}))\n"
        "from netinfluence.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    # One BLAS thread: per-thread buffers on a many-core host could fill the cap at import.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=120
    )


HUGE_HEADER = "nodes 10000000000\nedge 0 1 1\n"
# A valid graph whose horizon-4 influence table fills in past a quarter and turns dense: 648 MB, over the cap.
DENSE_TABLE_GRAPH = dump_graph(random_graph(9000, 8, 1))


@pytest.mark.parametrize(
    "text, argv, message",
    [
        (HUGE_HEADER, ["centrality", "--eigen"], "need at least 10000000000 edges"),
        (HUGE_HEADER, ["centrality", "--eigen", "--normalize"], "need at least 10000000000 edges"),
        (HUGE_HEADER, ["simulate", "--horizon", "1"], "need at least 10000000000 edges"),
        (HUGE_HEADER, ["nash", "--exhaustive", "--budgets", "1,1", "--horizon", "1"], "exceed the cap"),
        (DENSE_TABLE_GRAPH, ["centrality", "--horizon", "4"], "out of memory"),
    ],
    ids=["eigen", "normalize", "simulate", "exhaustive", "dense-table"],
)
def test_huge_inputs_are_one_line_errors_under_a_memory_cap(tmp_path, text, argv, message):
    graph = tmp_path / "g.graph"
    graph.write_text(text)
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("player 0 seeds 0\nplayer 1 seeds 1\n")
    if argv[0] == "simulate":
        argv = argv + ["--strategies", str(seeds)]
    done = run_capped_cli(argv + ["--graph", str(graph)])
    assert done.returncode == 1 and done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    assert lines[0].startswith("error:") and message in lines[0]


@pytest.mark.parametrize(
    "argv, document",
    [
        (["simulate", "--horizon", "1", "--strategies"], "player 0 seeds 0\nplayer 2 seeds 1\n"),
        (["nash", "--budgets", "1,1", "--dynamics", "--horizon", "1", "--initial"], "player 1 seeds 0\n"),
        (["best-response", "--player", "1", "--budget", "1", "--exact", "--horizon", "1", "--opponents"],
         "player 0 seeds 0\nplayer 1 seeds 1\n"),
    ],
    ids=["profile-gap", "initial-missing-player", "opponents-list-responder"],
)
def test_player_indices_outside_the_game_are_a_one_line_error(
    capsys, tmp_path, two_cycle_file, argv, document
):
    players = tmp_path / "players.txt"
    players.write_text(document)
    code, out, err = run_cli(capsys, argv + [str(players), "--graph", two_cycle_file])
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {players}: player indices ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize(
    "argv, graph_text",
    [
        (["centrality", "--eigen"], TWO_CYCLE_TEXT),
        (["generate", "--random", "2000", "3", "1"], None),
        # A 1.26 MB report: the write fails partway through, not at the final flush.
        (["centrality", "--horizon", "1"], ring_text(300)),
    ],
    ids=["report", "generated-graph", "mid-stream"],
)
def test_failed_stdout_write_is_a_one_line_error(tmp_path, argv, graph_text):
    if graph_text is not None:
        graph = tmp_path / "g.graph"
        graph.write_text(graph_text)
        argv = argv + ["--graph", str(graph)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "netinfluence", *argv],
            stdout=full, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    assert done.returncode == 1
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    assert lines[0].startswith("error: cannot write report: ")


def test_malformed_strategy_reports_line_number(capsys, two_cycle_file, tmp_path):
    bad = tmp_path / "bad_seeds.txt"
    for document, fragment in [
        ("player 0 seeds 0\nplayer one seeds 1\n", "line 2: bad integer token"),
        ("# no players\n\n", "empty document: no 'player' lines"),  # no line to name
    ]:
        bad.write_text(document)
        code, _, err = run_cli(
            capsys,
            ["simulate", "--graph", two_cycle_file, "--strategies", str(bad),
             "--horizon", "1"],
        )
        assert code == 1
        assert err.startswith(f"error: {bad}: {fragment}") and err.count("\n") == 1


def test_unknown_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    # A budget list argparse's type check rejects exits the same way, naming the list.
    with pytest.raises(SystemExit) as exc:
        main(["nash", "--graph", "g.graph", "--budgets", "2,x", "--dynamics", "--horizon", "1"])
    assert exc.value.code == 2
    assert "bad budget list '2,x'" in capsys.readouterr().err


def test_normalize_flag_fixes_unscaled_weights(capsys, tmp_path):
    gpath = tmp_path / "raw.graph"
    gpath.write_text("nodes 2\nedge 0 1 2.5\nedge 1 0 4.0\n")
    code, _, err = run_cli(capsys, ["centrality", "--graph", str(gpath), "--eigen"])
    assert code == 1
    code, out, _ = run_cli(
        capsys,
        ["centrality", "--graph", str(gpath), "--eigen", "--normalize", "--structured"],
    )
    assert code == 0
    weights = {int(r.split()[0]): float(r.split()[1]) for r in field(out, "weight")}
    assert abs(weights[0] - 0.5) < 1e-9


# --- flags against their parsers ---------------------------------------------

SHARED = {"--structured": (False, False), "--graph": (None, True), "--alpha": (0.5, False),
          "--normalize": (False, False)}
GAME = {**SHARED, "--epsilon": (1e-6, False)}
REGIME = {**GAME, "--horizon": (None, False), "--consensus": (False, False)}
# Every subcommand's options as option -> (default, required), and its mutually
# exclusive groups as (required, options).  A change here is a change of interface.
FLAGS = {
    "simulate": (
        {**GAME, "--strategies": (None, True), "--horizon": (None, True), "--budgets": (None, False),
         "--state": (False, False), "--trace": (False, False), "--consensus-tol": (1e-8, False)},
        [],
    ),
    "centrality": (
        {**SHARED, "--horizon": (None, False), "--eigen": (False, False)},
        [(True, ("--horizon", "--eigen"))],
    ),
    "best-response": (
        {**REGIME, "--player": (None, True), "--opponents": (None, True), "--budget": (None, True),
         "--exact": (False, False), "--greedy": (False, False)},
        [],
    ),
    "nash": (
        {**REGIME, "--budgets": (None, True), "--dynamics": (False, False), "--exhaustive": (False, False),
         "--initial": (None, False), "--max-rounds": (100, False), "--greedy": (False, False)},
        [(True, ("--dynamics", "--exhaustive"))],
    ),
    "generate": (
        {"--structured": (False, False), "--counterexample": (None, False), "--random": (None, False),
         "--output": (None, False)},
        [(True, ("--counterexample", "--random"))],
    ),
}


def test_every_subcommand_keeps_its_flags_defaults_and_groups():
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(subparsers.choices) == list(FLAGS)
    for name, sub in subparsers.choices.items():
        options, groups = FLAGS[name]
        found = {
            " ".join(a.option_strings): (a.default, a.required) for a in sub._actions if a.dest != "help"
        }
        assert found == options, name
        found_groups = [
            (g.required, tuple(a.option_strings[0] for a in g._group_actions))
            for g in sub._mutually_exclusive_groups
        ]
        assert found_groups == groups, name


# One argv per subcommand, touching its shared flags, its own flags and its groups.
SAMPLE_ARGV = {
    "simulate": ["--graph", "g", "--strategies", "s", "--horizon", "3", "--budgets", "2,2", "--state",
                 "--consensus-tol", "1e-6", "--alpha", "0.3"],
    "centrality": ["--eigen", "--graph", "g", "--normalize", "--structured"],
    "best-response": ["--graph", "g", "--player", "1", "--opponents", "o", "--budget", "2", "--exact",
                      "--consensus", "--epsilon", "1e-4"],
    "nash": ["--graph", "g", "--budgets", "2,2", "--dynamics", "--horizon", "2", "--max-rounds", "5"],
    "generate": ["--random", "10", "3", "7", "--output", "x", "--structured"],
}
TOP_USAGE = """usage: netinfluence [-h] [--version]
                    {simulate,centrality,best-response,nash,generate} ...
"""
TOP_HELP = TOP_USAGE + """
Competitive opinion seeding on weighted digraphs

positional arguments:
  {simulate,centrality,best-response,nash,generate}
    simulate            seed opinions, run the averaging dynamic, report
                        payoffs
    centrality          influence table at a horizon, or stationary weights
    best-response       one player's best seed set against fixed opponents
    nash                equilibrium search: improvement dynamics or exhaustive
                        check
    generate            write a graph in the edge-list format

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
"""


def subparsers(parser):
    """Subcommand name -> parser, as built into ``parser``."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def parse_exit(parser, argv, capsys):
    """Exit code, stdout and stderr of a parse that exits."""
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("name", list(FLAGS))
def test_one_subcommand_parser_reads_as_the_full_build(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    one, full = cli._build_parser(name), cli._build_parser()
    assert list(subparsers(one)) == [name]
    assert one.format_usage() == full.format_usage() == TOP_USAGE
    assert subparsers(one)[name].format_help() == subparsers(full)[name].format_help()
    assert subparsers(one)[name].format_usage() == subparsers(full)[name].format_usage()
    argv = [name, *SAMPLE_ARGV[name]]
    assert vars(one.parse_args(argv)) == vars(full.parse_args(argv))
    assert one.parse_args(argv).func.__name__ == "cmd_" + name.replace("-", "_")
    # Help, a flag no subcommand has, a stray positional (a top-level error) and missing flags.
    for bad in ([name, "--help"], [name, "--bogus"], [*argv, "stray"], [name]):
        expected = parse_exit(full, bad, capsys)
        assert expected[0] == (0 if "--help" in bad else 2)
        assert parse_exit(one, bad, capsys) == expected, bad


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["--help"], 0, TOP_HELP, ""),
        (["--version"], 0, f"netinfluence {cli.__version__}\n", ""),
        ([], 2, "", TOP_USAGE + "netinfluence: error: the following arguments are required: subcommand\n"),
        (["--structured"], 2, "", TOP_USAGE + "netinfluence: error: the following arguments are required: subcommand\n"),
    ],
    ids=["help", "version", "empty", "flag-first"],
)
def test_top_level_text_lists_every_subcommand(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert (exc.value.code, *capsys.readouterr()) == (code, out, err)


def test_unknown_subcommand_names_every_choice(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    err = capsys.readouterr().err
    prefix = TOP_USAGE + "netinfluence: error: argument subcommand: invalid choice: 'frobnicate' (choose from "
    assert exc.value.code == 2 and err.startswith(prefix) and err.count("\n") == 3
    assert [name for name in FLAGS if name in err[len(prefix):]] == list(FLAGS)


def test_main_builds_only_the_named_subcommand(capsys, monkeypatch):
    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda name=None: built.append(name) or build(name))
    for argv in (["generate", "--counterexample", "2", "1"], ["--version"], ["nash", "--help"]):
        with contextlib.suppress(SystemExit):
            main(argv)
    capsys.readouterr()
    assert built == ["generate", "--version", "nash"]


@pytest.fixture(scope="module")
def echo_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("echo")
    (folder / "g.graph").write_text(TWO_CYCLE_TEXT)
    (folder / "profile.txt").write_text("player 0 seeds 0\nplayer 1 seeds 1\n")
    (folder / "opponents.txt").write_text("player 0 seeds 0\n")
    return folder


ECHO_COMMANDS = {
    "simulate": ["simulate", "--horizon", "1", "--strategies", "profile.txt"],
    "best-response": ["best-response", "--player", "1", "--budget", "1", "--exact", "--horizon", "1",
                      "--opponents", "opponents.txt"],
    "nash": ["nash", "--budgets", "1,1", "--exhaustive", "--horizon", "1"],
}


@given(
    st.sampled_from(list(ECHO_COMMANDS)),
    st.floats(0, 1, exclude_min=True, exclude_max=True),
    st.floats(0, 0.25, exclude_min=True, exclude_max=True),
)
def test_alpha_and_epsilon_are_echoed_in_both_layouts(echo_files, command, alpha, epsilon):
    argv = [a if not a.endswith(".txt") else str(echo_files / a) for a in ECHO_COMMANDS[command]]
    argv += ["--graph", str(echo_files / "g.graph"), "--alpha", repr(alpha), "--epsilon", repr(epsilon)]
    for layout, alpha_line, epsilon_line in [
        (["--structured"], f"param alpha {cli.fmt(alpha)}", f"param epsilon {cli.fmt(epsilon)}"),
        ([], f"  alpha: {cli.fmt(alpha)}", f"  epsilon: {cli.fmt(epsilon)}"),
    ]:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv + layout) == 0
        lines = out.getvalue().splitlines()
        assert alpha_line in lines and epsilon_line in lines


def test_reports_are_deterministic_apart_from_timing(capsys, two_cycle_file, two_cycle_seeds):
    args = ["simulate", "--graph", two_cycle_file, "--strategies", two_cycle_seeds,
            "--horizon", "3", "--structured"]
    _, first, _ = run_cli(capsys, args)
    _, second, _ = run_cli(capsys, args)
    strip = lambda out: [l for l in out.splitlines() if not l.startswith("time_ms")]
    assert strip(first) == strip(second)



# --- strategy-file parser properties ------------------------------------------

FILLER = st.sampled_from(["", "   ", "\t", "# a comment", "  # player 0 seeds 1 1"])
SPACE = st.sampled_from(["", " ", "\t", "  \t"])
GAP = st.sampled_from([" ", "   ", "\t", " \t "])


@st.composite
def seed_documents(draw):
    """A valid strategy document: its lines, the map it encodes, and each player's line index.

    Filler lines are strings; a player line is ``(lead, tokens, gap, trail)``.
    """
    players = draw(st.lists(st.integers(0, 12), min_size=1, max_size=5, unique=True))
    lines, expected, rows = [], {}, {}
    for i in players:
        lines += draw(st.lists(FILLER, max_size=2))
        expected[i] = draw(st.lists(st.integers(0, 99), min_size=1, max_size=4, unique=True))
        rows[i] = len(lines)
        tokens = ["player", str(i), "seeds", *map(str, expected[i])]
        lines.append((draw(SPACE), tokens, draw(GAP), draw(SPACE)))
    lines += draw(st.lists(FILLER, max_size=2))
    return lines, expected, rows


def render(lines) -> str:
    return "\n".join(
        line if isinstance(line, str) else line[0] + line[2].join(line[1]) + line[3]
        for line in lines
    )


@given(seed_documents())
def test_seed_parser_reads_generated_documents(doc):
    lines, expected, _ = doc
    assert cli._parse_seed_lines(render(lines)) == expected


@given(
    seed_documents(),
    st.sampled_from(["duplicate player", "negative index", "repeated seed", "bad integer",
                     "missing seeds"]),
    st.data(),
)
def test_each_seed_line_mutation_is_an_error_on_its_line(doc, mutation, data):
    lines, expected, rows = doc
    players = list(expected)
    if mutation == "duplicate player":
        assume(len(players) > 1)
        k = data.draw(st.integers(1, len(players) - 1))
        player, new_index = players[k], str(data.draw(st.sampled_from(players[:k])))
    else:
        player = data.draw(st.sampled_from(players))
    lead, tokens, gap, trail = lines[rows[player]]
    tokens = list(tokens)
    if mutation == "duplicate player":
        tokens[1], message = new_index, f"duplicate line for player {new_index}"
    elif mutation == "negative index":
        tokens[1], message = str(-data.draw(st.integers(1, 99))), "negative player index"
    elif mutation == "repeated seed":
        tokens.append(data.draw(st.sampled_from(tokens[3:])))
        message = "lists a seed node more than once"
    elif mutation == "bad integer":
        k = data.draw(st.sampled_from([1, *range(3, len(tokens))]))
        tokens[k] = data.draw(st.sampled_from(["x", "1.5", "1e3", "0x1", "one"]))
        message = "bad integer token"
    else:
        del tokens[2]
        message = "expected 'player <i> seeds <id> <id> ...'"
    lines = list(lines)
    lines[rows[player]] = (lead, tokens, gap, trail)
    with pytest.raises(cli.ProfileFormatError) as exc_info:
        cli._parse_seed_lines(render(lines))
    line_no = rows[player] + 1
    assert exc_info.value.line == line_no
    assert str(exc_info.value).startswith(f"line {line_no}: ")
    assert message in str(exc_info.value)
