"""Command-line interface: report formats, round trips, and error handling."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from netinfluence import cli, dynamics, game
from netinfluence import (
    GameConfig,
    build_counterexample,
    dump_graph,
    load_graph,
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
# A valid ring whose printed influence table exceeds the cap.
BIG_RING = "nodes 9000\n" + "".join(f"edge {v} {(v + 1) % 9000} 1\n" for v in range(9000))


@pytest.mark.parametrize(
    "text, argv, message",
    [
        (HUGE_HEADER, ["centrality", "--eigen"], "need at least 10000000000 edges"),
        (HUGE_HEADER, ["centrality", "--eigen", "--normalize"], "need at least 10000000000 edges"),
        (HUGE_HEADER, ["simulate", "--horizon", "1"], "need at least 10000000000 edges"),
        (HUGE_HEADER, ["nash", "--exhaustive", "--budgets", "1,1", "--horizon", "1"], "exceed the cap"),
        (BIG_RING, ["centrality", "--horizon", "1"], "out of memory"),
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


def test_malformed_strategy_reports_line_number(capsys, two_cycle_file, tmp_path):
    bad = tmp_path / "bad_seeds.txt"
    bad.write_text("player 0 seeds 0\nplayer one seeds 1\n")
    code, _, err = run_cli(
        capsys,
        ["simulate", "--graph", two_cycle_file, "--strategies", str(bad),
         "--horizon", "1"],
    )
    assert code == 1
    assert "line 2" in err


def test_unknown_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


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


def test_reports_are_deterministic_apart_from_timing(capsys, two_cycle_file, two_cycle_seeds):
    args = ["simulate", "--graph", two_cycle_file, "--strategies", two_cycle_seeds,
            "--horizon", "3", "--structured"]
    _, first, _ = run_cli(capsys, args)
    _, second, _ = run_cli(capsys, args)
    strip = lambda out: [l for l in out.splitlines() if not l.startswith("time_ms")]
    assert strip(first) == strip(second)

