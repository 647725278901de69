"""scipy stays unloaded until a graph needs a sparse operator.

Checked in a fresh interpreter, because the test session itself imports scipy
(through the oracles and other tests) and would hide a module-level import.
The CLI is started through ``python -m netinfluence``'s entry module, the way
a user starts it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from netinfluence import dump_graph, random_graph

ROOT = Path(__file__).resolve().parent.parent

GUARD = r"""
import contextlib, io, json, runpy, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def cli(*argv):
    sys.argv = ["netinfluence", *argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            runpy.run_module("netinfluence", run_name="__main__")
        except SystemExit as exc:
            if exc.code:
                raise RuntimeError(f"{argv} exited with status {exc.code}")
    return out.getvalue()

def payoffs(report):
    return [float(line.split()[2]) for line in report.splitlines() if line.startswith("payoff ")]

graph, seeds, opponents = sys.argv[1:4]
import netinfluence, netinfluence.cli
found = {"import": scipy_modules()}
cli("best-response", "--graph", graph, "--player", "1", "--opponents", opponents,
    "--budget", "2", "--exact", "--greedy", "--horizon", "2")
dense = cli("simulate", "--graph", graph, "--strategies", seeds, "--horizon", "3", "--structured")
cli("nash", "--graph", graph, "--budgets", "1,1", "--exhaustive", "--horizon", "1")
cli("centrality", "--graph", graph, "--eigen")
cli("centrality", "--graph", graph, "--horizon", "2")
found["small graphs"] = scipy_modules()

from netinfluence import dynamics, game
dynamics.SPARSE_NODE_THRESHOLD = 1
game._mixing_matrix.cache_clear()  # the dense operator of this graph is cached
sparse = cli("simulate", "--graph", graph, "--strategies", seeds, "--horizon", "3", "--structured")
found["sparse operator"] = scipy_modules()
print(json.dumps({"found": found, "dense": payoffs(dense), "sparse": payoffs(sparse)}))
"""


def test_scipy_loads_only_for_a_sparse_operator(tmp_path):
    graph = tmp_path / "g.graph"
    graph.write_text(dump_graph(random_graph(12, 3, 7)))
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("player 0 seeds 0 3\nplayer 1 seeds 5 8\n")
    opponents = tmp_path / "opponents.txt"
    opponents.write_text("player 0 seeds 0 3\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", GUARD, str(graph), str(seeds), str(opponents)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["found"]["import"] == []
    assert result["found"]["small graphs"] == []
    assert "scipy.sparse" in result["found"]["sparse operator"]
    dense, sparse = result["dense"], result["sparse"]
    assert len(dense) == len(sparse) == 2
    assert max(abs(a - b) for a, b in zip(dense, sparse)) < 1e-12

