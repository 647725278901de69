"""Tests of the benchmark itself, at toy sizes.

Run from the repository root with ``python3 -m pytest perfbench``.  They show
that every workload runs end to end with the output contract in
``BENCHMARK.json``, and that a corrupted library result is reported as a
failed operation rather than timed as a success.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import netinfluence as ni  # noqa: E402
import netinfluence.cli as cli_module  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def invoke(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--size", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_clean_at_toy_size(workload, trace):
    proc = invoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("_work", "_results", "__pycache__"))
    proc = invoke("respond", 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def one_round(workload, tmp_path):
    manifest = gen.make(workload, 5, tmp_path, "toy")
    wl = workloads.WORKLOADS[workload](manifest, tmp_path)
    tally = run.Tally()
    run.run_round(wl, cli_module, tally)
    return tally


def test_clean_round_has_no_failures(tmp_path):
    tally = one_round("respond", tmp_path)
    assert tally.failed == 0 and tally.wrong == 0, tally.problems


def test_perturbed_payoff_is_a_failed_operation(tmp_path, monkeypatch):
    original = ni.utility

    def perturbed(cfg, profile):
        return original(cfg, profile) + np.array([1e-6, -1e-6])

    monkeypatch.setattr(ni, "utility", perturbed)
    tally = one_round("sweep", tmp_path)
    horizons = len(gen.SIZES["toy"]["sweep"]["horizons"])
    # Each library utility call fails its check, and so does each simulate
    # report, whose printed payoffs no longer match the library's.
    assert tally.failed == 2 * horizons
    assert tally.wrong == tally.failed
    assert any("utility" in p for p in tally.problems)


def test_swapped_best_response_is_a_failed_operation(tmp_path, monkeypatch):
    original = ni.exact_best_response

    def swapped(cfg, i, others, **kwargs):
        best = original(cfg, i, others, **kwargs)
        taken = set(best.strategy) | set().union(*map(set, others))
        worse = frozenset(sorted(set(range(cfg.n)) - taken)[:len(best.strategy)])
        return ni.BestResponse(worse, best.payoff, best.evaluations)

    monkeypatch.setattr(ni, "exact_best_response", swapped)
    tally = one_round("respond", tmp_path)
    assert tally.wrong >= 1
    assert any(p.startswith("exact_best_response:") for p in tally.problems)


def test_misprinted_report_is_a_failed_operation(tmp_path, monkeypatch):
    monkeypatch.setattr(cli_module, "fmt", lambda x: format(float(x), "#.11g"))
    tally = one_round("equilibrium", tmp_path)
    assert any(p.startswith("nash --dynamics:") for p in tally.problems)
    assert tally.wrong >= 1


def test_raising_operation_is_failed_but_not_wrong(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(ni, "consensus_equilibrium", broken)
    tally = one_round("equilibrium", tmp_path)
    assert tally.failed == 1 and tally.wrong == 0
    assert tally.problems == ["consensus_equilibrium: raised RuntimeError: injected"]
