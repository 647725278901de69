"""Workload inputs: graph files, strategy files and a manifest, made from a seed.

Run as a script this is the benchmark's set-up step, timed from outside as
``setup_s``: a fresh interpreter imports ``netinfluence``, generates one
workload's inputs and writes them to a directory::

    python3 perfbench/gen.py --workload sweep --seed 1 --out /tmp/sweep

The same seed always writes the same files.  Graphs for ``respond``,
``sweep`` and ``equilibrium`` come from the library's own generators
(``random_graph``, ``build_counterexample``) and are written with
``dump_graph``; the ``ingest`` graph is too large for ``random_graph``, whose
cost grows with n², so it is drawn here with numpy and written with every
weight's full ``repr`` so that the file holds exactly the generated floats.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import netinfluence as ni  # noqa: E402

# Instance sizes.  "full" is what the benchmark measures; "toy" keeps every
# code path and check but finishes in well under a second per round, for the
# benchmark's own tests.
SIZES = {
    "full": {
        "respond": {"exact_n": 120, "exact_budget": 2, "greedy_n": 300, "greedy_budget": 6,
                    "horizon": 3, "out_degree": 4},
        "sweep": {"n": 3000, "budget": 3, "horizons": [1, 2, 3, 4], "out_degree": 4},
        "equilibrium": {"exhaustive": [2, 2], "cli_exhaustive": [2, 1], "dynamics": [2, 3],
                        "consensus_n": 80, "consensus_budget": 2, "alpha": 0.001,
                        "out_degree": 4},
        "ingest": {"n": 50_000, "out_degree": 4, "budget": 4, "horizons": [2, 4, 8],
                   "cli_horizon": 4},
    },
    "toy": {
        "respond": {"exact_n": 20, "exact_budget": 2, "greedy_n": 30, "greedy_budget": 3,
                    "horizon": 3, "out_degree": 3},
        "sweep": {"n": 40, "budget": 2, "horizons": [1, 2], "out_degree": 3},
        "equilibrium": {"exhaustive": [2, 1], "cli_exhaustive": [2, 1], "dynamics": [2, 1],
                        "consensus_n": 12, "consensus_budget": 1, "alpha": 0.01,
                        "out_degree": 3},
        "ingest": {"n": 300, "out_degree": 4, "budget": 2, "horizons": [2, 4],
                   "cli_horizon": 4},
    },
}


def _seeds(rng, count: int) -> list[int]:
    """Seeds for the library's generators, drawn from the workload's stream."""
    return [int(x) for x in rng.integers(0, 2**31 - 1, size=count)]


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return path.name


def _profile_text(sets) -> str:
    return "".join(
        f"player {i} seeds {' '.join(str(v) for v in sorted(s))}\n" for i, s in enumerate(sets)
    )


def _random_sets(rng, n: int, sizes) -> list[list[int]]:
    """Disjoint random seed sets of the given sizes."""
    nodes = rng.choice(n, size=sum(sizes), replace=False)
    out, start = [], 0
    for k in sizes:
        out.append(sorted(int(v) for v in nodes[start:start + k]))
        start += k
    return out


def relabel(g: ni.Graph, perm) -> ni.Graph:
    """Isomorphic copy of ``g`` with node ``v`` renamed ``perm[v]``."""
    return ni.Graph(
        g.node_count, tuple(sorted((int(perm[u]), int(perm[v]), w) for u, v, w in g.edges))
    )


def ingest_edges(n: int, out_degree: int, seed: int):
    """Sparse strongly connected digraph as arrays: ``src, dst, raw, weight``.

    A random ring through every node keeps the graph strongly connected;
    each node then draws ``out_degree - 1`` further targets, self-loops and
    repeated pairs are dropped, and raw weights in [0.5, 1.5) are rescaled so
    every node's incoming weight sums to one.  Edges come out sorted by
    source, then target.
    """
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    extra_src = np.repeat(np.arange(n), out_degree - 1)
    extra_dst = rng.integers(0, n, size=extra_src.size)
    src = np.concatenate([order, extra_src])
    dst = np.concatenate([np.roll(order, -1), extra_dst])
    keep = src != dst
    key = np.unique(src[keep].astype(np.int64) * n + dst[keep])
    src, dst = key // n, key % n
    raw = rng.uniform(0.5, 1.5, size=key.size)
    weight = raw / np.bincount(dst, weights=raw, minlength=n)[dst]
    return src, dst, raw, weight


def _edge_file(n: int, src, dst, weights) -> str:
    lines = [f"nodes {n}\n"]
    lines.extend(
        f"edge {u} {v} {w!r}\n" for u, v, w in zip(src.tolist(), dst.tolist(), weights.tolist())
    )
    return "".join(lines)


def make(workload: str, seed: int, out: Path, size: str = "full") -> dict:
    """Generate one workload's inputs into ``out``; return and write the manifest."""
    p = SIZES[size][workload]
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    manifest: dict = {"workload": workload, "seed": seed, "size": size, "params": p}

    if workload == "respond":
        s_exact, s_greedy = _seeds(rng, 2)
        for key, n, b, gseed in (("exact", p["exact_n"], p["exact_budget"], s_exact),
                                 ("greedy", p["greedy_n"], p["greedy_budget"], s_greedy)):
            g = ni.random_graph(n, p["out_degree"], gseed)
            (opp,) = _random_sets(rng, n, [b])
            manifest[key] = {
                "graph": _write(out / f"{key}.graph", ni.dump_graph(g)),
                "opponents": _write(out / f"{key}_opponents.txt", _profile_text([opp])),
                "opponent": opp, "budget": b, "horizon": p["horizon"],
            }
    elif workload == "sweep":
        (gseed,) = _seeds(rng, 1)
        g = ni.random_graph(p["n"], p["out_degree"], gseed)
        sets = _random_sets(rng, p["n"], [p["budget"]] * 2)
        manifest["graph"] = _write(out / "sweep.graph", ni.dump_graph(g))
        manifest["profile"] = sets
        manifest["strategies"] = _write(out / "profile.txt", _profile_text(sets))
    elif workload == "equilibrium":
        for key in ("exhaustive", "cli_exhaustive", "dynamics"):
            m, b = p[key]
            base = ni.build_counterexample(m, b)
            perm = rng.permutation(base.node_count)
            entry = {
                "graph": _write(out / f"{key}.graph", ni.dump_graph(relabel(base, perm))),
                "budgets": [b] * m, "horizon": b,
            }
            if key == "dynamics":
                # The consecutive-block start of the unrelabelled ring, renamed.
                initial = [sorted(int(perm[j * b + k]) for k in range(b)) for j in range(m)]
                entry["initial"] = initial
                entry["initial_file"] = _write(out / "dynamics_initial.txt", _profile_text(initial))
            manifest[key] = entry
        (gseed,) = _seeds(rng, 1)
        g = ni.random_graph(p["consensus_n"], p["out_degree"], gseed)
        manifest["consensus"] = {
            "graph": _write(out / "consensus.graph", ni.dump_graph(g)),
            "budgets": [p["consensus_budget"]] * 2, "alpha": p["alpha"],
        }
    elif workload == "ingest":
        (gseed,) = _seeds(rng, 1)
        src, dst, raw, weight = ingest_edges(p["n"], p["out_degree"], gseed)
        sets = _random_sets(rng, p["n"], [p["budget"]] * 2)
        manifest.update(
            graph_seed=gseed, edges=int(src.size), profile=sets,
            graph=_write(out / "ingest.graph", _edge_file(p["n"], src, dst, weight)),
            raw_graph=_write(out / "ingest_raw.graph", _edge_file(p["n"], src, dst, raw)),
            strategies=_write(out / "profile.txt", _profile_text(sets)),
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")

    (out / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--size", default="full", choices=sorted(SIZES))
    args = parser.parse_args(argv)
    make(args.workload, args.seed, Path(args.out), args.size)
    return 0


if __name__ == "__main__":
    sys.exit(main())
