"""The four workloads: a fixed sequence of library calls and CLI invocations each.

A workload is built from the manifest and files ``gen.make`` wrote.  One
round runs ``solve_ops`` (library calls, timed as ``solve_s``) and then
``cli_ops`` (in-process ``netinfluence.cli.main`` invocations, timed as
``cli_s``).  Every operation has a check that works from the oracle in
``oracle.py`` or from properties the paper proves, never from stored output;
the CLI checks also compare printed numbers with the library's results from
the same round, digit for digit.

Library functions are looked up on their modules at call time, so a traced
run sees the wrapped versions.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

import gen
import netinfluence as ni
import oracle

IMPROVEMENT_TOL = 1e-12
RESPONDER = 1  # the best-responding player in ``respond``; player 0 is the opponent


class Op(NamedTuple):
    """One library call: ``call()`` is timed, ``check(result)`` lists problems."""

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], list]


class CliOp(NamedTuple):
    """One CLI invocation: ``check(lines)`` receives the structured report lines."""

    name: str
    argv: list
    check: Callable[[list], list]


def fmt(x) -> str:
    """The report schema's number format: 12 significant digits."""
    return format(float(x), "#.12g")


def ids(nodes) -> str:
    return ",".join(str(v) for v in sorted(nodes))


def fields(lines, key) -> list[list[str]]:
    """Tokens after the first, for every report line whose first token is ``key``."""
    return [line.split()[1:] for line in lines if line.split()[:1] == [key]]


def field(lines, key) -> str:
    found = fields(lines, key)
    if len(found) != 1:
        raise ValueError(f"expected one '{key}' line, found {len(found)}")
    return " ".join(found[0])


def compare(label, got, expected) -> list[str]:
    return [] if got == expected else [f"{label}: printed {got!r}, library gives {expected!r}"]


def payoff_lines(lines, pay) -> list[str]:
    """``payoff`` and ``payoff_sum`` lines of a simulate report against library payoffs."""
    if pay is None:
        return ["no library payoffs from this round to compare with"]
    printed = sorted((int(t[0]), t[1]) for t in fields(lines, "payoff"))
    problems = compare("payoff", printed, [(i, fmt(p)) for i, p in enumerate(pay)])
    return problems + compare("payoff_sum", field(lines, "payoff_sum"), fmt(pay.sum()))


def load(path: Path) -> ni.Graph:
    with open(path, encoding="utf-8") as handle:
        return ni.load_graph(handle)


def operator(g: ni.Graph, alpha: float):
    src, dst, w = oracle.edge_arrays(g.edges)
    return oracle.mixing(g.node_count, src, dst, w, alpha)


class Workload:
    """Shared plumbing: input directory and per-round library results."""

    def __init__(self, manifest: dict, directory: Path):
        self.manifest = manifest
        self.dir = directory
        self.params = manifest["params"]
        self.rng = np.random.default_rng(manifest["seed"])
        self.results: dict = {}

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def begin_round(self):
        self.results = {}

    def end_solve(self):
        """Drop what the solve phase holds that the CLI checks do not need."""

    def solve_ops(self) -> list[Op]:
        raise NotImplementedError

    def cli_ops(self) -> list[CliOp]:
        raise NotImplementedError

    def keep(self, key, check):
        """Wrap ``check`` so the result is stored under ``key`` for later checks."""
        def run(result):
            self.results[key] = result
            return check(result)
        return run


class Respond(Workload):
    """Exact and greedy best responses of player 1 against a random player 0.

    The reference payoffs below score profiles ``(opponent, response)``, so
    they read column ``RESPONDER`` of the oracle's output.
    """

    SAMPLE = 64

    def __init__(self, manifest, directory):
        super().__init__(manifest, directory)
        self.inst = {}
        for key in ("exact", "greedy"):
            e = manifest[key]
            g = load(directory / e["graph"])
            cfg = ni.GameConfig(g, (e["budget"], e["budget"]), horizon=e["horizon"])
            gamma = operator(g, cfg.alpha)
            opp = frozenset(e["opponent"])
            sample = oracle.random_subsets(self.rng, g.node_count, e["budget"], self.SAMPLE)
            sample_pay = oracle.simulate_batch(
                gamma, [(opp, frozenset(s)) for s in sample], cfg.epsilon, cfg.horizon
            )[:, RESPONDER]
            self.inst[key] = dict(e, cfg=cfg, gamma=gamma, opp=opp, best_sample=sample_pay.max())

    def _payoff_problems(self, key, br, label) -> list[str]:
        inst = self.inst[key]
        cfg = inst["cfg"]
        problems = []
        if len(br.strategy) != inst["budget"]:
            problems.append(f"{label}: seeds {len(br.strategy)} nodes, budget {inst['budget']}")
        ref = oracle.simulate(inst["gamma"], [inst["opp"], br.strategy], cfg.epsilon, cfg.horizon)
        if not abs(br.payoff - ref[RESPONDER]) <= oracle.PAYOFF_TOL:
            problems.append(f"{label}: payoff {br.payoff!r}, reference {ref[RESPONDER]!r}")
        return problems

    def _check_exact(self, br):
        inst = self.inst["exact"]
        problems = self._payoff_problems("exact", br, "exact best response")
        if br.evaluations != math.comb(inst["cfg"].n, inst["budget"]):
            problems.append(f"exact best response scored {br.evaluations} candidates")
        if inst["best_sample"] > br.payoff + IMPROVEMENT_TOL:
            problems.append(
                f"a sampled seed set scores {inst['best_sample']!r}, above exact {br.payoff!r}")
        return problems

    def _check_greedy(self, key):
        def check(br):
            inst = self.inst[key]
            n, b = inst["cfg"].n, inst["budget"]
            problems = self._payoff_problems(key, br, f"greedy best response ({key})")
            if br.evaluations != sum(n - k for k in range(b)):
                problems.append(f"greedy best response scored {br.evaluations} candidates")
            if key == "exact":
                exact = self.results.get("exact")
                if exact is None:
                    return problems + ["no exact best response to compare greedy with"]
                if br.payoff > exact.payoff + IMPROVEMENT_TOL:
                    problems.append(f"greedy {br.payoff!r} beats exact {exact.payoff!r}")
                if br.payoff < oracle.GREEDY_FACTOR * exact.payoff:
                    problems.append(f"greedy {br.payoff!r} below (1 - 1/e) of exact {exact.payoff!r}")
            elif br.payoff < oracle.GREEDY_FACTOR * inst["best_sample"]:
                problems.append(f"greedy {br.payoff!r} below (1 - 1/e) of a sampled seed set")
            return problems
        return check

    def solve_ops(self):
        ex, gr = self.inst["exact"], self.inst["greedy"]
        return [
            Op("exact_best_response",
               lambda: ni.exact_best_response(ex["cfg"], RESPONDER, [ex["opp"]]),
               self.keep("exact", self._check_exact)),
            Op("greedy_best_response.exact_instance",
               lambda: ni.greedy_best_response(ex["cfg"], RESPONDER, [ex["opp"]]),
               self.keep("greedy_small", self._check_greedy("exact"))),
            Op("greedy_best_response",
               lambda: ni.greedy_best_response(gr["cfg"], RESPONDER, [gr["opp"]]),
               self.keep("greedy", self._check_greedy("greedy"))),
        ]

    def _argv(self, key, *methods):
        e = self.inst[key]
        return ["best-response", "--graph", self.path(e["graph"]), "--player", str(RESPONDER),
                "--opponents", self.path(e["opponents"]), "--budget", str(e["budget"]),
                "--horizon", str(e["horizon"]), *methods, "--structured"]

    def _check_cli(self, expected):
        def check(lines):
            problems = []
            methods = [t[0] for t in fields(lines, "method")]
            if methods != [m for m, _ in expected]:
                return [f"methods printed {methods}, expected {[m for m, _ in expected]}"]
            for k, (method, key) in enumerate(expected):
                br = self.results.get(key)
                if br is None:
                    return problems + [f"no library result for {key}"]
                problems += compare(f"{method} strategy", fields(lines, "strategy")[k][0], ids(br.strategy))
                problems += compare(f"{method} payoff", fields(lines, "payoff")[k][0], fmt(br.payoff))
                problems += compare(f"{method} evaluations", fields(lines, "evaluations")[k][0],
                                    str(br.evaluations))
            if len(expected) == 2:
                ratio = self.results["greedy_small"].payoff / self.results["exact"].payoff
                problems += compare("ratio", field(lines, "ratio"), fmt(ratio))
            return problems
        return check

    def cli_ops(self):
        return [
            CliOp("best-response --exact --greedy", self._argv("exact", "--exact", "--greedy"),
                  self._check_cli([("exact", "exact"), ("greedy", "greedy_small")])),
            CliOp("best-response --greedy", self._argv("greedy", "--greedy"),
                  self._check_cli([("greedy", "greedy")])),
        ]


class Sweep(Workload):
    """Simulated and closed-form payoffs at several horizons, above the sparse threshold.

    Stationary weights come in through the CLI only: see README.md for why
    ``consensus_utility`` is not among the timed calls.
    """

    def __init__(self, manifest, directory):
        super().__init__(manifest, directory)
        self.graph = load(directory / manifest["graph"])
        self.profile = [frozenset(s) for s in manifest["profile"]]
        self.cfgs = {h: ni.GameConfig(self.graph, (self.params["budget"],) * 2, horizon=h)
                     for h in self.params["horizons"]}
        cfg = self.cfgs[self.params["horizons"][0]]
        self.gamma = operator(self.graph, cfg.alpha)
        self.simulated = {h: oracle.simulate(self.gamma, self.profile, cfg.epsilon, h)
                          for h in self.cfgs}
        # The library's own stationary weights, for the digit-for-digit CLI comparison.
        self.weights = ni.eigenvector_weights(ni.influence_matrix(self.graph, cfg.alpha)).weights

    def _check_route(self, h, label):
        return lambda pay: oracle.check_payoffs(pay, self.simulated[h], f"{label} at horizon {h}")

    def solve_ops(self):
        ops = []
        for h, cfg in self.cfgs.items():
            ops += [
                Op(f"utility.h{h}", lambda cfg=cfg: ni.utility(cfg, self.profile),
                   self.keep(("utility", h), self._check_route(h, "utility"))),
                Op(f"utility_closed_form.h{h}",
                   lambda cfg=cfg: ni.utility_closed_form(cfg, self.profile),
                   self._check_route(h, "utility_closed_form")),
            ]
        return ops

    def _check_simulate(self, h):
        return lambda lines: payoff_lines(lines, self.results.get(("utility", h)))

    def _check_eigen(self, lines):
        weights = np.array([float(t[1]) for t in fields(lines, "weight")])
        problems = oracle.check_weights(self.gamma, weights)
        lib = self.weights
        printed = [t[1] for t in fields(lines, "weight")]
        if printed != [fmt(x) for x in lib]:
            problems.append("printed stationary weights differ from the library's")
        problems += compare("weight_sum", field(lines, "weight_sum"), fmt(lib.sum()))
        return problems

    def cli_ops(self):
        graph, strategies = self.path(self.manifest["graph"]), self.path(self.manifest["strategies"])
        ops = [CliOp(f"simulate.h{h}",
                     ["simulate", "--graph", graph, "--strategies", strategies,
                      "--horizon", str(h), "--structured"],
                     self._check_simulate(h))
               for h in self.cfgs]
        ops.append(CliOp("centrality --eigen", ["centrality", "--graph", graph, "--eigen",
                                                 "--structured"], self._check_eigen))
        return ops


class Equilibrium(Workload):
    """No pure equilibrium at short horizons; a constructed one at consensus."""

    def __init__(self, manifest, directory):
        super().__init__(manifest, directory)
        self.games = {}
        for key in ("exhaustive", "cli_exhaustive", "dynamics"):
            e = manifest[key]
            g = load(directory / e["graph"])
            cfg = ni.GameConfig(g, tuple(e["budgets"]), horizon=e["horizon"])
            self.games[key] = dict(e, cfg=cfg, gamma=operator(g, cfg.alpha))
        for key in ("exhaustive", "cli_exhaustive"):
            game = self.games[key]
            game["reference_count"] = oracle.pure_equilibria(
                game["gamma"], game["cfg"].budgets, game["cfg"].epsilon, game["cfg"].horizon)
        c = manifest["consensus"]
        g = load(directory / c["graph"])
        self.consensus_cfg = ni.GameConfig(g, tuple(c["budgets"]), horizon=1, alpha=c["alpha"])
        self.weights = oracle.stationary(operator(g, c["alpha"]))

    def _check_exhaustive(self, key):
        def check(found):
            ref = self.games[key]["reference_count"]
            problems = compare("equilibria", len(found), ref)
            if ref != 0:
                problems.append(f"the reference finds {ref} equilibria on the counterexample")
            return problems
        return check

    def _check_dynamics(self, outcome):
        game = self.games["dynamics"]
        cfg, gamma = game["cfg"], game["gamma"]
        problems = []
        if outcome.kind != "cycle_detected":
            problems.append(f"dynamics ended with {outcome.kind}, expected cycle_detected")
        profile = [frozenset(s) for s in game["initial"]]
        for k, move in enumerate(outcome.trace):
            if profile[move.player] != move.old:
                problems.append(f"move {k} starts from a seed set the player does not hold")
                break
            before = oracle.simulate(gamma, profile, cfg.epsilon, cfg.horizon)[move.player]
            profile[move.player] = frozenset(move.new)
            after = oracle.simulate(gamma, profile, cfg.epsilon, cfg.horizon)[move.player]
            if not after > before + IMPROVEMENT_TOL:
                problems.append(f"move {k} does not improve the mover's payoff")
            if abs((after - before) - move.delta) > oracle.PAYOFF_TOL:
                problems.append(f"move {k} reports gain {move.delta!r}, reference {after - before!r}")
        if [frozenset(s) for s in outcome.profile] != profile:
            problems.append("final profile differs from the replayed moves")
        return problems

    def _check_consensus(self, eq):
        cfg = self.consensus_cfg
        problems = [] if eq.verified else ["constructed equilibrium is not verified"]
        problems += oracle.check_payoffs(
            eq.payoffs, oracle.stationary_payoffs(self.weights, list(eq.profile), cfg.epsilon),
            "consensus_equilibrium")
        top = max(range(cfg.m), key=lambda j: (cfg.budgets[j], -j))
        held = sorted(eq.profile[top])
        rest = np.delete(self.weights, held)
        if len(held) != cfg.budgets[top] or self.weights[held].min() < rest.max() - IMPROVEMENT_TOL:
            problems.append("largest-budget player does not hold the heaviest nodes")
        return problems

    def solve_ops(self):
        ex, cx, dy = (self.games[k] for k in ("exhaustive", "cli_exhaustive", "dynamics"))
        return [
            Op("exhaustive_nash_check", lambda: ni.exhaustive_nash_check(ex["cfg"]),
               self._check_exhaustive("exhaustive")),
            Op("exhaustive_nash_check.small", lambda: ni.exhaustive_nash_check(cx["cfg"]),
               self.keep("cli_exhaustive", self._check_exhaustive("cli_exhaustive"))),
            Op("best_response_dynamics",
               lambda: ni.best_response_dynamics(dy["cfg"], dy["initial"]),
               self.keep("dynamics", self._check_dynamics)),
            Op("consensus_equilibrium", lambda: ni.consensus_equilibrium(self.consensus_cfg),
               self._check_consensus),
        ]

    def _check_cli_exhaustive(self, lines):
        found = self.results.get("cli_exhaustive")
        if found is None:
            return ["no library exhaustive result"]
        return compare("equilibria", field(lines, "equilibria"), str(len(found)))

    def _check_cli_dynamics(self, lines):
        outcome = self.results.get("dynamics")
        if outcome is None:
            return ["no library dynamics outcome"]
        problems = compare("kind", field(lines, "kind"), outcome.kind)
        problems += compare("profile", [t[1] for t in fields(lines, "profile")],
                            [ids(s) for s in outcome.profile])
        problems += compare("moves", field(lines, "moves"), str(len(outcome.trace)))
        problems += compare("move lines", [" ".join(t[1:]) for t in fields(lines, "move")],
                            [f"{mv.player} {ids(mv.old)} {ids(mv.new)} {fmt(mv.delta)}"
                             for mv in outcome.trace])
        return problems

    def cli_ops(self):
        cx, dy = self.games["cli_exhaustive"], self.games["dynamics"]

        def budgets(game):
            return ",".join(str(b) for b in game["budgets"])

        return [
            CliOp("nash --exhaustive",
                  ["nash", "--graph", self.path(cx["graph"]), "--budgets", budgets(cx),
                   "--exhaustive", "--horizon", str(cx["horizon"]), "--structured"],
                  self._check_cli_exhaustive),
            CliOp("nash --dynamics",
                  ["nash", "--graph", self.path(dy["graph"]), "--budgets", budgets(dy),
                   "--dynamics", "--initial", self.path(dy["initial_file"]),
                   "--horizon", str(dy["horizon"]), "--structured"],
                  self._check_cli_dynamics),
        ]


class Ingest(Workload):
    """Parse a large sparse edge list, simulate it, and read stationary weights via the CLI."""

    def __init__(self, manifest, directory):
        super().__init__(manifest, directory)
        p = self.params
        n = p["n"]
        # The generator normalizes the raw weights the way --normalize does, so
        # one operator serves both the normalized and the raw file.
        self.src, self.dst, _, self.weight = gen.ingest_edges(n, p["out_degree"],
                                                              manifest["graph_seed"])
        self.profile = [frozenset(s) for s in manifest["profile"]]
        self.budgets = (p["budget"],) * 2
        defaults = {f.name: f.default for f in dataclasses.fields(ni.GameConfig)}
        self.alpha, self.epsilon = defaults["alpha"], defaults["epsilon"]
        self.gamma = oracle.mixing(n, self.src, self.dst, self.weight, self.alpha)
        self.simulated = {h: oracle.simulate(self.gamma, self.profile, self.epsilon, h)
                          for h in p["horizons"]}
        self.graph = None

    def _load(self):
        self.graph = load(self.dir / self.manifest["graph"])
        return self.graph

    def _check_load(self, g):
        if g.node_count != self.params["n"] or len(g.edges) != self.src.size:
            return [f"loaded {g.node_count} nodes and {len(g.edges)} edges"]
        src, dst, w = oracle.edge_arrays(g.edges)
        if not (np.array_equal(src, self.src) and np.array_equal(dst, self.dst)
                and np.array_equal(w, self.weight)):
            return ["loaded edges differ from the generated edge list"]
        return []

    def _cfg(self, h):
        return ni.GameConfig(self.graph, self.budgets, horizon=h)

    def solve_ops(self):
        ops = [Op("load_graph", self._load, self._check_load)]
        for h in self.params["horizons"]:
            ops.append(Op(f"utility.h{h}", lambda h=h: ni.utility(self._cfg(h), self.profile),
                          self.keep(("utility", h), lambda pay, h=h: oracle.check_payoffs(
                              pay, self.simulated[h], f"utility at horizon {h}"))))
        return ops

    def end_solve(self):
        self.graph = None

    def _check_simulate(self, lines):
        return payoff_lines(lines, self.results.get(("utility", self.params["cli_horizon"])))

    def _check_eigen(self, lines):
        weights = np.array([float(t[1]) for t in fields(lines, "weight")])
        problems = oracle.check_weights(self.gamma, weights)
        total = float(field(lines, "weight_sum"))
        if abs(total - 1.0) > oracle.SUM_TOL:
            problems.append(f"weight_sum {total!r}")
        return problems

    def cli_ops(self):
        return [
            CliOp("simulate", ["simulate", "--graph", self.path(self.manifest["graph"]),
                               "--strategies", self.path(self.manifest["strategies"]),
                               "--horizon", str(self.params["cli_horizon"]), "--structured"],
                  self._check_simulate),
            CliOp("centrality --eigen --normalize",
                  ["centrality", "--graph", self.path(self.manifest["raw_graph"]), "--eigen",
                   "--normalize", "--structured"], self._check_eigen),
        ]


WORKLOADS = {"respond": Respond, "sweep": Sweep, "equilibrium": Equilibrium, "ingest": Ingest}
